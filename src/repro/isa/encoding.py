"""Binary encoding of instructions to and from 32-bit words."""

from __future__ import annotations

from repro.isa.fields import FIELD_WIDTHS, FieldKind, from_bits
from repro.isa.instruction import Instruction
from repro.isa.opcodes import FORMAT_FIELDS, OP_FORMAT, Op

WORD_BITS = 32
WORD_MASK = (1 << WORD_BITS) - 1
#: Bytes per instruction word; code sizes in bytes use this.
WORD_BYTES = 4


class DecodeError(Exception):
    """Raised when a word does not decode to a legal instruction."""


_VALID_OPCODES = {int(op): op for op in Op}


def _pack_plan(op: Op) -> tuple[int, tuple[tuple[str, int, int], ...]]:
    """The opcode bits of *op* in place, and (attribute, shift, mask)
    for each of its fields; SBZ pads stay zero and are left out."""
    shift = WORD_BITS - FIELD_WIDTHS[FieldKind.OPCODE]
    opbits = int(op) << shift
    fields = []
    for kind, attr in FORMAT_FIELDS[OP_FORMAT[op]]:
        shift -= FIELD_WIDTHS[kind]
        if attr is not None:
            fields.append((attr, shift, (1 << FIELD_WIDTHS[kind]) - 1))
    return opbits, tuple(fields)


_PACK_PLAN = {op: _pack_plan(op) for op in Op}


def encode(instr: Instruction) -> int:
    """Pack *instr* into its 32-bit word.

    No range check here: the :class:`Instruction` was checked when it
    was built, so masking each field to its width is exact.
    """
    word, fields = _PACK_PLAN[instr.op]
    for attr, shift, mask in fields:
        word |= (getattr(instr, attr) & mask) << shift
    return word


def decode(word: int) -> Instruction:
    """Unpack a 32-bit word into an :class:`Instruction`.

    Raises :class:`DecodeError` for reserved opcodes (including the
    sentinel, whose opcode is :data:`Op.ILLEGAL` -- callers that want to
    treat the sentinel as data must check for it first).
    """
    if not 0 <= word <= WORD_MASK:
        raise DecodeError(f"word {word:#x} is not a 32-bit value")
    opbits = word >> (WORD_BITS - FIELD_WIDTHS[FieldKind.OPCODE])
    op = _VALID_OPCODES.get(opbits)
    if op is None:
        raise DecodeError(f"unknown opcode {opbits:#04x} in word {word:#010x}")
    kwargs: dict[str, int] = {}
    shift = WORD_BITS - FIELD_WIDTHS[FieldKind.OPCODE]
    for kind, attr in FORMAT_FIELDS[OP_FORMAT[op]]:
        width = FIELD_WIDTHS[kind]
        shift -= width
        bits = (word >> shift) & ((1 << width) - 1)
        if attr is None:
            if bits != 0:
                raise DecodeError(
                    f"non-zero SBZ field in word {word:#010x}"
                )
        else:
            kwargs[attr] = from_bits(kind, bits)
    if shift != 0:
        raise DecodeError(f"format of {op.name} does not fill 32 bits")
    return Instruction(op, **kwargs)


def encode_program(instrs: list[Instruction]) -> list[int]:
    """Encode a sequence of instructions to words."""
    return [encode(i) for i in instrs]


def decode_program(words: list[int]) -> list[Instruction]:
    """Decode a sequence of words to instructions."""
    return [decode(w) for w in words]
