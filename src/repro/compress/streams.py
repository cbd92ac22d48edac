"""Splitting instructions into typed field streams (Section 3).

Besides the real opcodes, the compressed form uses three pseudo-opcodes
that exist only inside compressed regions:

* ``OP_XCALLD`` -- a direct call that the decompressor must expand into
  the two-instruction ``bsr $r, CreateStub ; br target`` sequence of
  Figure 2 (the single original call becomes two instructions in the
  runtime buffer).
* ``OP_XCALLI`` -- the analogous expansion for an indirect call
  (``bsr $r, CreateStub ; jsr r31, (rb)``).
* ``OP_SENTINEL`` -- the end-of-region sentinel; the decompressor stops
  when it decodes one (Section 2.1).

Pseudo-opcodes occupy reserved primary-opcode values, so they live in
the ordinary opcode stream and the opcode still fully determines which
field streams follow.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.fields import FIELD_WIDTHS, FieldKind, from_bits
from repro.isa.instruction import Instruction
from repro.isa.opcodes import FORMAT_FIELDS, OP_FORMAT, Op

#: Reserved opcode values for the compressed form.
OP_XCALLD = 0x30
OP_XCALLI = 0x31
OP_SENTINEL = 0x3F

#: Field layout of each opcode value as seen by the codec.
#: Pseudo-opcodes get their own layouts; SBZ pads are dropped (they
#: carry no information and the decompressor re-inserts zeros).
_CODEC_FIELDS: dict[int, tuple[FieldKind, ...]] = {}
for _op in Op:
    if _op is Op.ILLEGAL:
        continue
    _CODEC_FIELDS[int(_op)] = tuple(
        kind
        for kind, attr in FORMAT_FIELDS[OP_FORMAT[_op]]
        if attr is not None
    )
_CODEC_FIELDS[OP_XCALLD] = (FieldKind.RA, FieldKind.BDISP)
_CODEC_FIELDS[OP_XCALLI] = (FieldKind.RA, FieldKind.RB)
_CODEC_FIELDS[OP_SENTINEL] = ()

#: Map opcode -> (Instruction attribute, field mask) per codec
#: field: the instruction was range-checked when it was built, so its
#: raw bit pattern is the value masked to the field width.
_TO_CODEC: dict[Op, tuple[tuple[str, int], ...]] = {
    op: tuple(
        (attr, (1 << FIELD_WIDTHS[kind]) - 1)
        for kind, attr in FORMAT_FIELDS[OP_FORMAT[op]]
        if attr is not None
    )
    for op in Op
}

#: Map opcode value -> the Instruction attribute per codec field, for
#: reconstructing real instructions.
_ATTRS: dict[int, tuple[str, ...]] = {
    int(op): tuple(attr for attr, _ in plan)
    for op, plan in _TO_CODEC.items()
    if op is not Op.ILLEGAL
}


@dataclass(frozen=True)
class CodecInstr:
    """One instruction as the codec sees it.

    ``opcode`` is a 6-bit opcode value (real or pseudo); ``fields``
    holds the raw unsigned bit patterns of its typed fields, in format
    order.
    """

    opcode: int
    fields: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        kinds = codec_fields(self.opcode)
        if len(kinds) != len(self.fields):
            raise ValueError(
                f"opcode {self.opcode:#x} needs {len(kinds)} fields, "
                f"got {len(self.fields)}"
            )


def codec_fields(opcode: int) -> tuple[FieldKind, ...]:
    """Field kinds of *opcode* (real or pseudo), in stream order."""
    try:
        return _CODEC_FIELDS[opcode]
    except KeyError:
        raise ValueError(f"opcode {opcode:#x} unknown to the codec") from None


def instruction_to_codec(instr: Instruction) -> CodecInstr:
    """Convert a real instruction to its codec representation."""
    return CodecInstr(
        opcode=int(instr.op),
        fields=tuple(
            getattr(instr, attr) & mask for attr, mask in _TO_CODEC[instr.op]
        ),
    )


def codec_to_instruction(item: CodecInstr) -> Instruction:
    """Convert a real-opcode codec item back to an instruction.

    Pseudo-opcodes have no single-instruction equivalent and are
    rejected; the decompressor expands them instead.
    """
    if item.opcode not in _ATTRS:
        raise ValueError(
            f"opcode {item.opcode:#x} is a pseudo-op; expand it instead"
        )
    op = Op(item.opcode)
    kinds = codec_fields(item.opcode)
    attrs = _ATTRS[item.opcode]
    kwargs = {
        attr: from_bits(kind, bits)
        for attr, kind, bits in zip(attrs, kinds, item.fields)
    }
    return Instruction(op, **kwargs)


def sentinel_item() -> CodecInstr:
    """The end-of-region marker."""
    return CodecInstr(opcode=OP_SENTINEL)


def split_streams(items: list[CodecInstr]) -> dict[FieldKind, list[int]]:
    """Split *items* into one value stream per field kind.

    The OPCODE stream gets every item's opcode; each other stream gets
    the field values of that kind in instruction order.  This is the
    "splitting streams" decomposition of Section 3.
    """
    streams: dict[FieldKind, list[int]] = {FieldKind.OPCODE: []}
    for item in items:
        streams[FieldKind.OPCODE].append(item.opcode)
        for kind, value in zip(codec_fields(item.opcode), item.fields):
            streams.setdefault(kind, []).append(value)
    return streams
