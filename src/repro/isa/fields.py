"""Typed instruction fields.

Section 3 of the paper splits each instruction into its typed fields and
compresses one stream per field *type* ("for our test platform, we split
the instructions into 15 streams").  Our synthetic ISA has 12 field
kinds; each kind below becomes one compression stream.  The opcode
stream drives decoding: an opcode completely determines which other
fields follow it, so the per-stream codeword sequences can be merged
into a single bitstream (Section 3).
"""

from __future__ import annotations

import enum


class FieldKind(enum.IntEnum):
    """The typed fields of an instruction; one compression stream each."""

    OPCODE = 0   # 6-bit primary opcode
    RA = 1       # 5-bit register a (source / branch test / link)
    RB = 2       # 5-bit register b (source / base / indirect target)
    RC = 3       # 5-bit register c (destination of operate formats)
    SBZ = 4      # 3-bit should-be-zero pad in register-operate format
    FUNC = 5     # 8-bit ALU function code
    LIT8 = 6     # 8-bit zero-extended literal (operate-immediate)
    MDISP = 7    # 16-bit signed memory displacement (words)
    IMM16 = 8    # 16-bit signed immediate (lda / ldah)
    BDISP = 9    # 21-bit signed branch displacement (instructions)
    JHINT = 10   # 16-bit jump hint (ignored by the VM)
    PALF = 11    # 26-bit special/system function code


#: Bit width of each field kind.
FIELD_WIDTHS: dict[FieldKind, int] = {
    FieldKind.OPCODE: 6,
    FieldKind.RA: 5,
    FieldKind.RB: 5,
    FieldKind.RC: 5,
    FieldKind.SBZ: 3,
    FieldKind.FUNC: 8,
    FieldKind.LIT8: 8,
    FieldKind.MDISP: 16,
    FieldKind.IMM16: 16,
    FieldKind.BDISP: 21,
    FieldKind.JHINT: 16,
    FieldKind.PALF: 26,
}

#: Field kinds whose values are two's-complement signed.
_SIGNED_FIELDS = frozenset(
    {FieldKind.MDISP, FieldKind.IMM16, FieldKind.BDISP}
)


def field_is_signed(kind: FieldKind) -> bool:
    """Return True if *kind* holds a two's-complement signed value."""
    return kind in _SIGNED_FIELDS


#: Per-kind value range and bit mask, computed once.
_MIN: dict[FieldKind, int] = {
    kind: -(1 << (width - 1)) if kind in _SIGNED_FIELDS else 0
    for kind, width in FIELD_WIDTHS.items()
}
_MAX: dict[FieldKind, int] = {
    kind: (1 << (width - 1)) - 1 if kind in _SIGNED_FIELDS
    else (1 << width) - 1
    for kind, width in FIELD_WIDTHS.items()
}
_MASK: dict[FieldKind, int] = {
    kind: (1 << width) - 1 for kind, width in FIELD_WIDTHS.items()
}


def field_max(kind: FieldKind) -> int:
    """Largest representable value for *kind*."""
    return _MAX[kind]


def field_min(kind: FieldKind) -> int:
    """Smallest representable value for *kind*."""
    return _MIN[kind]


def field_range_error(kind: FieldKind, value: int) -> ValueError:
    """The error every field range check raises for *value*."""
    return ValueError(
        f"{kind.name} value {value} out of range "
        f"[{_MIN[kind]}, {_MAX[kind]}]"
    )


def check_field(kind: FieldKind, value: int) -> int:
    """Validate that *value* fits in *kind*; return it unchanged.

    Raises :class:`ValueError` when the value is out of range.
    """
    if not _MIN[kind] <= value <= _MAX[kind]:
        raise field_range_error(kind, value)
    return value


def to_bits(kind: FieldKind, value: int) -> int:
    """Encode *value* as the raw unsigned bit pattern of the field.

    Checks the range, since *value* may be a raw number rather than an
    already-validated :class:`~repro.isa.instruction.Instruction` field.
    """
    return check_field(kind, value) & _MASK[kind]


def from_bits(kind: FieldKind, bits: int) -> int:
    """Decode the raw bit pattern *bits* back to a field value."""
    mask = _MASK[kind]
    if bits < 0 or bits > mask:
        raise ValueError(
            f"{kind.name} bit pattern {bits} wider than "
            f"{FIELD_WIDTHS[kind]} bits"
        )
    if kind in _SIGNED_FIELDS and bits > _MAX[kind]:
        return bits - (mask + 1)
    return bits
