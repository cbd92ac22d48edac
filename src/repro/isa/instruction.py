"""The immutable decoded-instruction value type."""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.fields import (
    FieldKind,
    field_max,
    field_min,
    field_range_error,
)
from repro.isa.opcodes import (
    COND_BRANCH_OPS,
    DIRECT_CALL_OPS,
    FORMAT_FIELDS,
    OP_FORMAT,
    AluOp,
    Format,
    Op,
    REG_ZERO,
    SysOp,
)


#: Per-opcode range checks, built once: (attribute, lowest, highest,
#: field kind) for every field the opcode's format carries.
_FIELD_CHECKS: dict[Op, tuple[tuple[str, int, int, FieldKind], ...]] = {
    op: tuple(
        (attr, field_min(kind), field_max(kind), kind)
        for kind, attr in FORMAT_FIELDS[OP_FORMAT[op]]
        if attr is not None
    )
    for op in Op
}


@dataclass(frozen=True, slots=True)
class Instruction:
    """One decoded instruction.

    Only the attributes used by the instruction's format are meaningful;
    the rest keep their defaults.  ``imm`` holds whichever scalar payload
    the format defines (BDISP, MDISP, IMM16, LIT8, JHINT or PALF).

    Construction is the one range check: every instance, including one
    made by :func:`dataclasses.replace`, holds in-range fields, so
    :func:`~repro.isa.encoding.encode` and the codec pack them without
    checking again.
    """

    op: Op
    ra: int = REG_ZERO
    rb: int = REG_ZERO
    rc: int = REG_ZERO
    func: int = 0
    imm: int = 0

    def __post_init__(self) -> None:
        for attr, lo, hi, kind in _FIELD_CHECKS[self.op]:
            value = getattr(self, attr)
            if not lo <= value <= hi:
                raise field_range_error(kind, value)

    @property
    def format(self) -> Format:
        """Instruction format, determined entirely by the opcode."""
        return OP_FORMAT[self.op]

    def fields(self) -> tuple[tuple[FieldKind, int], ...]:
        """The typed (field kind, value) pairs of this instruction.

        This is the decomposition that the splitting-streams compressor
        of Section 3 operates on; the OPCODE field is listed first.
        """
        parts: list[tuple[FieldKind, int]] = [(FieldKind.OPCODE, int(self.op))]
        for kind, attr in FORMAT_FIELDS[self.format]:
            if attr is None:
                parts.append((kind, 0))
            else:
                parts.append((kind, getattr(self, attr)))
        return tuple(parts)

    # -- classification helpers -------------------------------------------

    @property
    def is_cond_branch(self) -> bool:
        """True for the conditional PC-relative branches."""
        return self.op in COND_BRANCH_OPS

    @property
    def is_uncond_branch(self) -> bool:
        """True for ``BR`` used as a plain jump (no live link register)."""
        return self.op is Op.BR and self.ra == REG_ZERO

    @property
    def is_direct_call(self) -> bool:
        """True for a direct call (``BSR``, or ``BR`` with a link)."""
        if self.op in DIRECT_CALL_OPS:
            return True
        return self.op is Op.BR and self.ra != REG_ZERO

    @property
    def is_indirect_call(self) -> bool:
        """True for ``JSR`` (indirect call through a register)."""
        return self.op is Op.JSR

    @property
    def is_call(self) -> bool:
        """True for any call instruction, direct or indirect."""
        return self.is_direct_call or self.is_indirect_call

    @property
    def is_return(self) -> bool:
        """True for ``RET``."""
        return self.op is Op.RET

    @property
    def is_indirect_jump(self) -> bool:
        """True for ``JMP`` (indirect jump, e.g. through a jump table)."""
        return self.op is Op.JMP

    @property
    def is_control_transfer(self) -> bool:
        """True for any instruction that can change the PC."""
        if self.format in (Format.BRA, Format.JMP):
            return True
        return self.op is Op.SPC and self.imm == SysOp.LONGJMP

    @property
    def has_fallthrough(self) -> bool:
        """True if execution can continue at the next instruction.

        Calls fall through (after the callee returns); unconditional
        branches, indirect jumps, returns, halt/exit and the sentinel do
        not.
        """
        if self.is_cond_branch or self.is_call:
            return True
        if self.op in (Op.BR, Op.JMP, Op.RET):
            return False
        if self.op is Op.ILLEGAL:
            return False
        if self.op is Op.SPC and self.imm in (
            SysOp.HALT,
            SysOp.EXIT,
            SysOp.LONGJMP,
        ):
            return False
        return True

    @property
    def writes_reg(self) -> int | None:
        """The register this instruction writes, or None.

        Writes to the zero register are reported as None.
        """
        target: int | None = None
        if self.format in (Format.OPR, Format.OPI):
            target = self.rc
        elif self.op in (Op.LDA, Op.LDAH, Op.LDW):
            target = self.ra
        elif self.format in (Format.BRA, Format.JMP):
            target = self.ra
        elif self.op is Op.SPC and self.imm in (SysOp.READ, SysOp.SETJMP):
            # READ writes v0 and t0; SETJMP writes v0.  Handled specially
            # by liveness analysis; report v0 here.
            target = 0
        if target == REG_ZERO:
            return None
        return target

    def reads_regs(self) -> tuple[int, ...]:
        """Registers this instruction reads (zero register excluded)."""
        regs: list[int] = []
        if self.format in (Format.OPR,):
            regs = [self.ra, self.rb]
        elif self.format is Format.OPI:
            regs = [self.ra]
        elif self.op in (Op.LDA, Op.LDAH, Op.LDW):
            regs = [self.rb]
        elif self.op is Op.STW:
            regs = [self.ra, self.rb]
        elif self.is_cond_branch:
            regs = [self.ra]
        elif self.format is Format.JMP:
            regs = [self.rb]
        elif self.op is Op.SPC and self.imm in (
            SysOp.WRITE,
            SysOp.EXIT,
            SysOp.SETJMP,
            SysOp.LONGJMP,
        ):
            regs = [16, 17]  # a0, a1 (over-approximate: a1 only for longjmp)
        return tuple(r for r in regs if r != REG_ZERO)

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        from repro.isa.disassembler import disassemble_one

        return disassemble_one(self)


#: The encoded sentinel: the all-ones word (ILLEGAL opcode, all-ones PALF).
#: The decompressor stops when it decodes this (Section 2.1).
SENTINEL_WORD = 0xFFFFFFFF


def nop() -> Instruction:
    """A no-op."""
    return Instruction(Op.SPC, imm=SysOp.NOP)


def halt() -> Instruction:
    """Stop the machine with exit code 0."""
    return Instruction(Op.SPC, imm=SysOp.HALT)


def sentinel() -> Instruction:
    """The illegal-instruction sentinel appended to compressed regions."""
    return Instruction(Op.ILLEGAL, imm=(1 << 26) - 1)


def alu_rr(func: AluOp, ra: int, rb: int, rc: int) -> Instruction:
    """Register-register ALU operation ``rc <- ra func rb``."""
    return Instruction(Op.OPR, ra=ra, rb=rb, rc=rc, func=int(func))


def alu_ri(func: AluOp, ra: int, lit: int, rc: int) -> Instruction:
    """Register-immediate ALU operation ``rc <- ra func lit``."""
    return Instruction(Op.OPI, ra=ra, rc=rc, func=int(func), imm=lit)
