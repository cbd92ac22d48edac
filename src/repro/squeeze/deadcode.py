"""Dead-store elimination via per-function register liveness.

A backwards dataflow over each function's CFG computes live registers
at every instruction; ALU and address-forming instructions whose
destination is dead are deleted.  The analysis is conservative at
calls, returns, indirect jumps and system operations (standard ABI
summaries: calls read argument registers and define caller-saves;
returns keep the return value and callee-saves live).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Format, Op, SysOp
from repro.program.blocks import BasicBlock
from repro.program.cfg import block_successors
from repro.program.function import Function
from repro.program.program import Program

#: Registers a function must preserve / the caller may rely on after a
#: call: return value v0, saved s0-s5, fp, sp, and gp-style r29.
_LIVE_AT_RETURN = frozenset({0, 9, 10, 11, 12, 13, 14, 15, 29, 30})
#: Registers read by a call (arguments + sp).
_CALL_USES = frozenset({16, 17, 18, 19, 20, 21, 30})
#: Registers a call may define (caller-save: v0, t0-t7, a0-a5, t8-t11,
#: ra).  Everything else survives the call.
_CALL_DEFS = frozenset(
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26}
)
_ALL_REGS = frozenset(range(31))  # r31 is the zero register


@dataclass
class DeadCodeStats:
    stores_removed: int = 0


def _instr_uses_defs(instr) -> tuple[frozenset[int], frozenset[int]]:
    """(uses, defs) of one instruction, with ABI summaries for calls."""
    if instr.is_call:
        from repro.squeeze.abstraction import ABSTRACT_LINK_REG

        if instr.is_direct_call and instr.ra == ABSTRACT_LINK_REG:
            # A call to an abstracted fragment is transparent: the
            # fragment reads and writes the caller's registers directly,
            # outside the normal ABI.  Treat it as fully opaque.
            return _ALL_REGS, frozenset()
        uses = set(_CALL_USES)
        if instr.is_indirect_call:
            uses.add(instr.rb)
        defs = set(_CALL_DEFS)
        if instr.ra != 31:
            defs.add(instr.ra)
        return frozenset(uses), frozenset(defs)
    if instr.op is Op.SPC:
        if instr.imm == SysOp.READ:
            return frozenset(), frozenset({0, 1})
        if instr.imm in (SysOp.WRITE, SysOp.EXIT):
            return frozenset({16}), frozenset()
        if instr.imm == SysOp.SETJMP:
            return frozenset({16, 30, 15, 26}), frozenset({0})
        if instr.imm == SysOp.LONGJMP:
            return frozenset({16, 17}), frozenset({0, 30, 15, 26})
        return frozenset(), frozenset()
    uses = frozenset(instr.reads_regs())
    dest = instr.writes_reg
    defs = frozenset() if dest is None else frozenset({dest})
    return uses, defs


def _removable(instr) -> bool:
    """True if the instruction has no effect beyond its register write."""
    return instr.format in (Format.OPR, Format.OPI) or instr.op in (
        Op.LDA,
        Op.LDAH,
        Op.LDW,
    )


#: Per-instruction liveness facts: (uses, defs, the register a dead
#: write would make removable, or None).
_Facts = tuple[frozenset[int], frozenset[int], int | None]


def _facts(instr: Instruction, memo: dict[Instruction, _Facts]) -> _Facts:
    """The liveness facts of *instr*, memoised in *memo*.

    Instructions are frozen values, so equal instructions share one
    entry; *memo* lives for one :func:`eliminate_dead_stores` call.
    """
    facts = memo.get(instr)
    if facts is None:
        uses, defs = _instr_uses_defs(instr)
        removable = instr.writes_reg if _removable(instr) else None
        facts = memo[instr] = (uses, defs, removable)
    return facts


def _block_live_out(
    program: Program, function: Function, block: BasicBlock,
    live_in: dict[str, frozenset[int]],
) -> set[int]:
    term = block.terminator
    live: set[int] = set()
    for succ in block_successors(program, block):
        live |= live_in.get(succ, frozenset())
    if term is not None:
        from repro.squeeze.abstraction import ABSTRACT_LINK_REG

        if term.is_return and term.rb == ABSTRACT_LINK_REG:
            # Returning from an abstracted fragment: every register may
            # be read by the continuation in the caller.
            live |= _ALL_REGS
        elif term.is_return:
            live |= _LIVE_AT_RETURN
        elif term.op is Op.SPC and term.imm == SysOp.LONGJMP:
            live |= _LIVE_AT_RETURN
        elif block.ends_in_indirect_jump and block.jump_table is None:
            live |= _ALL_REGS  # unknown targets: assume everything live
    return live


def _transfer(
    block: BasicBlock, live_out: set[int],
    memo: dict[Instruction, _Facts],
) -> frozenset[int]:
    """Live-in of *block* given its live-out."""
    live = set(live_out)
    for instr in reversed(block.instrs):
        uses, defs, _ = _facts(instr, memo)
        live -= defs
        live |= uses
    return frozenset(live)


def eliminate_dead_stores(program: Program) -> DeadCodeStats:
    """Remove dead register writes from every function, in place."""
    stats = DeadCodeStats()
    memo: dict[Instruction, _Facts] = {}
    for function in program.functions.values():
        stats.stores_removed += _process_function(program, function, memo)
    return stats


def _process_function(
    program: Program, function: Function,
    memo: dict[Instruction, _Facts],
) -> int:
    labels = list(function.blocks)
    live_in: dict[str, frozenset[int]] = {label: frozenset() for label in labels}

    changed = True
    while changed:
        changed = False
        for label in reversed(labels):
            block = function.blocks[label]
            live_out = _block_live_out(program, function, block, live_in)
            new_in = _transfer(block, live_out, memo)
            if new_in != live_in[label]:
                live_in[label] = new_in
                changed = True

    removed = 0
    for label in labels:
        block = function.blocks[label]
        live = set(_block_live_out(program, function, block, live_in))
        kept: list[int] = []
        last = len(block.instrs) - 1
        for index in range(last, -1, -1):
            uses, defs, removable = _facts(block.instrs[index], memo)
            dead = (
                removable is not None
                and index != last  # keep terminators in place
                and removable not in live
            )
            if dead:
                removed += 1
                continue
            live -= defs
            live |= uses
            kept.append(index)
        kept.reverse()
        if len(kept) != len(block.instrs):
            block.rebuild(kept)
    return removed
