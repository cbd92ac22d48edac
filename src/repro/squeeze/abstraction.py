"""Procedural abstraction of repeated code fragments.

`squeeze` replaces multiple identical program fragments with calls to a
single representative function.  We fingerprint straight-line windows
(no control transfers, no calls, position-independent), greedily pick
profitable repeated fragments largest-gain-first, and abstract each
into a new function called through a dedicated link register.

Profitability for a fragment of length L occurring n times:
saved = n*L - (n calls + L body + 1 ret) = (n-1)*L - n - 1 > 0.

For speed the pass fingerprints a fixed set of window lengths rather
than every length; the workload calibration (which decides how much
duplicated code to plant) runs against this same pass, so Table 1's
Input/Squeeze ratios are measured, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.encoding import encode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.program.blocks import BasicBlock
from repro.program.function import Function
from repro.program.program import Program

#: Link register used for abstracted-fragment calls (a caller-save
#: temporary distinct from the normal return-address register).
ABSTRACT_LINK_REG = 25

#: Window lengths that are fingerprinted, longest first.
WINDOW_LENGTHS = (16, 8, 4)


@dataclass
class AbstractionStats:
    fragments_abstracted: int = 0
    occurrences_rewritten: int = 0
    instrs_saved: int = 0


def _instr_ok(instr: Instruction) -> bool:
    """True if *instr* may be moved into an abstracted fragment."""
    if instr.is_control_transfer:
        return False
    if instr.op is Op.SPC and instr.imm != 0:
        return False  # syscalls stay put
    if ABSTRACT_LINK_REG in instr.reads_regs():
        return False
    if instr.writes_reg == ABSTRACT_LINK_REG:
        return False
    return True


def _savings(n: int, length: int) -> int:
    return (n - 1) * length - n - 1


def _collect_candidates(
    program: Program,
) -> dict[tuple[int, ...], list[tuple[str, int, int]]]:
    """Fingerprint windows: key -> [(block label, start, length)]."""
    table: dict[tuple[int, ...], list[tuple[str, int, int]]] = {}
    # Instruction -> its word if it may be abstracted, else None; equal
    # (frozen) instructions share one entry for this call.
    movable: dict[Instruction, int | None] = {}
    for _, block in program.all_blocks():
        n = len(block.instrs)
        words = [0] * n
        ok = [False] * n
        for index, instr in enumerate(block.instrs):
            word = movable.get(instr, -1)
            if word == -1:  # not seen yet (words are never negative)
                word = movable[instr] = (
                    encode(instr) if _instr_ok(instr) else None
                )
            if word is not None and index not in block.data_refs:
                ok[index] = True
                words[index] = word
        # Longest abstractable run starting at each index, excluding the
        # terminator so block structure stays intact.
        run = 0
        runs = [0] * n
        for index in range(n - 2, -1, -1):
            run = run + 1 if ok[index] else 0
            runs[index] = run
        for start in range(n - 1):
            available = runs[start]
            for length in WINDOW_LENGTHS:
                if length <= available:
                    key = tuple(words[start : start + length])
                    table.setdefault(key, []).append(
                        (block.label, start, length)
                    )
    return table


def abstract_repeats(program: Program, rounds: int = 2) -> AbstractionStats:
    """Perform procedural abstraction on *program* in place."""
    stats = AbstractionStats()
    for _ in range(rounds):
        if not _one_round(program, stats):
            break
    return stats


def _one_round(program: Program, stats: AbstractionStats) -> bool:
    table = _collect_candidates(program)
    groups = [
        (key, occs)
        for key, occs in table.items()
        if len(occs) >= 2 and _savings(len(occs), len(key)) > 0
    ]
    groups.sort(
        key=lambda item: -_savings(len(item[1]), len(item[0]))
    )
    if not groups:
        return False

    used: dict[str, list[tuple[int, int]]] = {}
    rewrites: dict[str, list[tuple[int, int, str]]] = {}
    made_progress = False
    for key, occs in groups:
        length = len(key)
        chosen: list[tuple[str, int]] = []
        for label, start, _ in occs:
            spans = used.setdefault(label, [])
            if any(s < start + length and start < e for s, e in spans):
                continue
            chosen.append((label, start))
        if _savings(len(chosen), length) <= 0:
            continue
        for label, start in chosen:
            used[label].append((start, start + length))
        name = f"__abs{stats.fragments_abstracted}"
        first_label, first_start = chosen[0]
        _, block = program.find_block(first_label)
        body = list(block.instrs[first_start : first_start + length])
        helper = Function(name)
        helper.add_block(
            BasicBlock(
                f"{name}.entry",
                instrs=[
                    *body,
                    Instruction(Op.RET, ra=31, rb=ABSTRACT_LINK_REG),
                ],
            )
        )
        program.add_function(helper)
        for label, start in chosen:
            rewrites.setdefault(label, []).append((start, length, name))
        stats.fragments_abstracted += 1
        stats.occurrences_rewritten += len(chosen)
        stats.instrs_saved += _savings(len(chosen), length)
        made_progress = True

    for label, edits in rewrites.items():
        _, block = program.find_block(label)
        for start, length, name in sorted(edits, reverse=True):
            call = Instruction(Op.BSR, ra=ABSTRACT_LINK_REG, imm=0)
            block.instrs[start : start + length] = [call]
            block.call_targets = _shift(block.call_targets, start, length)
            block.call_targets[start] = name
            block.data_refs = _shift(block.data_refs, start, length)
    return made_progress


def _shift(index_map: dict[int, str], start: int, length: int) -> dict[int, str]:
    """Remap index-keyed metadata after splicing [start, start+length)
    down to a single instruction."""
    shifted: dict[int, str] = {}
    for index, value in index_map.items():
        if index < start:
            shifted[index] = value
        elif index >= start + length:
            shifted[index - length + 1] = value
    return shifted
