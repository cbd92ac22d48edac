"""The synthetic program generator.

Programs have the shape of the paper's embedded benchmarks: a hot
dispatch loop reading work items, a few hot kernels that account for
almost all execution, a ladder of rarely-executed handlers (peeled off
one by one as θ grows), never-executed feature handlers (error paths,
switches, indirect calls, recursion, longjmp), and bulk cold "filler"
features.  For `squeeze` to earn Table 1's Input→Squeeze reduction, the
generator also plants no-ops, dead stores, duplicated fragments
(carried in triplicated "carrier" functions) and unreachable functions,
in calibrated amounts.

Item encoding: ``item = kind + n_kinds * payload`` with
``payload < 2**20`` -- handlers use the payload bound to build
provably-never-taken error branches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.isa.instruction import Instruction
from repro.isa.opcodes import AluOp, Op, REG_ZERO, SysOp
from repro.program.data import DataObject
from repro.program.program import Program
from repro.squeeze.pipeline import SqueezeStats, squeeze
from repro.workloads.builder import (
    A0,
    A1,
    BlockBuilder,
    FunctionBuilder,
    RA,
    V0,
)
from repro.workloads.spec import KindPlan, WorkloadSpec

#: Shared global state: slot 0 = accumulator, slot 1 = error count,
#: slots 2.. = scratch.
GLOBALS = "G"
GLOBALS_WORDS = 64
JMPBUF = "JB"
FPTAB = "FPTAB"
#: Payloads are below 2**20; error branches test against this bound.
PAYLOAD_BITS = 20
#: Register written by planted dead stores, never read by real code.
DEAD_REG = 8
#: Temps used by generated straight-line code.
_TEMPS = (1, 2, 3, 4, 5, 6)
#: Dup-carrier fragment length (matches a fingerprinted window size).
_DUP_LEN = 16
_DUP_COPIES = 3

_ALU_OPS = (
    AluOp.ADD,
    AluOp.SUB,
    AluOp.MUL,
    AluOp.XOR,
    AluOp.OR,
    AluOp.AND,
    AluOp.SLL,
    AluOp.SRL,
    AluOp.SRA,
    AluOp.CMPEQ,
    AluOp.CMPULT,
)


@dataclass
class GeneratedWorkload:
    """A generated program plus the facts inputs need."""

    spec: WorkloadSpec
    program: Program
    plan: KindPlan
    handler_of_kind: dict[int, str] = field(default_factory=dict)
    #: Number of kinds items are reduced modulo.
    n_kinds: int = 0
    #: ``squeeze(program)`` as the calibration loop computed it, when
    #: the loop converged on this program; None otherwise.  Lets a
    #: caller skip squeezing the same program again.
    squeezed: tuple[Program, SqueezeStats] | None = field(
        default=None, repr=False, compare=False
    )


def _alu_run(
    bb: BlockBuilder,
    rng: random.Random,
    count: int,
    seed_reg: int,
) -> int:
    """Emit *count* chained ALU ops starting from *seed_reg*; returns
    the register holding the final value.  Every op feeds the next, so
    none is dead once the result is consumed."""
    prev = seed_reg
    out = prev
    for index in range(count):
        out = _TEMPS[index % len(_TEMPS)]
        op = rng.choice(_ALU_OPS)
        if rng.random() < 0.55:
            bb.ri(op, prev, rng.randrange(1, 256), out)
        else:
            other = _TEMPS[(index + 3) % len(_TEMPS)]
            if other == prev:
                other = _TEMPS[(index + 2) % len(_TEMPS)]
            bb.ri(AluOp.ADD, REG_ZERO, rng.randrange(1, 256), other)
            bb.rr(op, prev, other, out)
        prev = out
    return out


def _exact_alu_run(
    bb: BlockBuilder,
    rng: random.Random,
    count: int,
    seed_reg: int,
) -> int:
    """Like :func:`_alu_run` but emits exactly *count* instructions."""
    prev = seed_reg
    out = prev
    for index in range(count):
        out = _TEMPS[index % len(_TEMPS)]
        bb.ri(rng.choice(_ALU_OPS), prev, rng.randrange(1, 256), out)
        prev = out
    return out


def _store_result(
    bb: BlockBuilder, rng: random.Random, reg: int
) -> None:
    """Consume *reg* by folding it into a scratch global."""
    slot = rng.randrange(2, GLOBALS_WORDS)
    temp = 7
    bb.load_addr(temp, GLOBALS)
    bb.emit(Instruction(Op.LDW, ra=4 if reg != 4 else 5, rb=temp, imm=slot))
    other = 4 if reg != 4 else 5
    bb.rr(AluOp.XOR, reg, other, other)
    bb.emit(Instruction(Op.STW, ra=other, rb=temp, imm=slot))


class _HandlerWriter:
    """Stanza-level writer for one handler function."""

    def __init__(
        self,
        program: Program,
        name: str,
        rng: random.Random,
        frame: int = 2,
    ):
        self.program = program
        self.fb = FunctionBuilder(program, name)
        self.rng = rng
        self.frame = frame
        self._counter = 0
        self.current = self.fb.block("entry")
        self.current.push_frame(frame)
        self.current.store_stack(RA, 0)
        self.current.store_stack(A0, 1)

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def next_block(self, suffix: str | None = None) -> BlockBuilder:
        """Close the current block (falling through) and open another."""
        label_suffix = suffix or self._fresh("s")
        label = self.fb.label(label_suffix)
        if self.current.fallthrough is None and (
            self.current.branch_target is None
        ):
            self.current.fall(label)
        self.current = self.fb.block(label_suffix)
        return self.current

    # -- stanzas ---------------------------------------------------------

    def alu_stanza(self, count: int | None = None) -> None:
        count = count or self.rng.randrange(4, 10)
        self.current.load_stack(_TEMPS[0], 1)
        out = _alu_run(self.current, self.rng, count, _TEMPS[0])
        _store_result(self.current, self.rng, out)

    def diamond_stanza(self) -> None:
        """A conditional skip over a side computation."""
        rng = self.rng
        skip = self._fresh("d")
        side = self._fresh("e")
        self.current.load_stack(_TEMPS[0], 1)
        self.current.ri(
            AluOp.SRL, _TEMPS[0], rng.randrange(0, PAYLOAD_BITS), _TEMPS[1]
        )
        op = Op.BLBS if rng.random() < 0.5 else Op.BLBC
        self.current.emit(Instruction(op, ra=_TEMPS[1], imm=0))
        self.current.branch_target = self.fb.label(skip)
        self.current.fallthrough = self.fb.label(side)
        self.current = self.fb.block(side)
        out = _alu_run(self.current, rng, rng.randrange(3, 7), _TEMPS[1])
        _store_result(self.current, rng, out)
        self.current.fall(self.fb.label(skip))
        self.current = self.fb.block(skip)

    def call_stanza(self, callee: str, pass_payload: bool = True) -> None:
        if pass_payload:
            self.current.load_stack(A0, 1)
            self.current.ri(
                AluOp.XOR, A0, self.rng.randrange(1, 256), A0
            )
        self.current.call(callee)
        self.current.rr(AluOp.ADD, V0, REG_ZERO, _TEMPS[2])
        _store_result(self.current, self.rng, _TEMPS[2])

    def error_stanza(self, error_fn: str) -> None:
        """A provably-never-taken check guarding an error call."""
        err = self._fresh("err")
        cont = self._fresh("c")
        # r4 = 1 << PAYLOAD_BITS; payload < r4 always, so r4 <= payload
        # is always false.
        self.current.emit(
            Instruction(Op.LDAH, ra=4, rb=REG_ZERO, imm=1 << (PAYLOAD_BITS - 16))
        )
        self.current.load_stack(5, 1)
        self.current.rr(AluOp.CMPULE, 4, 5, 6)
        self.current.emit(Instruction(Op.BNE, ra=6, imm=0))
        self.current.branch_target = self.fb.label(err)
        self.current.fallthrough = self.fb.label(cont)
        error_block = self.fb.block(err)
        error_block.li(self.rng.randrange(0, 100), A0)
        error_block.call(error_fn)
        error_block.jump(self.fb.label(cont))
        self.current = self.fb.block(cont)

    def switch_stanza(
        self, n_cases: int, table_name: str, extent_known: bool = True
    ) -> None:
        cont = self._fresh("sw")
        case_labels = [self._fresh("case") for _ in range(n_cases)]
        self.current.load_stack(_TEMPS[0], 1)
        self.current.ri(AluOp.AND, _TEMPS[0], n_cases - 1, _TEMPS[0])
        self.current.table_jump(
            _TEMPS[0], _TEMPS[3], table_name, extent_known
        )
        table = DataObject(
            table_name,
            words=[0] * n_cases,
            relocs={
                index: self.fb.label(case_labels[index])
                for index in range(n_cases)
            },
            is_jump_table=True,
        )
        self.program.add_data(table)
        for case in case_labels:
            block = self.fb.block(case)
            out = _alu_run(block, self.rng, self.rng.randrange(2, 6), _TEMPS[0])
            _store_result(block, self.rng, out)
            block.jump(self.fb.label(cont))
        self.current = self.fb.block(cont)

    def fptr_stanza(self, n_targets: int) -> None:
        self.current.load_stack(_TEMPS[0], 1)
        self.current.ri(AluOp.AND, _TEMPS[0], n_targets - 1, _TEMPS[0])
        self.current.load_addr(_TEMPS[3], FPTAB)
        self.current.rr(AluOp.ADD, _TEMPS[3], _TEMPS[0], _TEMPS[3])
        self.current.emit(
            Instruction(Op.LDW, ra=_TEMPS[3], rb=_TEMPS[3], imm=0)
        )
        self.current.load_stack(A0, 1)
        self.current.call_indirect(_TEMPS[3])
        self.current.rr(AluOp.ADD, V0, REG_ZERO, _TEMPS[2])
        _store_result(self.current, self.rng, _TEMPS[2])

    def longjmp_stanza(self) -> None:
        lj = self._fresh("lj")
        cont = self._fresh("c")
        self.current.load_stack(_TEMPS[0], 1)
        self.current.ri(AluOp.AND, _TEMPS[0], 0xFF, _TEMPS[0])
        self.current.ri(AluOp.CMPEQ, _TEMPS[0], 0x5A, _TEMPS[1])
        self.current.emit(Instruction(Op.BNE, ra=_TEMPS[1], imm=0))
        self.current.branch_target = self.fb.label(lj)
        self.current.fallthrough = self.fb.label(cont)
        block = self.fb.block(lj)
        block.load_addr(A0, JMPBUF)
        block.ri(AluOp.ADD, REG_ZERO, 1, A1)
        block.syscall(SysOp.LONGJMP)
        self.current = self.fb.block(cont)

    def recursion_stanza(self, rec_fn: str) -> None:
        self.current.load_stack(A0, 1)
        self.current.ri(AluOp.AND, A0, 7, A0)
        self.current.call(rec_fn)
        self.current.rr(AluOp.ADD, V0, REG_ZERO, _TEMPS[2])
        _store_result(self.current, self.rng, _TEMPS[2])

    def finish(self) -> None:
        if not self.current.instrs:
            # keep the block non-empty (a diamond/error continuation may
            # be the last stanza); the store keeps liveness honest.
            self.current.load_stack(_TEMPS[0], 1)
            _store_result(self.current, self.rng, _TEMPS[0])
        epi = self.next_block("epi")
        epi.rr(AluOp.ADD, _TEMPS[1], REG_ZERO, V0)
        epi.load_stack(RA, 0)
        epi.pop_frame(self.frame)
        epi.ret()
        self.fb.seal()


def build_workload(
    spec: WorkloadSpec,
    filler_budget: int | None = None,
    calibrate: bool = True,
) -> GeneratedWorkload:
    """Generate the program for *spec*.

    When *calibrate* is true (and no explicit filler budget is given),
    the generator builds once with an estimate, measures the actual
    `squeeze` output, and rebuilds with a corrected filler budget so
    the squeezed size lands on the Table 1 target.  When that loop
    converges, the returned workload carries its last squeeze in
    :attr:`GeneratedWorkload.squeezed`.
    """
    if filler_budget is not None or not calibrate:
        budget = filler_budget if filler_budget is not None else 0
        return _build_once(spec, budget)

    estimate = int(spec.target_squeeze_size * 0.9)
    workload = _build_once(spec, estimate)
    for _ in range(3):
        squeezed, stats = squeeze(workload.program)
        delta = spec.target_squeeze_size - squeezed.code_size
        if abs(delta) <= max(8, spec.target_squeeze_size // 500):
            workload.squeezed = (squeezed, stats)
            break
        estimate += delta
        workload = _build_once(spec, max(0, estimate))
    return workload


def _build_once(spec: WorkloadSpec, filler_budget: int) -> GeneratedWorkload:
    rng = random.Random(spec.seed)
    plan = KindPlan.from_spec(spec)
    program = Program(spec.name)

    program.add_data(DataObject(GLOBALS, words=[0] * GLOBALS_WORDS))
    if spec.use_setjmp:
        program.add_data(DataObject(JMPBUF, words=[0] * 4))

    error_fn = _build_error_fn(program)
    utilities, leaf_utilities = _build_utilities(program, spec, rng)
    if spec.use_fptr:
        targets = rng.sample(
            leaf_utilities, k=min(4, len(leaf_utilities))
        )
        # power-of-two table for cheap masking
        while len(targets) not in (1, 2, 4):
            targets.pop()
        program.add_data(
            DataObject(
                FPTAB,
                words=[0] * len(targets),
                relocs={i: name for i, name in enumerate(targets)},
            )
        )
        program.address_taken.update(targets)
        n_fptr = len(targets)
    else:
        n_fptr = 0

    helpers = _build_helpers(program, spec, rng, utilities)
    hot = [
        _build_hot_kernel(program, index, rng)
        for index in range(spec.n_hot)
    ]

    rec_fn = _build_recursive(program, rng) if spec.use_recursion else None

    handler_of_kind: dict[int, str] = {}
    for position, kind in enumerate(plan.hot_kinds):
        handler_of_kind[kind] = hot[position]

    for position, kind in enumerate(plan.ladder_kinds):
        name = f"lad{position}"
        size = max(
            12,
            int(
                spec.ladder_size_fracs[position]
                * spec.target_squeeze_size
            ),
        )
        _build_cold_handler(
            program, name, rng, spec, error_fn, utilities, helpers,
            size_hint=size, features=(),
            rec_fn=rec_fn, n_fptr=n_fptr,
        )
        handler_of_kind[kind] = name

    for position, kind in enumerate(plan.timing_only_kinds):
        name = f"ton{position}"
        _build_cold_handler(
            program, name, rng, spec, error_fn, utilities, helpers,
            size_hint=rng.randrange(50, 90), features=(),
            rec_fn=rec_fn, n_fptr=n_fptr,
        )
        handler_of_kind[kind] = name

    feature_cycle = _feature_assignment(spec)
    menu_kind = plan.never_kinds[-1]
    for position, kind in enumerate(plan.never_kinds):
        if kind == menu_kind:
            handler_of_kind[kind] = "menu"
            continue
        name = f"nev{position}"
        _build_cold_handler(
            program, name, rng, spec, error_fn, utilities, helpers,
            size_hint=rng.randrange(70, 140),
            features=feature_cycle[position % len(feature_cycle)],
            rec_fn=rec_fn, n_fptr=n_fptr,
        )
        handler_of_kind[kind] = name

    _build_main(program, spec, plan, handler_of_kind, rng)
    program.entry = "main"

    # -- filler to hit the squeeze target ---------------------------------
    menu_callees: list[str] = []
    filler_left = max(0, filler_budget - program.code_size)
    index = 0
    while filler_left > 40:
        size = min(filler_left - 10, rng.randrange(90, 220))
        name = f"fill{index}"
        _build_cold_handler(
            program, name, rng, spec, error_fn, utilities, helpers,
            size_hint=size, features=(), rec_fn=rec_fn, n_fptr=n_fptr,
        )
        menu_callees.append(name)
        filler_left = filler_budget - program.code_size - 4 * len(
            menu_callees
        )
        index += 1

    # -- junk for squeeze to reclaim ----------------------------------------
    junk = max(0, spec.target_input_size - spec.target_squeeze_size)
    n_dup_groups = max(0, round(junk * spec.junk_dup / 28))
    n_nops = round(junk * spec.junk_nops)
    n_dead = round(junk * spec.junk_dead)

    if n_dup_groups:
        fragments = [
            _dup_fragment(rng) for _ in range(n_dup_groups)
        ]
        for copy in range(_DUP_COPIES):
            name = f"carrier{copy}"
            fb = FunctionBuilder(program, name)
            block = fb.block("entry")
            block.push_frame(4)
            for fragment in fragments:
                for instr in fragment:
                    block.emit(instr)
            block.pop_frame(4)
            block.li(0, V0)
            block.ret()
            fb.seal()
            menu_callees.append(name)

    junk_instrs = n_nops + n_dead
    junk_index = 0
    while junk_instrs > 0:
        chunk = min(junk_instrs, 180)
        name = f"junk{junk_index}"
        fb = FunctionBuilder(program, name)
        block = fb.block("entry")
        for _ in range(chunk):
            if n_nops > 0 and (n_dead == 0 or rng.random() < 0.5):
                block.nop()
                n_nops -= 1
            else:
                block.ri(
                    rng.choice(_ALU_OPS), A0, rng.randrange(1, 256), DEAD_REG
                )
                n_dead -= 1
        block.li(0, V0)
        block.ret()
        fb.seal()
        menu_callees.append(name)
        junk_instrs = n_nops + n_dead
        junk_index += 1

    _build_menu(program, menu_callees, rng)

    # -- unreachable functions: pad the input size exactly -----------------
    pad = spec.target_input_size - program.code_size
    unreach_index = 0
    while pad > 4:
        chunk = min(pad - 2, 240)
        name = f"unreach{unreach_index}"
        fb = FunctionBuilder(program, name)
        block = fb.block("entry")
        out = _exact_alu_run(block, rng, chunk - 2, A0)
        block.rr(AluOp.ADD, out, REG_ZERO, V0)
        block.ret()
        fb.seal()
        pad = spec.target_input_size - program.code_size
        unreach_index += 1

    program.validate()
    return GeneratedWorkload(
        spec=spec,
        program=program,
        plan=plan,
        handler_of_kind=handler_of_kind,
        n_kinds=plan.n_kinds,
    )


def _feature_assignment(spec: WorkloadSpec) -> list[tuple[str, ...]]:
    features: list[tuple[str, ...]] = []
    if spec.cold_jump_table:
        features.append(("switch",))
    if spec.unknown_table:
        features.append(("unknown_switch",))
    if spec.use_fptr:
        features.append(("fptr",))
    if spec.use_recursion:
        features.append(("recursion",))
    if spec.use_setjmp:
        features.append(("longjmp",))
    features.append(())
    return features


def _dup_fragment(rng: random.Random) -> list[Instruction]:
    """A 16-instruction position-independent fragment (duplicated in
    every carrier; procedural abstraction collapses the copies).

    The fragment ends in a stack-relative store so that liveness cannot
    kill it."""
    bb = BlockBuilder("tmp")
    out = _exact_alu_run(bb, rng, _DUP_LEN - 1, A0)
    bb.emit(Instruction(Op.STW, ra=out, rb=30, imm=rng.randrange(0, 4)))
    assert len(bb.instrs) == _DUP_LEN
    return bb.instrs


def _build_error_fn(program: Program) -> str:
    fb = FunctionBuilder(program, "error")
    block = fb.block("entry")
    block.syscall(SysOp.WRITE)
    block.li(99, A0)
    block.syscall(SysOp.EXIT)
    fb.seal()
    return "error"


def _build_utilities(
    program: Program, spec: WorkloadSpec, rng: random.Random
) -> tuple[list[str], list[str]]:
    """Shared utility functions; leaves are buffer-safe candidates."""
    names: list[str] = []
    leaves: list[str] = []
    n_leaf = max(1, round(spec.n_utilities * spec.leaf_utility_bias))
    for index in range(spec.n_utilities):
        name = f"util{index}"
        fb = FunctionBuilder(program, name)
        if index < n_leaf:
            block = fb.block("entry")
            out = _alu_run(block, rng, rng.randrange(4, 9), A0)
            block.rr(AluOp.ADD, out, REG_ZERO, V0)
            block.ret()
            leaves.append(name)
        else:
            block = fb.block("entry")
            block.push_frame(1)
            block.store_stack(RA, 0)
            out = _alu_run(block, rng, rng.randrange(2, 5), A0)
            block.rr(AluOp.ADD, out, REG_ZERO, A0)
            callee = rng.choice(leaves) if leaves else None
            if callee:
                block.call(callee)
            out = _alu_run(block, rng, 2, V0)
            block.rr(AluOp.ADD, out, REG_ZERO, V0)
            block.load_stack(RA, 0)
            block.pop_frame(1)
            block.ret()
        fb.seal()
        names.append(name)
    return names, leaves


def _build_helpers(
    program: Program,
    spec: WorkloadSpec,
    rng: random.Random,
    utilities: list[str],
) -> list[str]:
    """Cold mid-level helpers: handler -> helper -> utility call depth."""
    names = []
    for index in range(4):
        name = f"helper{index}"
        writer = _HandlerWriter(program, name, rng)
        writer.alu_stanza(rng.randrange(3, 7))
        writer.call_stanza(rng.choice(utilities))
        writer.alu_stanza(rng.randrange(3, 6))
        writer.finish()
        names.append(name)
    return names


def _build_hot_kernel(
    program: Program, index: int, rng: random.Random
) -> str:
    name = f"hot{index}"
    fb = FunctionBuilder(program, name)
    entry = fb.block("entry")
    entry.ri(AluOp.AND, A0, 15, 1)
    entry.ri(AluOp.ADD, 1, 1, 1)
    entry.load_addr(5, GLOBALS)
    entry.fall(fb.label("loop"))
    loop = fb.block("loop")
    slot = rng.randrange(2, 8)
    loop.emit(Instruction(Op.LDW, ra=2, rb=5, imm=slot))
    loop.ri(AluOp.MUL, 2, rng.randrange(3, 200) | 1, 2)
    loop.ri(AluOp.XOR, 2, rng.randrange(1, 256), 2)
    loop.ri(AluOp.ADD, 2, rng.randrange(1, 256), 2)
    loop.emit(Instruction(Op.STW, ra=2, rb=5, imm=slot))
    loop.ri(AluOp.SUB, 1, 1, 1)
    loop.branch(Op.BGT, 1, fb.label("loop"), fb.label("out"))
    out = fb.block("out")
    out.rr(AluOp.ADD, 2, REG_ZERO, V0)
    out.ret()
    fb.seal()
    return name


def _build_recursive(program: Program, rng: random.Random) -> str:
    name = "rec"
    fb = FunctionBuilder(program, name)
    entry = fb.block("entry")
    entry.branch(Op.BLE, A0, fb.label("base"), fb.label("body"))
    body = fb.block("body")
    body.push_frame(2)
    body.store_stack(RA, 0)
    body.store_stack(A0, 1)
    body.ri(AluOp.SUB, A0, 1, A0)
    body.call(name)
    body.load_stack(1, 1)
    body.rr(AluOp.ADD, V0, 1, V0)
    body.load_stack(RA, 0)
    body.pop_frame(2)
    body.ret()
    base = fb.block("base")
    base.li(1, V0)
    base.ret()
    fb.seal()
    return name


def _build_cold_handler(
    program: Program,
    name: str,
    rng: random.Random,
    spec: WorkloadSpec,
    error_fn: str,
    utilities: list[str],
    helpers: list[str],
    size_hint: int,
    features: tuple[str, ...],
    rec_fn: str | None,
    n_fptr: int,
) -> str:
    writer = _HandlerWriter(program, name, rng)
    for feature in features:
        if feature == "switch":
            writer.switch_stanza(
                rng.choice((4, 8)), f"{name}_jt", extent_known=True
            )
        elif feature == "unknown_switch":
            writer.switch_stanza(4, f"{name}_jt", extent_known=False)
        elif feature == "fptr" and n_fptr:
            writer.fptr_stanza(n_fptr)
        elif feature == "recursion" and rec_fn:
            writer.recursion_stanza(rec_fn)
        elif feature == "longjmp" and spec.use_setjmp:
            writer.longjmp_stanza()
    while writer.fb.size < size_hint:
        roll = rng.random()
        if roll < 0.45:
            writer.alu_stanza()
        elif roll < 0.65:
            writer.diamond_stanza()
        elif roll < 0.80:
            writer.call_stanza(rng.choice(utilities + helpers))
        elif roll < 0.92:
            writer.error_stanza(error_fn)
        else:
            writer.alu_stanza(rng.randrange(6, 12))
    writer.finish()
    return name


def _build_menu(
    program: Program, callees: list[str], rng: random.Random
) -> None:
    """The never-executed menu handler: dispatches its payload over
    every filler/carrier/junk function through a compare chain."""
    fb = FunctionBuilder(program, "menu")
    entry = fb.block("entry")
    entry.push_frame(2)
    entry.store_stack(RA, 0)
    entry.store_stack(A0, 1)
    next_label = fb.label("c0") if callees else fb.label("epi")
    entry.fall(next_label)
    for index, callee in enumerate(callees):
        block = fb.block(f"c{index}")
        selector_bits = max(1, (len(callees)).bit_length())
        block.load_stack(1, 1)
        block.ri(AluOp.SRL, 1, 4, 1)
        block.ri(
            AluOp.AND, 1, (1 << min(8, selector_bits)) - 1, 1
        )
        block.ri(AluOp.CMPEQ, 1, index & 0xFF, 2)
        call_label = fb.label(f"t{index}")
        next_label = (
            fb.label(f"c{index + 1}")
            if index + 1 < len(callees)
            else fb.label("epi")
        )
        block.branch(Op.BNE, 2, call_label, next_label)
        tramp = fb.block(f"t{index}")
        tramp.load_stack(A0, 1)
        tramp.call(callee)
        tramp.jump(fb.label("epi"))
    epi = fb.block("epi")
    epi.li(0, V0)
    epi.load_stack(RA, 0)
    epi.pop_frame(2)
    epi.ret()
    fb.seal()


def _build_main(
    program: Program,
    spec: WorkloadSpec,
    plan: KindPlan,
    handler_of_kind: dict[int, str],
    rng: random.Random,
) -> None:
    fb = FunctionBuilder(program, "main")
    entry = fb.block("entry")
    entry.li(0, 1)
    entry.stg(1, GLOBALS, 0, 2)
    entry.stg(1, GLOBALS, 1, 2)
    if spec.use_setjmp:
        entry.fall(fb.label("sj"))
        sj = fb.block("sj")
        sj.load_addr(A0, JMPBUF)
        sj.syscall(SysOp.SETJMP)
        sj.branch(Op.BNE, V0, fb.label("sjerr"), fb.label("loop"))
        sjerr = fb.block("sjerr")
        sjerr.ldg(1, GLOBALS, 1)
        sjerr.ri(AluOp.ADD, 1, 1, 1)
        sjerr.stg(1, GLOBALS, 1, 2)
        sjerr.jump(fb.label("loop"))
    else:
        entry.fall(fb.label("loop"))

    loop = fb.block("loop")
    loop.syscall(SysOp.READ)
    loop.branch(Op.BEQ, 1, fb.label("fini"), fb.label("kind"))

    kind = fb.block("kind")
    n_kinds = plan.n_kinds
    kind.ri(AluOp.UREM, V0, n_kinds, 2)   # r2 = kind
    kind.ri(AluOp.UDIV, V0, n_kinds, 3)   # r3 = payload

    jt_n = min(n_kinds, spec.n_hot + 2) if spec.use_jump_table else 0
    if jt_n >= 2:
        kind.ri(AluOp.CMPULT, 2, jt_n, 4)
        kind.branch(Op.BEQ, 4, fb.label("chain0"), fb.label("jt"))
        jt = fb.block("jt")
        jt.table_jump(2, 4, "main_jt")
        program.add_data(
            DataObject(
                "main_jt",
                words=[0] * jt_n,
                relocs={
                    index: fb.label(f"go{index}") for index in range(jt_n)
                },
                is_jump_table=True,
            )
        )
        chain_kinds = list(range(jt_n, n_kinds))
    else:
        kind.fall(fb.label("chain0"))
        chain_kinds = list(range(n_kinds))

    if not chain_kinds:
        fallback = fb.block("chain0")
        fallback.jump(fb.label("loop"))

    for position, item_kind in enumerate(chain_kinds):
        block = fb.block(f"chain{position}")
        block.ri(AluOp.CMPEQ, 2, item_kind, 4)
        next_label = (
            fb.label(f"chain{position + 1}")
            if position + 1 < len(chain_kinds)
            else fb.label("loop")
        )
        block.branch(Op.BNE, 4, fb.label(f"go{item_kind}"), next_label)

    for item_kind in range(n_kinds):
        tramp = fb.block(f"go{item_kind}")
        tramp.rr(AluOp.ADD, 3, REG_ZERO, A0)
        tramp.call(handler_of_kind[item_kind])
        tramp.jump(fb.label("loop"))

    # Final checksum: fold every global slot so any divergence anywhere
    # in the run shows up in the output.
    fini = fb.block("fini")
    fini.li(0, 1)               # r1 = index
    fini.li(0, 2)               # r2 = checksum
    fini.load_addr(5, GLOBALS)
    fini.fall(fb.label("ck"))
    ck = fb.block("ck")
    ck.rr(AluOp.ADD, 5, 1, 4)
    ck.emit(Instruction(Op.LDW, ra=3, rb=4, imm=0))
    ck.ri(AluOp.MUL, 2, 31, 2)
    ck.rr(AluOp.XOR, 2, 3, 2)
    ck.ri(AluOp.ADD, 1, 1, 1)
    ck.ri(AluOp.CMPULT, 1, GLOBALS_WORDS, 4)
    ck.branch(Op.BNE, 4, fb.label("ck"), fb.label("out"))
    out = fb.block("out")
    out.rr(AluOp.ADD, 2, REG_ZERO, A0)
    out.syscall(SysOp.WRITE)
    out.ldg(A0, GLOBALS, 1)
    out.syscall(SysOp.WRITE)
    out.li(0, A0)
    out.syscall(SysOp.EXIT)
    fb.seal()
