"""Differential and property tests for the compile path's fast paths.

Each fast path is checked against the straightforward implementation
it replaced, kept here as the reference:

* table-driven ``encode`` and ``instruction_to_codec`` against packing
  through per-field range checks, for every opcode;
* construction as the single range check: an out-of-range field raises
  the same ``ValueError`` at construction and through
  ``dataclasses.replace``, so no invalid instruction reaches ``encode``;
* the per-call memos of dead-store elimination and procedural
  abstraction against the raw per-instruction answers;
* region packing with a block map and one largest-region figure per
  merge iteration against the per-pair scan.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.compress.streams import CodecInstr, instruction_to_codec
from repro.core.coldcode import identify_cold_blocks
from repro.core.costmodel import CostModel
from repro.core.regions import (
    Region,
    RegionContext,
    _expanded_size,
    entry_blocks,
    form_regions,
    pack_regions,
)
from repro.isa.encoding import decode, encode
from repro.isa.fields import (
    FIELD_WIDTHS,
    FieldKind,
    check_field,
    field_is_signed,
    to_bits,
)
from repro.isa.instruction import Instruction
from repro.isa.opcodes import FORMAT_FIELDS, OP_FORMAT, Op
from repro.program import BasicBlock, Function, Program
from repro.program.cfg import block_successors
from repro.squeeze import abstraction, deadcode

ATTRS = ("ra", "rb", "rc", "func", "imm")

# -- reference implementations -------------------------------------------------


def _ref_range(kind: FieldKind) -> tuple[int, int]:
    width = FIELD_WIDTHS[kind]
    if field_is_signed(kind):
        return -(1 << (width - 1)), (1 << (width - 1)) - 1
    return 0, (1 << width) - 1


def _ref_check_field(kind: FieldKind, value: int) -> int:
    lo, hi = _ref_range(kind)
    if not lo <= value <= hi:
        raise ValueError(
            f"{kind.name} value {value} out of range [{lo}, {hi}]"
        )
    return value


def _ref_to_bits(kind: FieldKind, value: int) -> int:
    _ref_check_field(kind, value)
    return value & ((1 << FIELD_WIDTHS[kind]) - 1)


def _ref_encode(instr: Instruction) -> int:
    word = int(instr.op)
    for kind, attr in FORMAT_FIELDS[instr.format]:
        value = 0 if attr is None else getattr(instr, attr)
        word = (word << FIELD_WIDTHS[kind]) | _ref_to_bits(kind, value)
    return word


def _ref_instruction_to_codec(instr: Instruction) -> CodecInstr:
    fields = []
    for kind, value in instr.fields():
        if kind is FieldKind.OPCODE or kind is FieldKind.SBZ:
            continue
        fields.append(_ref_to_bits(kind, value))
    return CodecInstr(opcode=int(instr.op), fields=tuple(fields))


def _ref_collect_candidates(program: Program) -> dict:
    table: dict = {}
    for _, block in program.all_blocks():
        n = len(block.instrs)
        words = [0] * n
        ok = [False] * n
        for index, instr in enumerate(block.instrs):
            ok[index] = (
                abstraction._instr_ok(instr) and index not in block.data_refs
            )
            if ok[index]:
                words[index] = _ref_encode(instr)
        run = 0
        runs = [0] * n
        for index in range(n - 2, -1, -1):
            run = run + 1 if ok[index] else 0
            runs[index] = run
        for start in range(n - 1):
            for length in abstraction.WINDOW_LENGTHS:
                if length <= runs[start]:
                    key = tuple(words[start : start + length])
                    table.setdefault(key, []).append(
                        (block.label, start, length)
                    )
    return table


def _ref_eliminate_dead_stores(program: Program) -> int:
    removed = 0
    for function in program.functions.values():
        labels = list(function.blocks)
        live_in = {label: frozenset() for label in labels}
        changed = True
        while changed:
            changed = False
            for label in reversed(labels):
                block = function.blocks[label]
                live = set(deadcode._block_live_out(
                    program, function, block, live_in
                ))
                for instr in reversed(block.instrs):
                    uses, defs = deadcode._instr_uses_defs(instr)
                    live -= defs
                    live |= uses
                if frozenset(live) != live_in[label]:
                    live_in[label] = frozenset(live)
                    changed = True
        for label in labels:
            block = function.blocks[label]
            live = set(deadcode._block_live_out(
                program, function, block, live_in
            ))
            kept = []
            for index in range(len(block.instrs) - 1, -1, -1):
                instr = block.instrs[index]
                uses, defs = deadcode._instr_uses_defs(instr)
                if (
                    deadcode._removable(instr)
                    and index != len(block.instrs) - 1
                    and instr.writes_reg is not None
                    and instr.writes_reg not in live
                ):
                    removed += 1
                    continue
                live -= defs
                live |= uses
                kept.append(index)
            kept.reverse()
            if len(kept) != len(block.instrs):
                block.rebuild(kept)
    return removed


def _ref_pack_regions(program, regions, cost, ctx) -> list[Region]:
    bound = cost.buffer_bound_instrs
    pool = {r.index: r for r in regions}
    owner = {label: r.index for r in regions for label in r.blocks}

    def current_max_expanded():
        return max(
            (_expanded_size(set(r.blocks), ctx) for r in pool.values()),
            default=0,
        )

    def merge_savings(a, b):
        a_set, b_set = set(a.blocks), set(b.blocks)
        both = a_set | b_set
        saved = -max(0, _expanded_size(both, ctx) - current_max_expanded())
        saved += 1
        before = len(entry_blocks(a_set, ctx)) + len(entry_blocks(b_set, ctx))
        saved += cost.entry_stub_words * (
            before - len(entry_blocks(both, ctx))
        )
        for src, dst in ((a, b_set), (b, a_set)):
            for label in src.blocks:
                _, block = ctx.program.find_block(label)
                for target in block.call_targets.values():
                    if ctx.entries[target] in dst:
                        saved += cost.restore_stub_words
        for src, dst in ((a, b_set), (b, a_set)):
            for label in src.blocks:
                _, block = ctx.program.find_block(label)
                if block.fallthrough in dst:
                    saved += 1
        return saved

    def adjacent_pairs():
        pairs = set()
        for region in pool.values():
            for label in region.blocks:
                _, block = ctx.program.find_block(label)
                neighbours = list(block_successors(ctx.program, block))
                neighbours.extend(
                    ctx.entries[t] for t in block.call_targets.values()
                )
                for succ in neighbours:
                    other = owner.get(succ)
                    if other is not None and other != region.index:
                        pairs.add(
                            (min(region.index, other), max(region.index, other))
                        )
        return pairs

    while True:
        best, best_gain = None, 0
        for ia, ib in adjacent_pairs():
            a, b = pool[ia], pool[ib]
            if _expanded_size(set(a.blocks) | set(b.blocks), ctx) > bound:
                continue
            gain = merge_savings(a, b)
            if gain > best_gain:
                best, best_gain = (ia, ib), gain
        if best is None:
            break
        ia, ib = best
        a, b = pool.pop(ia), pool.pop(ib)
        pool[ia] = Region(index=ia, blocks=a.blocks + b.blocks)
        for label in pool[ia].blocks:
            owner[label] = ia
    packed = sorted(pool.values(), key=lambda r: r.index)
    for new_index, region in enumerate(packed):
        region.index = new_index
    return packed


# -- strategies -----------------------------------------------------------------


@st.composite
def instructions(draw, ops=tuple(Op)):
    """A valid instruction of any opcode; attributes its format does not
    use get arbitrary small values (every encoder ignores them)."""
    op = draw(st.sampled_from(ops))
    kwargs = {}
    for kind, attr in FORMAT_FIELDS[OP_FORMAT[op]]:
        if attr is not None:
            lo, hi = _ref_range(kind)
            kwargs[attr] = draw(st.integers(lo, hi))
    for attr in ATTRS:
        if attr not in kwargs:
            kwargs[attr] = draw(st.integers(0, 31))
    return Instruction(op, **kwargs)


@st.composite
def out_of_range_fields(draw):
    """(opcode, field kind, attribute, a value the field cannot hold)."""
    op = draw(st.sampled_from(tuple(Op)))
    kind, attr = draw(st.sampled_from([
        (kind, attr) for kind, attr in FORMAT_FIELDS[OP_FORMAT[op]]
        if attr is not None
    ]))
    lo, hi = _ref_range(kind)
    bad = draw(st.one_of(
        st.integers(max_value=lo - 1), st.integers(min_value=hi + 1)
    ))
    return op, kind, attr, bad


def _normalised(instr: Instruction) -> Instruction:
    """*instr* with the attributes its format does not use at their
    defaults (what decoding its word gives back)."""
    used = {a for _, a in FORMAT_FIELDS[instr.format] if a is not None}
    return Instruction(instr.op, **{a: getattr(instr, a) for a in used})


# -- ISA and codec --------------------------------------------------------------


class TestTableDrivenEncoding:
    def test_every_opcode_is_drawn(self):
        assert {op for op in Op} == set(OP_FORMAT)

    @given(instructions())
    @settings(max_examples=400)
    def test_encode_equals_reference(self, instr):
        assert encode(instr) == _ref_encode(instr)

    @given(instructions())
    @settings(max_examples=400)
    def test_decode_of_encode_equals_reference(self, instr):
        assert decode(encode(instr)) == decode(_ref_encode(instr))
        assert decode(encode(instr)) == _normalised(instr)

    @given(instructions())
    @settings(max_examples=400)
    def test_instruction_to_codec_equals_reference(self, instr):
        if instr.op is Op.ILLEGAL:  # the sentinel has no codec fields
            with pytest.raises(ValueError):
                _ref_instruction_to_codec(instr)
            with pytest.raises(ValueError):
                instruction_to_codec(instr)
            return
        assert instruction_to_codec(instr) == _ref_instruction_to_codec(instr)

    @given(st.sampled_from(tuple(FieldKind)), st.integers(-(1 << 30), 1 << 30))
    def test_field_helpers_equal_reference(self, kind, value):
        try:
            expected = _ref_to_bits(kind, value)
        except ValueError as exc:
            for helper in (check_field, to_bits):
                with pytest.raises(ValueError) as err:
                    helper(kind, value)
                assert str(err.value) == str(exc)
            return
        assert check_field(kind, value) == value
        assert to_bits(kind, value) == expected


class TestValidatedOnce:
    @given(out_of_range_fields())
    @settings(max_examples=300)
    def test_construction_raises_reference_error(self, case):
        op, kind, attr, bad = case
        with pytest.raises(ValueError) as ref:
            _ref_check_field(kind, bad)
        with pytest.raises(ValueError) as err:
            Instruction(op, **{attr: bad})
        assert str(err.value) == str(ref.value)

    @given(out_of_range_fields())
    @settings(max_examples=300)
    def test_replace_raises_reference_error(self, case):
        op, kind, attr, bad = case
        valid = Instruction(op)
        with pytest.raises(ValueError) as ref:
            _ref_check_field(kind, bad)
        with pytest.raises(ValueError) as err:
            dataclasses.replace(valid, **{attr: bad})
        assert str(err.value) == str(ref.value)

    def test_error_text(self):
        with pytest.raises(
            ValueError, match=r"^BDISP value 1048576 out of range "
            r"\[-1048576, 1048575\]$"
        ):
            Instruction(Op.BR, imm=1 << 20)


# -- squeeze memos --------------------------------------------------------------


class TestSqueezeMemos:
    @given(st.lists(instructions(), max_size=40))
    @settings(max_examples=200)
    def test_liveness_facts_equal_raw(self, instrs):
        memo: dict = {}
        for instr in instrs + [dataclasses.replace(i) for i in instrs]:
            uses, defs, removable = deadcode._facts(instr, memo)
            assert (uses, defs) == deadcode._instr_uses_defs(instr)
            expected = instr.writes_reg if deadcode._removable(instr) else None
            assert removable == expected

    @given(
        st.lists(instructions(ops=tuple(o for o in Op if o is not Op.ILLEGAL)),
                 min_size=1, max_size=20),
        st.sets(st.integers(0, 80), max_size=6),
    )
    @settings(max_examples=150)
    def test_collect_candidates_equals_reference(self, instrs, refs):
        # Repeats make windows recur; copies make equal-but-distinct
        # instructions share memo entries.
        body = instrs * 3 + [dataclasses.replace(i) for i in instrs] * 2
        block = BasicBlock(
            "b", instrs=body + [Instruction(Op.SPC, imm=1)],
            data_refs={i: "d" for i in refs if i < len(body)},
        )
        function = Function("f")
        function.add_block(block)
        program = Program("p")
        program.add_function(function)
        new = abstraction._collect_candidates(program)
        assert list(new.items()) == list(
            _ref_collect_candidates(program).items()
        )

    def test_collect_candidates_on_generated_program(self, small_workload):
        program = small_workload.program
        new = abstraction._collect_candidates(program)
        assert new
        assert list(new.items()) == list(
            _ref_collect_candidates(program).items()
        )

    def test_dead_stores_equal_reference(self, small_workload):
        fast, ref = small_workload.program.copy(), small_workload.program.copy()
        stats = deadcode.eliminate_dead_stores(fast)
        assert stats.stores_removed == _ref_eliminate_dead_stores(ref) > 0
        assert [
            (b.label, b.instrs, b.call_targets, b.data_refs)
            for _, b in fast.all_blocks()
        ] == [
            (b.label, b.instrs, b.call_targets, b.data_refs)
            for _, b in ref.all_blocks()
        ]


# -- region packing -------------------------------------------------------------


@pytest.mark.parametrize("theta", [0.0, 1e-4, 1.0])
def test_pack_regions_equals_reference(theta):
    from repro.workloads.mediabench import mediabench_program

    bench = mediabench_program("adpcm", scale=0.2)
    program = bench.squeezed
    cost = CostModel()
    ctx = RegionContext.build(program)
    cold = identify_cold_blocks(bench.profile, theta).cold
    packed = pack_regions(
        program, form_regions(program, cold, cost, ctx), cost, ctx
    )
    reference = _ref_pack_regions(
        program, form_regions(program, cold, cost, ctx), cost, ctx
    )
    assert [(r.index, r.blocks) for r in packed] == [
        (r.index, r.blocks) for r in reference
    ]
