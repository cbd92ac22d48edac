"""The three benchmark workloads: compile, run-thrash and sweep.

Each workload has a serial ``setup`` that returns its state plus a
digest of every exact output, a ``prepare`` step run once after the
gated set-ups (it computes the references the oracle needs), a fixed
list of ops that make up one round, and ``run_op``, which times one op
and checks its result against an oracle.  An op that fails its check
returns an error instead of raising, so it is counted against the ops
attempted.

Every call into the program goes through a module or class attribute
(``core_pipeline.squash_program``, ``result.save``) so that the traced
run's wrappers see it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro.analysis import experiments
from repro.core import pipeline as core_pipeline
from repro.core import runtime as core_runtime
from repro.core import verify as core_verify
from repro.program.layout import layout
from repro.squeeze import pipeline as squeeze_pipeline
from repro.vm.machine import Machine
from repro.workloads import mediabench
from repro.workloads.inputs import make_input

#: The draw pool in strata of programs that cost and behave alike at
#: scale 0.3 (sweep cost per program, θ = 1.0 cycle ratio, compile and
#: run speed).  A draw takes one program from each stratum, so a seed
#: changes which programs run but not the mix of work.  adpcm, the
#: small program where fixed overheads bite hardest, compiles 20 %
#: faster per instruction than any other and is in every draw.  The
#: four largest programs (pgp, rasta, jpeg_dec, mpeg2enc) are left out
#: so that a run, with its repeated set-up, stays well inside the time
#: a full evaluation is given.
GROUPS = (
    (("adpcm",), 1),
    (("g721_dec", "g721_enc"), 1),
    (("epic", "gsm"), 1),
    (("jpeg_enc", "mpeg2dec"), 1),
)
#: Self-test draw: the two smallest programs.
SMOKE_PROGRAMS = ("adpcm", "g721_dec")
CODEC_VARIANTS = ("baseline", "ctx1")
MAX_STEPS = 500_000_000
SWEEP_WORKERS = 2
SWEEP_TIMEOUT_S = 150.0

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def draw_programs(seed: int, smoke: bool = False) -> tuple[str, ...]:
    """The programs *seed* picks from each of :data:`GROUPS`."""
    if smoke:
        return SMOKE_PROGRAMS
    rng = random.Random(seed)
    names = [name for group, k in GROUPS for name in rng.sample(group, k)]
    return tuple(sorted(names, key=mediabench.MEDIABENCH.index))


def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()
    ).hexdigest()


def file_digest(*paths) -> str:
    sha = hashlib.sha256()
    for path in paths:
        sha.update(pathlib.Path(path).read_bytes())
    return sha.hexdigest()


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


#: Seconds :func:`speed_probe` takes on the reference host that every
#: probed time is scaled to.
PROBE_REF_S = 0.015


def speed_probe() -> float:
    """Seconds for a fixed object-heavy pure-Python loop (dict build,
    sort, a small dispatch loop), the fastest of three.  It runs no
    program code.  It is recorded at the start and end of a run, so
    host drift can be told apart from a change, and taken around each
    probed set-up and op to scale their seconds: that cut the spread of
    10-op blocks from 18 % to 5 % on a shared 2-CPU host."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        for i in range(20_000):
            table[(i * 7919) % 100_003] = (i, str(i))
        total = 0
        for key in sorted(table):
            entry = table[key]
            total += entry[0] + len(entry[1])
        program = [(i % 5, i) for i in range(5_000)]
        acc = 0
        for _ in range(4):
            for op, arg in program:
                if op == 0:
                    acc += arg
                elif op == 1:
                    acc ^= arg
                elif op == 2:
                    acc = (acc * 3) & 0xFFFF
                elif op == 3:
                    acc -= arg
                else:
                    acc |= arg
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class OpResult:
    """One op: its timed seconds, the work it did in the workload's
    unit, the ratios it contributes to ``squashed_ratio``, base counts
    for per-layer metrics, and an error when its check failed."""

    seconds: float = 0.0
    work: int = 0
    ratios: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    error: str | None = None
    #: Reference host's speed over this host's speed around the op (1.0
    #: for an op that is not probed).
    host_factor: float = 1.0

    @property
    def ref_seconds(self) -> float:
        """The op's seconds scaled to the reference host's speed."""
        return self.seconds * self.host_factor


class OpClock:
    """Times one op; when tracing, the op is also the root span whose
    self time is reported as ``self_s.other``."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.enter("op", "other")
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._start
        if self.tracer is not None:
            self.tracer.exit()
        return False


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# -- compile -------------------------------------------------------------------


class Compile:
    """squeeze → squash → save → verified load → deep verify."""

    name = "compile"
    work_unit = "input instr"
    throughput_name = "compile_instr_per_s"

    def __init__(self, seed: int, scale: float, smoke: bool = False):
        self.names = draw_programs(seed, smoke)
        self.scale = scale
        self.seed = seed

    def setup(self, workdir: pathlib.Path):
        state = {}
        exact = []
        for name in self.names:
            bench = mediabench.mediabench_program(name, self.scale)
            state[name] = bench
            exact.append([
                name, bench.input_size, bench.squeeze_size,
                sorted(bench.profile.counts.items()),
                bench.profile.tot_instr_ct,
            ])
        return state, digest(exact)

    def prepare(self, state):
        return state

    def ops(self, state) -> list:
        ops = [
            (name, theta, variant)
            for name in self.names
            for theta in experiments.FIG7_THETAS
            for variant in CODEC_VARIANTS
        ]
        random.Random(self.seed ^ 0x0C0).shuffle(ops)
        return ops

    def run_op(self, state, op, workdir: pathlib.Path, tracer=None):
        name, theta, variant = op
        bench = state[name]
        prefix = workdir / f"{name}-{theta:g}-{variant}"
        config = core_pipeline.SquashConfig(
            theta=experiments.map_theta(theta), codec_variant=variant
        )
        out = OpResult()
        try:
            with OpClock(tracer) as clock:
                squeezed, _ = squeeze_pipeline.squeeze(bench.workload.program)
                result = core_pipeline.squash_program(
                    squeezed, bench.profile, config
                )
                result.save(prefix)
                loaded = core_pipeline.load_squashed(prefix, verify=True)
                report = core_verify.verify_squashed(prefix, deep=True)
        except Exception as exc:  # a failed op, not a failed run
            out.error = _failure(exc)
            return out
        out.seconds = clock.seconds
        if squeezed.code_size != bench.squeeze_size:
            out.error = (
                f"squeezed {squeezed.code_size} instrs; set-up squeezed "
                f"{bench.squeeze_size}"
            )
        elif not report.ok:
            out.error = f"deep verify: {report.fault.error_type}"
        elif (
            loaded.image.memory != result.image.memory
            or loaded.image.base != result.image.base
            or loaded.image.entry_pc != result.image.entry_pc
        ):
            out.error = "loaded image words differ from the squash result"
        if out.error:
            return out
        blob = result.info.blob
        out.work = bench.input_size
        out.ratios = [result.footprint.total / result.baseline_words]
        out.counts = {
            "input_instrs": bench.input_size,
            "footprint_words": result.footprint.total,
            "baseline_words": result.baseline_words,
            "stream_bits": blob.stream_bits if blob is not None else 0,
            "compressed_instrs": result.info.compressed_original_instrs,
            "image_bytes": sum(
                os.path.getsize(f"{prefix}{suffix}")
                for suffix in (".img", ".json")
            ),
        }
        return out


# -- run-thrash ----------------------------------------------------------------


@dataclass
class SavedImage:
    name: str
    variant: str
    prefix: str
    timing_input: list
    ref_output: list
    ref_exit: int
    ref_cycles: int
    base_cycles: int


class RunThrash:
    """Load (verified) and run a θ = 1.0 image: hot code is compressed,
    so the runtime decompresses all the time."""

    name = "run-thrash"
    work_unit = "guest instr"
    throughput_name = "run_instr_per_s"

    def __init__(self, seed: int, scale: float, smoke: bool = False):
        self.names = draw_programs(seed, smoke)
        self.scale = scale
        self.seed = seed
        # Offsets 0 and 1 are the repo's own profiling and timing inputs.
        self.seed_offset = 2 + seed % 1_000_003

    def setup(self, workdir: pathlib.Path):
        built = []
        exact = []
        for name in self.names:
            bench = mediabench.mediabench_program(name, self.scale)
            for variant in CODEC_VARIANTS:
                result = core_pipeline.squash_program(
                    bench.squeezed, bench.profile,
                    core_pipeline.SquashConfig(
                        theta=1.0, codec_variant=variant
                    ),
                )
                prefix = workdir / f"{name}-{variant}"
                result.save(prefix)
                built.append((bench, variant, result, str(prefix)))
                exact.append([
                    name, variant, bench.input_size, bench.squeeze_size,
                    file_digest(f"{prefix}.img", f"{prefix}.json"),
                ])
        return built, digest(exact)

    def prepare(self, built) -> list:
        """The references, computed once after the gated set-ups: the
        unsqueezed program's output and exit code and the squeezed
        baseline's cycles on the seeded timing input, and each image's
        cycles from an in-memory run of its squash result."""
        images = []
        refs = {}
        for bench, variant, result, prefix in built:
            if bench.name not in refs:
                timing = make_input(
                    bench.workload, "timing", seed_offset=self.seed_offset
                )
                unsqueezed = layout(bench.workload.program).image
                ref = Machine(unsqueezed, input_words=timing).run(MAX_STEPS)
                base = Machine(bench.layout.image, input_words=timing).run(
                    MAX_STEPS
                )
                if (base.output, base.exit_code) != (
                    ref.output, ref.exit_code
                ):
                    raise SetupError(f"{bench.name}: squeezed output diverged")
                refs[bench.name] = (timing, ref, base)
            timing, ref, base = refs[bench.name]
            run, _ = result.run(timing, max_steps=MAX_STEPS)
            if (run.output, run.exit_code) != (ref.output, ref.exit_code):
                raise SetupError(
                    f"{bench.name}/{variant}: squashed output diverged"
                )
            images.append(SavedImage(
                bench.name, variant, prefix, timing, list(ref.output),
                ref.exit_code, run.cycles, base.cycles,
            ))
        return images

    def ops(self, state) -> list:
        ops = list(range(len(state)))
        random.Random(self.seed ^ 0x7A5).shuffle(ops)
        return ops

    def run_op(self, state, op, workdir: pathlib.Path, tracer=None):
        image = state[op]
        label = f"{image.name}/{image.variant}"
        out = OpResult()
        try:
            with OpClock(tracer) as clock:
                loaded = core_pipeline.load_squashed(image.prefix, verify=True)
                machine, runtime = loaded.make_machine(image.timing_input)
                run = machine.run(max_steps=MAX_STEPS)
        except Exception as exc:  # a failed op, not a failed run
            out.error = f"{label}: {_failure(exc)}"
            return out
        out.seconds = clock.seconds
        if run.output != image.ref_output or run.exit_code != image.ref_exit:
            out.error = (
                f"{label}: output or exit code differs from the unsqueezed "
                "program"
            )
        elif run.cycles != image.ref_cycles:
            out.error = (
                f"{label}: {run.cycles} cycles; the reference run took "
                f"{image.ref_cycles}"
            )
        if out.error:
            return out
        stats = runtime.stats
        cache = core_runtime.region_decode_cache_info()
        out.work = run.steps
        out.ratios = [run.cycles / image.base_cycles]
        out.counts = {
            "steps": run.steps,
            "cycles": run.cycles,
            "base_cycles": image.base_cycles,
            "decompressions": stats.decompressions,
            "buffer_hits": stats.buffer_hits,
            "instrs_materialised": stats.instrs_materialised,
            "decomp_cycles": stats.decomp_cycles,
            "decode_cache_hits": cache["hits"],
            "decode_cache_misses": cache["misses"],
        }
        return out


# -- sweep ---------------------------------------------------------------------


def child_env(**extra) -> dict:
    """The sweep child's environment: no inherited ``REPRO_*`` knob,
    the checkout's ``src`` on the path."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(extra)
    return env


def run_child(cmd: list, env: dict, timeout: float) -> tuple[int, str, str]:
    """Run *cmd* in its own process group; on timeout kill the whole
    group (the child's pool workers too) and wait for it."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=ROOT, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        stdout, stderr = proc.communicate()
        return -9, stdout, stderr + "\ntimed out"
    return proc.returncode, stdout, stderr


class Sweep:
    """A cold parallel ``repro fig7b``-style sweep in a fresh process."""

    name = "sweep"
    work_unit = "cell"
    throughput_name = "sweep_cells_per_s"
    #: Ops run in child processes: peak RSS is read from them.
    ops_in_child = True

    def __init__(self, seed: int, scale: float, smoke: bool = False):
        self.names = draw_programs(seed, smoke)
        self.scale = scale
        self.seed = seed

    def setup(self, workdir: pathlib.Path):
        exact = []
        for name in self.names:
            bench = mediabench.mediabench_program(name, self.scale)
            exact.append([name, bench.input_size, bench.squeeze_size])
        return None, digest(exact)

    def prepare(self, state):
        """The oracle, computed once after the gated set-ups: the serial
        ``fig7_time_rows`` for the same programs (they are still
        memoised from the last set-up)."""
        rows = experiments.fig7_time_rows(
            names=self.names, scale=self.scale
        )
        return [
            [row.name, row.theta_paper, row.theta_ours,
             repr(row.relative_time)]
            for row in rows
        ]

    def ops(self, state) -> list:
        # One op sweeps the whole draw (12 cells); a round runs it twice
        # so that a run measures about as long as the other workloads.
        return [self.names, self.names]

    def run_op(self, state, op, workdir: pathlib.Path, tracer=None):
        cache = workdir / "sweep-cache"
        shutil.rmtree(cache, ignore_errors=True)
        cmd = [
            sys.executable, str(HERE / "sweep_child.py"),
            "--names", ",".join(op), "--scale", str(self.scale),
            "--trace", "1" if tracer is not None else "0",
        ]
        env = child_env(
            REPRO_CACHE_DIR=str(cache),
            REPRO_BENCH_WORKERS=str(SWEEP_WORKERS),
        )
        out = OpResult()
        with OpClock(tracer) as clock:
            code, stdout, stderr = run_child(cmd, env, SWEEP_TIMEOUT_S)
            reply = None
            if code == 0 and stdout.strip():
                try:
                    reply = json.loads(stdout.strip().splitlines()[-1])
                except json.JSONDecodeError:
                    code = "with no result line"
            if reply is not None:
                if tracer is not None:
                    tracer.merge(reply["trace"])
                    tracer.add_child_time(reply["trace_covered_s"])
        shutil.rmtree(cache, ignore_errors=True)
        out.seconds = clock.seconds
        if reply is None:
            out.error = f"sweep child exited {code}: {stderr[-400:]}"
            return out
        rows = reply["rows"]
        rollup = reply["rollup"] or {}
        if rows != [row for row in state if row[0] in op]:
            out.error = "rows differ from the serial fig7_time_rows"
        elif rollup.get("failed", 1) != 0:
            out.error = f"{rollup.get('failed')} cells failed"
        if out.error:
            return out
        out.work = len(rows)
        out.ratios = [float(row[3]) for row in rows]
        out.counts = {
            "cells": len(rows),
            "executions": reply["executions"],
            "store_writes": reply["store_writes"],
            "store_usage_bytes": reply["store_usage_bytes"],
        }
        return out


class SetupError(RuntimeError):
    """Set-up found the program misbehaving; the run has no result."""


WORKLOADS = {wl.name: wl for wl in (Compile, RunThrash, Sweep)}
