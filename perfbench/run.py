"""End-to-end benchmark runner.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 10 --trace 0

Workloads: ``compile``, ``run-thrash``, ``sweep`` (see README.md).  The
run sets up serially ``SETUPS`` times, checks that every set-up gave the
same exact outputs, then runs whole rounds of ops until ``--seconds``
have passed.  The last line of standard output is one JSON object:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a run that alternates untraced and traced rounds.
``--smoke`` runs the self-test configuration (two small programs, tiny
scale, one round).

Exit codes: 0 result printed; 2 no program source next to the
benchmark; 3 repeated set-ups disagreed; 4 set-up found the program
misbehaving.  Codes 2-4 print no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

SCALE = 0.3
SMOKE_SCALE = 0.05
#: Serial set-ups per run: their median is ``setup_s`` and their exact
#: outputs must agree.
SETUPS = 3

#: Process-global memo state cleared before every set-up and op, so
#: each starts as cold as a user's fresh invocation.  Entries that a
#: later version of the program no longer has are skipped.
COLD_CACHES = (
    ("repro.workloads.mediabench", "mediabench_program", "cache_clear"),
    ("repro.analysis.experiments", "squash_benchmark", "cache_clear"),
    ("repro.analysis.experiments", "baseline_run", "cache_clear"),
    ("repro.analysis.experiments", "squashed_run", "cache_clear"),
    ("repro.vm.machine", "_DECODE_CACHE", "clear"),
    ("repro.core.runtime", "clear_region_decode_cache", None),
    ("repro.analysis.stagecache", "_MEMO", "clear"),
    ("repro.compress.vector", "_COMBINED_CACHE", "clear"),
    ("repro.compress.vector", "_WORDS_CACHE", "clear"),
    ("repro.resilience.workerpool", "reset_pool_manager", None),
)

END_TO_END = {
    "setup_s": "s",
    "throughput": "1/s",
    "squashed_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class SetupMismatch(RuntimeError):
    """Repeated set-ups produced different exact outputs."""


def cold_start() -> None:
    for module_name, attr, method in COLD_CACHES:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        target = getattr(module, attr, None)
        if target is None:
            continue
        if method is None:
            target()
            continue
        if not hasattr(target, method):  # a traced wrapper
            target = getattr(target, "__wrapped__", target)
        getattr(target, method)()
    gc.collect()


def source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def latency_summary(seconds: list[float]) -> str:
    """p50 and the highest whole percentile with at least ten samples
    beyond it, with n."""
    ordered = sorted(seconds)
    n = len(ordered)
    if not n:
        return "n=0"
    parts = [f"p50={statistics.median(ordered):.4f}s"]
    top = int(100 * (1 - 10 / n)) if n > 10 else 0
    if top > 50:
        parts.append(f"p{top}={ordered[min(n - 1, n * top // 100)]:.4f}s")
    return " ".join(parts) + f" n={n}"


def timed_op(workload, state, op, opdir, tracer, probed: bool):
    """Run one op; when *probed*, set its host factor from the speed
    probes just before and just after it."""
    from workloads import PROBE_REF_S, speed_probe

    before = speed_probe() if probed else None
    result = workload.run_op(state, op, opdir, tracer)
    if probed:
        result.host_factor = PROBE_REF_S / ((before + speed_probe()) / 2)
    return result


def measure(workload, seconds: float, trace: bool, workdir: pathlib.Path,
            log, mutate_state=None) -> dict:
    """Set up, gate, and run whole rounds; return everything the
    report needs.  *mutate_state* lets the self-test corrupt the state
    between set-up and the ops."""
    from spans import TARGETS, Tracer
    from workloads import PROBE_REF_S, speed_probe

    tracer = Tracer() if trace else None
    setup_times, setup_ref_times, digests = [], [], []
    state = None
    for index in range(SETUPS):
        directory = workdir / f"setup{index}"
        directory.mkdir(parents=True)
        cold_start()
        before = speed_probe()
        if tracer is not None:
            tracer.phase = "setup"
            tracer.install(TARGETS)
        start = time.perf_counter()
        try:
            state, exact = workload.setup(directory)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_times.append(time.perf_counter() - start)
        setup_ref_times.append(
            setup_times[-1] * PROBE_REF_S / ((before + speed_probe()) / 2)
        )
        digests.append(exact)
        log(f"setup {index}: {setup_times[-1]:.3f}s digest {exact[:16]}")
    if len(set(digests)) != 1:
        raise SetupMismatch(f"set-up digests differ: {digests}")
    start = time.perf_counter()
    state = workload.prepare(state)
    log(f"references computed once in {time.perf_counter() - start:.3f}s")
    if mutate_state is not None:
        mutate_state(state)
    opdir = workdir / "ops"
    opdir.mkdir()
    ops = workload.ops(state)
    results = {False: [], True: []}
    rounds = {False: 0, True: 0}
    missing: list[str] = []
    # Probes do not track an op that runs in child processes on both
    # CPUs (scaling doubled the sweep's spread), so it is not probed and
    # its seconds are reported as measured.
    probed = not getattr(workload, "ops_in_child", False)
    # Ops should not pay for traversing set-up's objects in collections.
    gc.collect()
    gc.freeze()
    started = time.perf_counter()
    try:
        while True:
            traced = trace and (rounds[False] + rounds[True]) % 2 == 1
            if traced:
                tracer.phase = "op"
                missing = tracer.install(TARGETS)
            try:
                for op in ops:
                    cold_start()
                    result = timed_op(workload, state, op, opdir,
                                      tracer if traced else None, probed)
                    if result.error:
                        log(f"FAILED op {op}: {result.error}")
                    results[traced].append(result)
            finally:
                if traced:
                    tracer.uninstall()
            rounds[traced] += 1
            if time.perf_counter() - started >= seconds and (
                not trace or rounds[True]
            ):
                break
    finally:
        gc.unfreeze()
    return {
        "setup_times": setup_times,
        "setup_ref_times": setup_ref_times,
        "results": results,
        "rounds": rounds,
        "tracer": tracer,
        "missing": missing,
        "ops_per_round": len(ops),
    }


def end_to_end(workload, run: dict, log) -> dict:
    from workloads import geomean

    done = [r for r in run["results"][False] if not r.error]
    work = sum(r.work for r in done)
    seconds = sum(r.seconds for r in done)
    ratios = [ratio for r in done for ratio in r.ratios]
    op_seconds = sum(r.ref_seconds for r in done)
    if getattr(workload, "ops_in_child", False):
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(run["setup_ref_times"]),
        "throughput": work / op_seconds if op_seconds else 0.0,
        "squashed_ratio": geomean(ratios) if ratios else 0.0,
        "peak_rss_mb": rss / 1024.0,
    }
    log(f"setup_s = median of {run['setup_ref_times']} reference-host s "
        f"(wall {run['setup_times']})")
    log(f"throughput = {work} {workload.work_unit} / {op_seconds:.4f} s "
        f"= {values['throughput']:.6g}/s ({workload.throughput_name}); "
        f"wall {seconds:.4f} s gives {work / seconds if seconds else 0:.6g}/s")
    counts = {}
    for result in done:
        for key, value in result.counts.items():
            counts[key] = counts.get(key, 0) + value
    log(f"squashed_ratio = geomean of {len(ratios)} ratios "
        f"= {values['squashed_ratio']:.6f}; op counts {counts}")
    log(f"op latency {latency_summary([r.seconds for r in done])}")
    log("op seconds (host factor) " + " ".join(
        f"{r.seconds:.3f}({r.host_factor:.3f})" for r in done
    ))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("compile", "run-thrash", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test size: two small programs, one round")
    args = parser.parse_args(argv)

    def log(message: str) -> None:
        print(f"[perfbench] {message}", flush=True)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    dropped = sorted(key for key in os.environ if key.startswith("REPRO_"))
    for key in dropped:
        del os.environ[key]
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import layers
    from workloads import SWEEP_WORKERS, WORKLOADS, SetupError, speed_probe

    scale = SMOKE_SCALE if args.smoke else SCALE
    workload = WORKLOADS[args.workload](args.seed, scale, smoke=args.smoke)
    seconds = 0.0 if args.smoke else args.seconds
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": scale,
        "programs": list(workload.names),
        "seconds": seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "sweep_workers": SWEEP_WORKERS if args.workload == "sweep" else 0,
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_digest": source_digest(),
        "dropped_env": dropped,
        "speed_probe_start_s": speed_probe(),
    }
    log("record " + json.dumps(record))
    workdir = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        run = measure(workload, seconds, bool(args.trace), workdir, log)
    except SetupMismatch as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["speed_probe_end_s"] = speed_probe()
    log(f"speed probe {record['speed_probe_start_s']:.4f}s -> "
        f"{record['speed_probe_end_s']:.4f}s")

    attempted = sum(len(v) for v in run["results"].values())
    failed = sum(
        1 for v in run["results"].values() for r in v if r.error
    )
    log(f"rounds untraced={run['rounds'][False]} "
        f"traced={run['rounds'][True]}, "
        f"{run['ops_per_round']} ops/round, {failed}/{attempted} failed")
    if args.trace:
        values = layers.per_layer(workload, run, log)
        units = layers.UNITS
    else:
        values = end_to_end(workload, run, log)
        units = END_TO_END
    metrics = {
        name: {"value": values[name], "unit": units[name]} for name in units
    }
    runs_dir = ROOT / ".perfbench" / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    (runs_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
     f"-{os.getpid()}.json").write_text(json.dumps(
        {"record": record, "metrics": metrics}, indent=1
    ))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
