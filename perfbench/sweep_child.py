"""One cold sweep op, run by the sweep workload in a fresh process.

Runs ``api.sweep(SweepSpec(kind="time", parallel=True))`` the way a
user's first parallel ``repro fig7b`` does: new interpreter, empty
cache directory (``REPRO_CACHE_DIR``), ``REPRO_BENCH_WORKERS`` pool
workers.  Prints one JSON line: the rows, the sweep rollup, the
supervisor and store counters and, with ``--trace 1``, the span totals
of this process.  Pool workers are forked after the wrappers are
installed, but their spans stay in the workers; their work reads as
time inside ``analysis.fanout`` here.

    PYTHONPATH=src python3 perfbench/sweep_child.py --names adpcm,gsm \
        --scale 0.3 --trace 0
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from spans import TARGETS, Tracer  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--names", required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.phase = "op"
        tracer.install(TARGETS)

    import repro.api as api
    from repro.analysis.parallel import last_sweep_rollup
    from repro.obs.metrics import get_registry
    from repro.resilience.workerpool import get_pool_manager

    try:
        rows = api.sweep(api.SweepSpec(
            names=tuple(args.names.split(",")), scale=args.scale,
            kind="time", parallel=True,
        ))
    finally:
        get_pool_manager().shutdown_all()
    counters = get_registry().snapshot()["counters"]
    reply = {
        "rows": [
            [row.name, row.theta_paper, row.theta_ours,
             repr(row.relative_time)]
            for row in rows
        ],
        "rollup": last_sweep_rollup(),
        "executions": counters.get("supervisor.executions", 0),
        "store_writes": counters.get("store.writes", 0),
        "store_usage_bytes": 0,
    }
    if tracer is not None:
        tracer.uninstall()
        reply["store_usage_bytes"] = api.store_stats()["usage_bytes"]
        reply["trace"] = tracer.export("op")
        reply["trace_covered_s"] = tracer.covered
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main())
