"""Per-layer metrics of a traced run.

Everything here comes from the traced rounds' span totals (phase
``op``) and from counts the program returns publicly: ``RuntimeStats``,
``StageReport``, ``region_decode_cache_info()``, ``last_sweep_rollup()``,
``api.store_stats()`` and the ``repro.obs`` registry.  Times and counts
are per traced round.  ``workloads.*`` and ``vm.profile_instr_per_s``
fall back to the set-up spans on workloads whose ops never generate a
program (compile, run-thrash): there they predict ``setup_s``.
"""

from __future__ import annotations

from spans import LAYERS

UNITS = {
    "workloads.build_s": "s",
    "workloads.squeezes_per_program": "count",
    "squeeze.s": "s",
    "squeeze.instr_per_s": "1/s",
    "squeeze.reduction": "ratio",
    "vm.profile_instr_per_s": "1/s",
    "vm.baseline_instr_per_s": "1/s",
    "vm.run_instr_per_s": "1/s",
    "vm.steps": "count",
    "squash.s": "s",
    "squash.instr_per_s": "1/s",
    "squash.cold_s": "s",
    "squash.plan_s": "s",
    "squash.classify_s": "s",
    "squash.layout_s": "s",
    "squash.encode_s": "s",
    "squash.emit_s": "s",
    "squash.regions": "count",
    "squash.compressed_words": "count",
    "compress.verify_bits_per_s": "1/s",
    "compress.bits_per_instr": "ratio",
    "image.save_s": "s",
    "image.load_verify_s": "s",
    "verify.deep_s": "s",
    "image.bytes": "bytes",
    "runtime.service_s": "s",
    "runtime.service_share": "ratio",
    "runtime.us_per_call": "us",
    "runtime.decode_cache_hit_ratio": "ratio",
    "runtime.decompressions": "count",
    "runtime.buffer_hit_ratio": "ratio",
    "runtime.instrs_materialised": "count",
    "runtime.decomp_cycle_share": "ratio",
    "analysis.warm_bundles_s": "s",
    "analysis.fanout_s": "s",
    "analysis.fanout_share": "ratio",
    "resilience.executions_per_cell": "ratio",
    "store.writes": "count",
    "store.usage_bytes": "bytes",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "trace_overhead": "ratio",
}

SQUASH_STAGES = ("cold", "plan", "classify", "layout", "encode", "emit")


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload, run: dict, log) -> dict:
    tracer = run["tracer"]
    rounds = run["rounds"][True]
    done = [r for r in run["results"][True] if not r.error]
    ops = {}
    for result in done:
        for key, value in result.counts.items():
            ops[key] = ops.get(key, 0) + value

    def span(name, phase="op"):
        return tracer.span(phase, name)

    def counted(key, phase="op"):
        return tracer.counted(phase, key)

    def per_round(value):
        return _div(value, rounds)

    values = {}
    gen = "op" if span("workloads.build")[0] else "setup"
    builds, build_s, _ = span("workloads.build", gen)
    values["workloads.build_s"] = _div(build_s, builds)
    values["workloads.squeezes_per_program"] = _div(
        counted("workloads.squeezes", gen), builds
    )

    squeeze_s = sum(
        span(name)[1]
        for name in ("squeeze.calibrate", "squeeze.final", "squeeze.op")
    )
    squeeze_in = counted("squeeze.input_instrs")
    values["squeeze.s"] = per_round(squeeze_s)
    values["squeeze.instr_per_s"] = _div(squeeze_in, squeeze_s)
    values["squeeze.reduction"] = (
        1 - _div(counted("squeeze.output_instrs"), squeeze_in)
        if squeeze_in else 0.0
    )

    profile_phase = "op" if span("vm.profile")[0] else "setup"
    values["vm.profile_instr_per_s"] = _div(
        counted("vm.profile_run.steps", profile_phase),
        span("vm.profile", profile_phase)[1],
    )
    values["vm.baseline_instr_per_s"] = _div(
        counted("vm.baseline_run.steps"), span("vm.baseline_run")[1]
    )
    squashed_steps = counted("vm.squashed_run.steps")
    # Self time of the squashed run: interpreter work without the
    # runtime's service calls (which hold the decompression work).
    values["vm.run_instr_per_s"] = _div(
        squashed_steps, span("vm.squashed_run")[2]
    )
    values["vm.steps"] = per_round(
        counted("vm.profile_run.steps") + counted("vm.baseline_run.steps")
        + squashed_steps
    )

    squash_s = span("squash.program")[1]
    values["squash.s"] = per_round(squash_s)
    values["squash.instr_per_s"] = _div(
        counted("squash.input_instrs"), squash_s
    )
    for stage in SQUASH_STAGES:
        values[f"squash.{stage}_s"] = per_round(
            counted(f"squash.stage.{stage}_s")
        )
    values["squash.regions"] = per_round(counted("squash.regions"))
    values["squash.compressed_words"] = per_round(
        counted("squash.compressed_words")
    )

    deep_s = span("verify.deep")[1]
    values["compress.verify_bits_per_s"] = _div(
        ops.get("stream_bits", 0), deep_s
    )
    values["compress.bits_per_instr"] = _div(
        ops.get("stream_bits", 0), ops.get("compressed_instrs", 0)
    )
    values["image.save_s"] = per_round(span("image.save")[1])
    values["image.load_verify_s"] = per_round(span("image.load_verify")[1])
    values["verify.deep_s"] = per_round(deep_s)
    values["image.bytes"] = per_round(ops.get("image_bytes", 0))

    calls, service_s, _ = span("runtime.service")
    values["runtime.service_s"] = per_round(service_s)
    values["runtime.service_share"] = _div(
        service_s, span("vm.squashed_run")[1]
    )
    values["runtime.us_per_call"] = _div(service_s * 1e6, calls)
    hits = ops.get("decode_cache_hits", 0)
    values["runtime.decode_cache_hit_ratio"] = _div(
        hits, hits + ops.get("decode_cache_misses", 0)
    )
    decomps = ops.get("decompressions", 0)
    buffer_hits = ops.get("buffer_hits", 0)
    values["runtime.decompressions"] = per_round(decomps)
    values["runtime.buffer_hit_ratio"] = _div(
        buffer_hits, buffer_hits + decomps
    )
    values["runtime.instrs_materialised"] = per_round(
        ops.get("instrs_materialised", 0)
    )
    values["runtime.decomp_cycle_share"] = _div(
        ops.get("decomp_cycles", 0), ops.get("cycles", 0)
    )

    op_s = sum(r.seconds for r in done)
    fanout_s = span("analysis.fanout")[1]
    values["analysis.warm_bundles_s"] = per_round(
        span("analysis.warm_bundle")[1]
    )
    values["analysis.fanout_s"] = per_round(fanout_s)
    values["analysis.fanout_share"] = _div(fanout_s, op_s)
    values["resilience.executions_per_cell"] = _div(
        ops.get("executions", 0), ops.get("cells", 0)
    )
    values["store.writes"] = per_round(ops.get("store_writes", 0))
    values["store.usage_bytes"] = per_round(ops.get("store_usage_bytes", 0))

    self_total = 0.0
    for layer in LAYERS:
        seconds = tracer.layer_self.get(("op", layer), 0.0)
        values[f"self_s.{layer}"] = per_round(seconds)
        self_total += seconds
    # Host-scaled like the end-to-end figures, so drift between the
    # alternating rounds does not read as tracing cost.
    untraced = sum(r.ref_seconds for r in run["results"][False])
    traced = sum(r.ref_seconds for r in run["results"][True])
    values["trace_overhead"] = _div(
        traced / rounds, untraced / run["rounds"][False]
    ) - 1

    log(f"traced op time {per_round(op_s):.4f}s/round; layer self times "
        f"sum to {per_round(self_total):.4f}s/round")
    log("self_s " + " ".join(
        f"{layer}={values[f'self_s.{layer}']:.4f}" for layer in LAYERS
    ))
    log(f"base counts: squeeze {squeeze_in} instrs in {squeeze_s:.4f}s; "
        f"squashed run {squashed_steps} steps; runtime {calls} calls "
        f"{service_s:.4f}s; decode cache {hits} hits; ops {ops}")
    if getattr(workload, "ops_in_child", False):
        log("sweep cells run in pool workers: their squash and squashed "
            "runs read as analysis.fanout time (analysis self time)")
    log("resilience has no span of its own: Supervisor.run is the "
        "analysis.fanout span")
    setup_spans = sorted(
        (seconds, name) for (phase, name), (_c, seconds, _s)
        in tracer.spans.items() if phase == "setup"
    )
    log("set-up spans (s, all set-ups): " + " ".join(
        f"{name}={seconds:.3f}" for seconds, name in reversed(setup_spans)
    ))
    if run["missing"]:
        log(f"absent from the program, not traced: {run['missing']}")
    return values
