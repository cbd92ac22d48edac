"""Layer spans recorded from outside the program.

The tracer wraps the public entry function of each layer on the module
or class attribute its callers resolve, so no span code lives inside
``src/repro``.  Wrappers are installed only for traced rounds and
removed afterwards, which leaves untraced rounds running the program's
own functions.

Spans are not kept one by one: each closing span adds its duration and
its self time (duration minus the time its direct children cover) to
per-(phase, name) and per-(phase, layer) totals.  The totals are all a
report needs, and they cost the same whether a span fires once or
six thousand times per run.
"""

from __future__ import annotations

import importlib
import threading
import time

#: Layers in report order.  ``other`` is the self time of the
#: benchmark's own op span (the runner's own code, process start-up for sweep).
LAYERS = (
    "workloads", "squeeze", "vm", "squash", "compress", "image",
    "runtime", "analysis", "store", "other",
)


class Tracer:
    """Span stack plus aggregated totals for one benchmark run."""

    def __init__(self) -> None:
        self.phase = "setup"
        #: (phase, span name) -> [calls, seconds, self seconds]
        self.spans: dict[tuple[str, str], list] = {}
        #: (phase, layer) -> self seconds
        self.layer_self: dict[tuple[str, str], float] = {}
        #: (phase, key) -> summed count reported by a span hook
        self.counts: dict[tuple[str, str], float] = {}
        #: Seconds covered by top-level spans (a child process reports
        #: this so the runner can charge it to its op span).
        self.covered = 0.0
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, object]] = []
        self._main = threading.get_ident()

    # -- spans ---------------------------------------------------------------

    def active(self) -> bool:
        """True on the thread that owns the span stack."""
        return threading.get_ident() == self._main

    def enclosing(self, name: str) -> bool:
        """True when a span called *name* is open."""
        return any(frame[0] == name for frame in self._stack)

    def enter(self, name: str, layer: str) -> None:
        self._stack.append([name, layer, time.perf_counter(), 0.0])

    def exit(self) -> float:
        name, layer, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.add_span(name, layer, duration, duration - child)
        if self._stack:
            self._stack[-1][3] += duration
        else:
            self.covered += duration
        return duration

    def add_span(self, name: str, layer: str, seconds: float,
                 self_seconds: float) -> None:
        entry = self.spans.setdefault((self.phase, name), [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += seconds
        entry[2] += self_seconds
        key = (self.phase, layer)
        self.layer_self[key] = self.layer_self.get(key, 0.0) + self_seconds

    def add_child_time(self, seconds: float) -> None:
        """Charge *seconds* of work measured elsewhere (a child
        process's spans) to the open span's children."""
        self._stack[-1][3] += seconds

    def count(self, key: str, value: float) -> None:
        slot = (self.phase, key)
        self.counts[slot] = self.counts.get(slot, 0) + value

    # -- reading -------------------------------------------------------------

    def span(self, phase: str, name: str) -> tuple[int, float, float]:
        """(calls, seconds, self seconds) of one span name."""
        return tuple(self.spans.get((phase, name), (0, 0.0, 0.0)))

    def counted(self, phase: str, key: str) -> float:
        return self.counts.get((phase, key), 0)

    def export(self, phase: str) -> dict:
        """Plain-data totals of one phase (what a child process sends
        back to the runner)."""
        return {
            "spans": {
                name: values for (ph, name), values in self.spans.items()
                if ph == phase
            },
            "layers": {
                layer: value for (ph, layer), value in self.layer_self.items()
                if ph == phase
            },
            "counts": {
                key: value for (ph, key), value in self.counts.items()
                if ph == phase
            },
        }

    def merge(self, data: dict) -> None:
        """Fold a child's :meth:`export` into the current phase."""
        for name, (calls, seconds, self_seconds) in data["spans"].items():
            entry = self.spans.setdefault((self.phase, name), [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += seconds
            entry[2] += self_seconds
        for layer, value in data["layers"].items():
            key = (self.phase, layer)
            self.layer_self[key] = self.layer_self.get(key, 0.0) + value
        for key, value in data["counts"].items():
            self.count(key, value)

    # -- installing wrappers -------------------------------------------------

    def install(self, targets) -> list[str]:
        """Wrap every target present; return the ones that are absent.

        A target is ``(module, attribute path, span name, layer, hook)``;
        *hook*, when given, is called as ``hook(tracer, args, result)``
        after the wrapped call returns, still inside its span.
        """
        missing = []
        for module_name, path, name, layer, hook in targets:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                missing.append(f"{module_name}.{path}")
                continue
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent, None)
            if owner is None or attr not in vars(owner):
                missing.append(f"{module_name}.{path}")
                continue
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, name, layer, hook))
            self._installed.append((owner, attr, original))
        return missing

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name, layer, hook):
        if isinstance(original, (classmethod, staticmethod)):
            return type(original)(
                self._wrap(original.__func__, name, layer, hook)
            )
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active():
                return original(*args, **kwargs)
            span_name = name(tracer, args) if callable(name) else name
            tracer.enter(span_name, layer)
            try:
                result = original(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, result)
                return result
            finally:
                tracer.exit()

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    def wrap_handler(self, handler, name: str, layer: str):
        """A traced copy of a plain callable (runtime service handlers
        are created per machine, so they are wrapped where they are
        handed out)."""
        tracer = self

        def traced(*args):
            tracer.enter(name, layer)
            try:
                return handler(*args)
            finally:
                tracer.exit()

        return traced


# -- the layer map -------------------------------------------------------------


def _vm_run_name(tracer: Tracer, args) -> str:
    machine = args[0]
    if tracer.enclosing("vm.profile"):
        return "vm.profile_run"
    return "vm.squashed_run" if machine.services else "vm.baseline_run"


def _vm_run_hook(tracer: Tracer, args, result) -> None:
    kind = _vm_run_name(tracer, args)
    tracer.count(f"{kind}.steps", result.steps)


def _squash_hook(tracer: Tracer, args, result) -> None:
    program = args[0]
    tracer.count("squash.input_instrs", program.code_size)
    tracer.count("squash.regions", len(result.descriptor.regions))
    tracer.count("squash.compressed_words", result.footprint.compressed)
    report = result.stage_report
    if report is not None:
        for stage in report.stages:
            tracer.count(f"squash.stage.{stage.name}_s", stage.seconds)


def _squeeze_hook(tracer: Tracer, args, result) -> None:
    program = args[0]
    squeezed, _stats = result
    tracer.count("squeeze.input_instrs", program.code_size)
    tracer.count("squeeze.output_instrs", squeezed.code_size)
    if tracer.enclosing("workloads.program"):
        tracer.count("workloads.squeezes", 1)


def _program_hook(tracer: Tracer, args, result) -> None:
    tracer.count("workloads.programs", 1)


def _services_hook(tracer: Tracer, args, result) -> None:
    for addr, handler in list(result.items()):
        result[addr] = tracer.wrap_handler(
            handler, "runtime.service", "runtime"
        )


#: Every wrapped entry point.  Modules that bind a function at import
#: time (``from x import f``) are patched where they resolve it too.
TARGETS = (
    # workloads: generation, calibration loop, inputs, baseline layout
    ("repro.workloads.mediabench", "mediabench_program",
     "workloads.program", "workloads", _program_hook),
    ("repro.analysis.experiments", "mediabench_program",
     "workloads.program", "workloads", _program_hook),
    ("repro.workloads.mediabench", "build_workload",
     "workloads.build", "workloads", None),
    # squeeze: calibration squeezes, the final squeeze, the compile op's
    ("repro.workloads.generator", "squeeze",
     "squeeze.calibrate", "squeeze", _squeeze_hook),
    ("repro.workloads.mediabench", "squeeze",
     "squeeze.final", "squeeze", _squeeze_hook),
    ("repro.squeeze.pipeline", "squeeze",
     "squeeze.op", "squeeze", _squeeze_hook),
    # vm: profiling runs, baseline and squashed runs
    ("repro.workloads.mediabench", "collect_profile",
     "vm.profile", "vm", None),
    ("repro.vm.machine", "Machine.run", _vm_run_name, "vm", _vm_run_hook),
    # squash: the staged pipeline (cold → plan → ... → emit)
    ("repro.core.pipeline", "squash_program",
     "squash.program", "squash", _squash_hook),
    ("repro.analysis.experiments", "squash",
     "squash.program", "squash", _squash_hook),
    # compress: encoder build, table parse, region decode
    ("repro.compress.codec", "ProgramCodec.build",
     "compress.build", "compress", None),
    ("repro.compress.codec", "ProgramCodec.from_table_words",
     "compress.parse_tables", "compress", None),
    ("repro.compress.codec", "ProgramCodec.decode_region",
     "compress.decode_region", "compress", None),
    ("repro.compress.vector", "decode_regions",
     "compress.decode_batch", "compress", None),
    # image: save, verified load, deep verify
    ("repro.core.pipeline", "SquashResult.save",
     "image.save", "image", None),
    ("repro.core.pipeline", "load_squashed",
     "image.load_verify", "image", None),
    ("repro.core.verify", "verify_squashed",
     "verify.deep", "image", None),
    # runtime: ``services()`` hands out the trap handlers; the hook
    # swaps each for a traced copy before Machine receives it, so every
    # trap into the decompression runtime is one runtime span.
    ("repro.core.runtime", "SquashRuntime.services",
     "runtime.services", "runtime", _services_hook),
    # analysis / resilience / store: the sweep harness
    ("repro.analysis.parallel", "fig7_time_rows",
     "analysis.sweep", "analysis", None),
    ("repro.analysis.experiments", "fig7_time_rows",
     "analysis.serial_rows", "analysis", None),
    ("repro.analysis.stagecache", "warm_bundle",
     "analysis.warm_bundle", "analysis", None),
    ("repro.resilience.supervisor", "Supervisor.run",
     "analysis.fanout", "analysis", None),
    ("repro.store.store", "ArtifactStore.get",
     "store.get", "store", None),
    ("repro.store.store", "ArtifactStore.put",
     "store.put", "store", None),
)
