"""The eleven MediaBench-like benchmark specs (Table 1 of the paper).

Static size targets are the paper's instruction counts.  Structural
parameters vary per benchmark the way the paper's programs do: *gsm*
and *g721_enc* get the highest fraction of leaf utilities (the paper
reports them with the most buffer-safe regions, 20% and 19%), *pgp*
gets the largest never-executed share (it shows the best compression),
and *adpcm* is the small program where fixed overheads bite hardest.

Programs are generated deterministically from seeds and cached in
memory; ``mediabench_program`` also returns the squeezed program and
its layout, since every experiment starts there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from repro.program.layout import LayoutResult, layout
from repro.program.program import Program
from repro.squeeze.pipeline import SqueezeStats, squeeze
from repro.vm.profiler import Profile, collect_profile
from repro.workloads.generator import GeneratedWorkload, build_workload
from repro.workloads.inputs import profiling_input, timing_input
from repro.workloads.spec import WorkloadSpec

#: (input size, squeeze size) from Table 1.
_TABLE1 = {
    "adpcm": (18228, 11690),
    "epic": (33880, 24769),
    "g721_dec": (15089, 12008),
    "g721_enc": (15065, 11771),
    "gsm": (29789, 21597),
    "jpeg_dec": (44094, 37042),
    "jpeg_enc": (38701, 32168),
    "mpeg2dec": (37833, 27942),
    "mpeg2enc": (47152, 36062),
    "pgp": (83726, 60003),
    "rasta": (91359, 65273),
}

#: Benchmark names in the paper's order.
MEDIABENCH = tuple(_TABLE1)

#: Per-benchmark structural tweaks.
_TWEAKS: dict[str, dict] = {
    "adpcm": {"n_utilities": 6, "profile_items": 5000},
    "epic": {"unknown_table": True},
    "g721_dec": {"leaf_utility_bias": 0.6},
    "g721_enc": {"leaf_utility_bias": 0.8, "n_utilities": 10},
    "gsm": {"leaf_utility_bias": 0.85, "n_utilities": 12},
    "jpeg_dec": {"n_never": 8},
    "jpeg_enc": {"n_never": 7},
    "mpeg2dec": {"n_never": 8, "unknown_table": True},
    "mpeg2enc": {"n_never": 9},
    "pgp": {"n_never": 10, "n_utilities": 10},
    "rasta": {"n_never": 10},
}


def mediabench_spec(name: str, scale: float = 1.0) -> WorkloadSpec:
    """The spec for benchmark *name*.

    ``scale`` shrinks the static/dynamic targets proportionally (tests
    use small scales; experiments use 1.0).
    """
    if name not in _TABLE1:
        raise KeyError(f"unknown benchmark {name!r}; see MEDIABENCH")
    input_size, squeeze_size = _TABLE1[name]
    seed = 0xC0DE + sum(ord(c) * 131 for c in name)
    spec = WorkloadSpec(
        name=name,
        seed=seed,
        target_input_size=max(600, int(input_size * scale)),
        target_squeeze_size=max(400, int(squeeze_size * scale)),
        **_TWEAKS.get(name, {}),
    )
    if scale < 1.0:
        spec = replace(
            spec,
            profile_items=max(400, int(spec.profile_items * scale)),
            timing_items=max(600, int(spec.timing_items * scale)),
        )
    return spec


@dataclass
class MediabenchProgram:
    """Everything the experiments need for one benchmark."""

    name: str
    workload: GeneratedWorkload
    squeezed: Program
    squeeze_stats: SqueezeStats
    layout: LayoutResult
    profile: Profile
    profile_input: list[int]
    timing_input: list[int]

    @property
    def input_size(self) -> int:
        return self.workload.program.code_size

    @property
    def squeeze_size(self) -> int:
        return self.squeezed.code_size


@lru_cache(maxsize=None)
def mediabench_program(name: str, scale: float = 1.0) -> MediabenchProgram:
    """Generate, squeeze, lay out, and profile benchmark *name*.

    Results are cached per (name, scale) for the life of the process.
    """
    spec = mediabench_spec(name, scale=scale)
    workload = build_workload(spec)
    if workload.squeezed is not None:
        squeezed, stats = workload.squeezed
    else:  # calibration did not converge on the final build
        squeezed, stats = squeeze(workload.program)
    result = layout(squeezed)
    profile_in = profiling_input(workload)
    timing_in = timing_input(workload)
    profile = collect_profile(squeezed, result.image, profile_in)
    return MediabenchProgram(
        name=name,
        workload=workload,
        squeezed=squeezed,
        squeeze_stats=stats,
        layout=result,
        profile=profile,
        profile_input=profile_in,
        timing_input=timing_in,
    )
