"""Incremental sweep reuse of θ-invariant stage artifacts."""

import dataclasses
import json

import pytest

from repro.analysis import experiments, parallel, stagecache
from repro.program.serialize import program_from_dict, program_to_dict

NAMES = ("adpcm", "gsm")
SCALE = 0.2
THETAS = (0.0, 1e-5, 5e-5)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    stagecache.reset_counters()
    yield
    stagecache.reset_counters()


class TestBundleRoundTrip:
    def test_program_serialization_is_exact(self):
        from repro.workloads.mediabench import mediabench_program

        squeezed = mediabench_program("adpcm", scale=SCALE).squeezed
        payload = program_to_dict(squeezed)
        # Through a key-sorting encoder, as the artifact store writes
        # it; compared as unsorted JSON text, so order counts too.
        stored = json.loads(json.dumps(payload, sort_keys=True))
        again = program_to_dict(program_from_dict(stored))
        assert json.dumps(again) == json.dumps(payload)
        blocks = {b.label: b for _, b in squeezed.all_blocks()}
        for _, block in program_from_dict(stored).all_blocks():
            original = blocks[block.label]
            assert list(block.call_targets.items()) == list(
                original.call_targets.items()
            )
            assert list(block.data_refs.items()) == list(
                original.data_refs.items()
            )
        for obj in program_from_dict(stored).data.values():
            assert list(obj.relocs.items()) == list(
                squeezed.data[obj.name].relocs.items()
            )

    def test_stored_bundle_squashes_to_same_cycles(self, tmp_path):
        # Regression: index-keyed maps written as JSON objects came back
        # from the store in sorted-key order, and adpcm@0.3 at θ=1e-5
        # then ran 732,963 cycles instead of 732,959.
        from repro.core.pipeline import SquashConfig, squash_program

        scale = 0.3
        bundle = stagecache.warm_bundle(tmp_path, "adpcm", scale)
        stagecache.reset_counters()  # the next load reads the store
        stored = stagecache.load_bundle(tmp_path, "adpcm", scale)
        assert stored is not None and stored is not bundle
        assert stagecache.STAGE_COUNTERS["loaded"] == 1
        config = SquashConfig(theta=experiments.map_theta(1e-5))
        cycles = []
        for source in (bundle, stored):
            result = squash_program(
                source.program, source.profile, config,
                baseline_words=source.baseline_words,
            )
            run, _ = result.run(source.timing_input, max_steps=500_000_000)
            cycles.append(run.cycles)
        assert cycles[0] == cycles[1] == 732_959

    def test_warm_then_load_round_trips(self, tmp_path):
        bundle = stagecache.warm_bundle(tmp_path, "adpcm", SCALE)
        stagecache.reset_counters()  # also clears the in-process memo
        fresh = stagecache.load_bundle(tmp_path, "adpcm", SCALE)
        assert fresh is not None
        assert stagecache.STAGE_COUNTERS["loaded"] == 1
        again = stagecache.load_bundle(tmp_path, "adpcm", SCALE)
        assert again is fresh
        assert stagecache.STAGE_COUNTERS["memo"] == 1
        assert program_to_dict(fresh.program) == program_to_dict(
            bundle.program
        )
        assert fresh.profile.counts == bundle.profile.counts
        assert fresh.profile.tot_instr_ct == bundle.profile.tot_instr_ct
        assert fresh.baseline_words == bundle.baseline_words
        assert fresh.base_cycles == bundle.base_cycles

    def test_corrupt_bundle_is_a_miss(self, tmp_path):
        stagecache.warm_bundle(tmp_path, "adpcm", SCALE)
        path = stagecache.bundle_path(tmp_path, "adpcm", SCALE)
        path.write_text("not a sealed entry")
        stagecache.reset_counters()
        assert stagecache.load_bundle(tmp_path, "adpcm", SCALE) is None

    def test_reuse_can_be_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_STAGE_REUSE", "0")
        assert not stagecache.stage_reuse_enabled()
        monkeypatch.setenv("REPRO_STAGE_REUSE", "1")
        assert stagecache.stage_reuse_enabled()


class TestSweepReuse:
    def test_size_rows_identical_and_invariant_work_once(self):
        serial = experiments.fig6_rows(NAMES, scale=SCALE, thetas=THETAS)
        stagecache.reset_counters()
        rows = parallel.fig6_rows(
            NAMES, scale=SCALE, thetas=THETAS, parallel=False
        )
        assert rows == serial
        counters = stagecache.STAGE_COUNTERS
        # Squeeze/profile/baseline ran exactly once per benchmark; every
        # other cell of the θ grid reused the bundle.
        assert counters["computed"] == len(NAMES)
        assert counters["memo"] + counters["loaded"] >= len(NAMES) * (
            len(THETAS) - 1
        )

    def test_time_rows_identical_to_serial(self):
        serial = experiments.fig7_time_rows(
            NAMES, scale=SCALE, thetas=(0.0, 1e-5)
        )
        stagecache.reset_counters()
        rows = parallel.fig7_time_rows(
            NAMES, scale=SCALE, thetas=(0.0, 1e-5), parallel=False
        )
        assert rows == serial
        # The θ-invariant bundles were persisted by the size sweeps of
        # other tests' caches or computed here — never more than once
        # per benchmark in-process.
        assert stagecache.STAGE_COUNTERS["computed"] <= len(NAMES)

    def test_second_sweep_loads_persisted_bundles(self):
        parallel.fig6_rows(
            NAMES, scale=SCALE, thetas=(0.0,), parallel=False
        )
        stagecache.reset_counters()
        # New θ: cell cache misses, stage bundles hit from disk.
        rows = parallel.fig6_rows(
            NAMES, scale=SCALE, thetas=(1e-4,), parallel=False
        )
        assert rows == experiments.fig6_rows(
            NAMES, scale=SCALE, thetas=(1e-4,)
        )
        assert stagecache.STAGE_COUNTERS["computed"] == 0
        assert (
            stagecache.STAGE_COUNTERS["loaded"]
            + stagecache.STAGE_COUNTERS["memo"]
            >= len(NAMES)
        )

    def test_second_time_sweep_equals_serial_rows(self):
        # A warm store must not change results: the second sweep's
        # cells squash stage bundles read back from disk.
        parallel.fig7_time_rows(
            NAMES, scale=SCALE, thetas=(0.0,), parallel=False
        )
        stagecache.reset_counters()
        rows = parallel.fig7_time_rows(
            NAMES, scale=SCALE, thetas=(1e-5,), parallel=False
        )
        assert stagecache.STAGE_COUNTERS["loaded"] == len(NAMES)
        assert rows == experiments.fig7_time_rows(
            NAMES, scale=SCALE, thetas=(1e-5,)
        )

    def test_rows_identical_with_reuse_disabled(
        self, monkeypatch, tmp_path
    ):
        with_reuse = parallel.fig6_rows(
            ("adpcm",), scale=SCALE, thetas=(0.0, 1e-5), parallel=False
        )
        monkeypatch.setenv("REPRO_STAGE_REUSE", "0")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "off"))
        stagecache.reset_counters()
        without = parallel.fig6_rows(
            ("adpcm",), scale=SCALE, thetas=(0.0, 1e-5), parallel=False
        )
        assert without == with_reuse
        assert stagecache.STAGE_COUNTERS["computed"] == 0

    def test_nonstandard_text_base_rederives_baseline(self):
        from repro.analysis.parallel import _compute_cell
        from repro.core.pipeline import SquashConfig

        stagecache.warm_bundle(parallel.cache_dir(), "adpcm", SCALE)
        config = dataclasses.replace(
            SquashConfig(theta=0.0), text_base=0x30000
        )
        cell = _compute_cell("size", "adpcm", SCALE, config)
        result = experiments.squash_benchmark("adpcm", SCALE, config)
        assert cell["baseline_words"] == result.baseline_words
        assert cell["footprint_total"] == result.footprint.total
