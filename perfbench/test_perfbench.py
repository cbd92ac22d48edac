"""Self-test of the benchmark: smoke runs of every workload, traced and
untraced, plus negative cases that must count as failed ops.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as runner  # noqa: E402
import workloads  # noqa: E402
from repro.core.pipeline import SquashResult  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [workload["name"] for workload in SPEC["workloads"]]


def _smoke(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", NAMES)
def test_smoke_reports_every_end_to_end_metric(name):
    result = _smoke(name, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {metric["name"]: metric for metric in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(expected)
    for metric, value in result["metrics"].items():
        assert value["unit"] == expected[metric]["unit"]
        assert value["value"] > 0, metric


@pytest.mark.parametrize("name", NAMES)
def test_smoke_traced_shows_the_predicted_split(name):
    result = _smoke(name, 1)
    assert result["correct"] and result["failed"] == 0
    expected = {metric["name"] for metric in SPEC["per_layer"]}
    assert set(result["metrics"]) == expected
    value = {key: item["value"] for key, item in result["metrics"].items()}
    if name == "compile":
        assert value["self_s.vm"] == 0 and value["self_s.runtime"] == 0
        assert value["self_s.squash"] > 0 and value["self_s.squeeze"] > 0
    elif name == "run-thrash":
        for layer in ("workloads", "squeeze", "squash"):
            assert value[f"self_s.{layer}"] == 0
        assert value["runtime.service_share"] > 0
    else:
        assert value["self_s.workloads"] > 0
        assert value["self_s.analysis"] > 0
        assert value["resilience.executions_per_cell"] == 1.0


def _measure(workload, tmp_path, mutate):
    return runner.measure(
        workload, 0.0, False, tmp_path / "work", lambda message: None,
        mutate_state=mutate,
    )


def _flip_bit(path: str) -> None:
    data = bytearray(pathlib.Path(path).read_bytes())
    data[len(data) // 2] ^= 0x10
    pathlib.Path(path).write_bytes(bytes(data))


def test_wrong_reference_output_is_a_failed_op(tmp_path):
    workload = workloads.RunThrash(3, runner.SMOKE_SCALE, smoke=True)

    def corrupt(state):
        state[0].ref_output = state[0].ref_output + [1]

    results = _measure(workload, tmp_path, corrupt)["results"][False]
    failed = [r for r in results if r.error]
    assert len(results) == 4 and len(failed) == 1
    assert "output" in failed[0].error


def test_bit_flipped_saved_image_is_a_failed_op(tmp_path):
    workload = workloads.RunThrash(3, runner.SMOKE_SCALE, smoke=True)

    def flip(state):
        _flip_bit(state[1].prefix + ".img")

    results = _measure(workload, tmp_path, flip)["results"][False]
    failed = [r for r in results if r.error]
    assert len(results) == 4 and len(failed) == 1


def test_bit_flipped_compile_image_is_a_failed_op(tmp_path, monkeypatch):
    save = SquashResult.save

    def save_and_flip(self, prefix):
        paths = save(self, prefix)
        _flip_bit(paths[0])
        return paths

    monkeypatch.setattr(SquashResult, "save", save_and_flip)
    workload = workloads.Compile(3, runner.SMOKE_SCALE, smoke=True)
    results = _measure(workload, tmp_path, None)["results"][False]
    assert results and all(r.error for r in results)


def test_wrong_sweep_rows_are_a_failed_op(tmp_path):
    workload = workloads.Sweep(3, runner.SMOKE_SCALE, smoke=True)

    def corrupt(state):
        state[0][3] = repr(float(state[0][3]) * 2)

    results = _measure(workload, tmp_path, corrupt)["results"][False]
    assert len(results) == 2
    assert all("rows differ" in r.error for r in results)


def test_setup_mismatch_aborts_without_a_result(monkeypatch, capsys):
    calls = []
    setup = workloads.Compile.setup

    def drifting(self, workdir):
        state, exact = setup(self, workdir)
        calls.append(1)
        return state, f"{exact}-{len(calls)}"

    monkeypatch.setattr(workloads.Compile, "setup", drifting)
    code = runner.main([
        "--workload", "compile", "--seed", "3", "--seconds", "0", "--smoke",
    ])
    assert code == 3
    assert '"correct"' not in capsys.readouterr().out


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
