"""Checks of the benchmark script itself, at tiny workload sizes.

Run with ``python3 -m pytest bench`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(*args, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def _result(workload, trace, scale="0.01", seed="0"):
    proc = _run("--workload", workload, "--seed", seed, "--seconds", "0.5",
                "--trace", str(trace), "--scale", scale)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload_emits_every_metric_with_its_unit(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if workload != "chaos-curve":  # see the count-floor test below
        assert result["correct"] and result["failed"] == 0


def test_stream_below_count_floor_is_counted_not_raised():
    # at this scale the chaos curve's first prefix holds 100 symbols, under
    # its min_count of 200, so that one estimate per job must fail
    result = _result("chaos-curve", 0)
    jobs = result["attempted"] // 8
    assert result["attempted"] == 8 * jobs
    assert result["failed"] == jobs
    assert not result["correct"]


def test_same_seed_same_input_other_seed_other_input():
    def abs_err(seed):
        proc = _run("--workload", "chaos-curve", "--seed", seed, "--seconds", "0",
                    "--trace", "0", "--scale", "0.01")
        return json.loads(proc.stdout.splitlines()[0])["info"]["abs_err_bits"]

    assert abs_err("3") == abs_err("3")
    assert abs_err("3") != abs_err("4")


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "binary-default", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
