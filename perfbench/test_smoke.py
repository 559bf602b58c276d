"""Smoke test of the benchmark at tiny sizes.

    python -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
the correctness gate trips when the faults workload plants no fault, and that
the benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program(ROOT)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_its_unit(workload, trace):
    result, notes = run.run_benchmark(workload, 5, 0, trace, run.TINY,
                                      root=ROOT)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}
    assert result["correct"], notes
    assert result["attempted"] >= 1 and result["failed"] == 0
    if not trace:
        for name in ("wall_rel", "cpu_rel", "setup_s", "peak_rss_mb", "ok_frac"):
            assert result["metrics"][name]["value"] > 0


def test_traced_counts_repeat_for_a_seed():
    first, _ = run.run_benchmark("identities", 9, 0, True, run.TINY, root=ROOT)
    again, _ = run.run_benchmark("identities", 9, 0, True, run.TINY, root=ROOT)
    for name, entry in first["metrics"].items():
        if entry["unit"] in ("count", "bits"):
            assert again["metrics"][name] == entry, name
    assert first["metrics"]["identities.verify_calls"]["value"] == 18


def test_gate_trips_when_no_fault_is_planted():
    unmutated = run.faults_workload(run.TINY, mutate=False)
    result, notes = run.run_benchmark("faults", 5, 0, False, run.TINY,
                                      root=ROOT, run_pass=unmutated)
    assert not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] == 0
    assert any("planted fault in schlosser_cr missed" in line for line in notes)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(SPEC["command"] + ["--workload", "faults", "--seed",
                                             "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
