"""Tests of the benchmark itself, at its smoke size.

Run from the repository root:
``PYTHONPATH=src python -m pytest bench/test_bench.py``
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def declared(kind: str) -> set[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in doc[kind]}


def smoke(workload: str, trace: bool = False, tamper=None) -> dict:
    return run.run_benchmark(workload, seed=3, seconds=0.1, trace=trace,
                             size="smoke", tamper=tamper)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    result = smoke(workload, trace)
    line = result["line"]
    assert result["record"]["failures"] == []
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def test_repeated_work_ratios_on_a_cohort():
    metrics = smoke("wide_cohort", trace=True)["line"]["metrics"]
    test_fraction = run.SIZES["smoke"]["wide_cohort"].test_fraction
    # three train-eval runs on every epoch, select-channels on the training part
    assert metrics["spdgeom.covariance.calls_per_epoch"]["value"] == pytest.approx(
        3 + (1 - test_fraction))
    assert metrics["spdgeom.backward_elimination.calls_per_subject"]["value"] == 2.0


def test_wrong_emd_value_is_counted_as_an_error():
    def plant(pass_dirs):
        path = pass_dirs[0] / "out" / "dense" / "emd_table.json"
        rows = json.loads(path.read_text(encoding="utf-8"))
        rows[0]["emd_binary"] *= 1 + 1e-6
        path.write_text(json.dumps(rows), encoding="utf-8")

    line = smoke("emd_scoring", tamper=plant)["line"]
    assert not line["correct"] and line["failed"] >= 1


@pytest.mark.parametrize("workload", ["paper_cohort", "emd_scoring"])
def test_deleted_output_file_is_counted_as_an_error(workload):
    def delete(pass_dirs):
        name = "report/pvalues.csv" if workload == "paper_cohort" else "model/emd_table.csv"
        (pass_dirs[0] / "out" / name).unlink()

    line = smoke(workload, tamper=delete)["line"]
    assert not line["correct"] and line["failed"] >= 1


def test_differing_passes_are_counted_as_an_error():
    def edit(pass_dirs):
        with open(pass_dirs[-1] / "out" / "builtin" / "emd_table.csv", "a") as fh:
            fh.write("\n")

    line = smoke("emd_scoring", trace=True, tamper=edit)["line"]
    assert not line["correct"] and line["failed"] == 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "emd_scoring", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
