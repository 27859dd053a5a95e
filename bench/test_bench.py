"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench -q

Runs every workload in smoke mode, plain and traced, and checks the
oracles: the closed forms against the sizes quoted in bench/README.md and
the dense model against its own invariants.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["failed"] == 0 and report["attempted"] > 0
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: value["unit"] for name, value in report["metrics"].items()}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "--workload", "deep", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_closed_forms_match_the_wide_sizes():
    counts = oracle.closed_form_counts(4, 3, 1, 1, 3)
    assert (counts["eng_lines"], counts["elementary_ops"], counts["expanded_ops"]) == (
        928, 1984, 108608)
    assert counts["mux_lines"] == 384 and counts["num_qubits"] == 11
    deep = oracle.closed_form_counts(2, 2, 1, 4, 3)
    assert deep["eng_lines"] == 13922 and deep["mux_lines"] == 5120


@pytest.mark.parametrize("nb, a, c", [(1, 1, 1), (2, 2, 1), (2, 1, 2), (3, 2, 1)])
def test_model_invariants(nb, a, c):
    model = oracle.AnnealingModel(nb, a, c, (0.0, 0.5, 1.0))
    assert all(oracle.model_self_checks(model).values())
    state = model.final_state(2)
    assert abs(np.linalg.norm(state) - 1) < 1e-12


def test_model_fidelity_of_deep():
    model = oracle.AnnealingModel(2, 2, 1, (0.0, 0.5, 1.0))
    assert abs(model.fidelity(model.final_state(4)) - 0.99004) < 1e-5
