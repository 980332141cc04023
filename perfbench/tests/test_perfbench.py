"""Tests of the benchmark itself, at the tiny input size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402
from probes import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

bench.use_source_tree()
SPEC = bench.load_spec()


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_emits_every_end_to_end_metric(name):
    proc = _run("--workload", name, "--size", "tiny", "--seconds", "0.1")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert value["value"] > 0
    assert "failed_frac" in proc.stdout


def test_traced_run_emits_every_per_layer_metric():
    proc = _run("--size", "tiny", "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in WORKLOADS:
        got = {
            key.split(".", 1)[1]: value["unit"]
            for key, value in result["metrics"].items()
            if key.startswith(name + ".")
        }
        assert got == expected, name
    assert "executor cross-check: pooled digest equals" in proc.stdout


def test_wrong_pinned_digest_fails_every_point():
    result = bench.measure(
        "read-steady", seed=5, seconds=0.0, size="tiny",
        pinned="0" * 32, setup_samples=1,
    )
    assert result["attempted"] >= bench.MIN_REPS
    assert result["failed"] == result["attempted"]
    assert result["failed_frac"] == 1.0


def test_right_pinned_digest_fails_nothing():
    first = bench.measure("read-steady", 5, 0.0, "tiny", setup_samples=1)
    again = bench.measure(
        "read-steady", 5, 0.0, "tiny", pinned=first["digest"], setup_samples=1
    )
    assert again["failed_frac"] == 0.0


def test_score_counts_mismatch_and_violations_as_failed_points():
    workload = WORKLOADS["fleet-governed"](0, "tiny")
    outcome = bench.Outcome(digest="a", points=8, ios=10)
    other = bench.Outcome(digest="b", points=8, ios=10)
    violating = bench.Outcome(digest="a", points=8, ios=10, violating_points=3)
    assert bench.score(workload, [outcome, outcome], None)[:2] == (16, 0)
    assert bench.score(workload, [outcome, other], None)[:2] == (16, 8)
    assert bench.score(workload, [outcome, violating], None)[:2] == (16, 3)
    assert bench.score(workload, [None], None)[:2] == (8, 8)


@pytest.mark.parametrize("name", ["read-steady", "fleet-governed"])
def test_layer_shares_and_other_sum_to_traced_wall(name):
    result = bench.trace(name, seed=2, seconds=0.0, size="tiny")
    values = result["values"]
    shares = [values[f"{layer}.self_s"] for layer in LAYERS]
    assert all(s >= 0 for s in shares)
    assert values["other.self_s"] >= 0
    assert math.isclose(
        sum(shares) + values["other.self_s"], values["trace.wall_s"],
        rel_tol=1e-9,
    )
    assert result["failed"] == 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read-steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
