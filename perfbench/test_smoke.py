"""Smoke test of the benchmark at a tiny corpus size.

Run from the repository root (takes a few minutes on one core; every run
spawns its own Ray session):

    python3 -m pytest perfbench/test_smoke.py -q -p no:cacheprovider

It checks that every metric named in ``BENCHMARK.json`` is reported with its
unit in both modes on every workload, that the oracle gate fires on a
deliberately corrupted output, and that the benchmark refuses to run without
the program next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
N_PAGES = 300


def _run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--n-pages", str(N_PAGES), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=400,
    )
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported(workload, trace):
    rc, lines = _run(workload, trace)
    assert rc == 0, lines[-2:]
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert info["seed"] == 3 and info["nproc"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if trace:
        spans = ROOT / ".perfbench_work" / "spans" / f"{workload}_s3.json"
        assert json.loads(spans.read_text())["spans"]


def test_gate_fires_on_corrupted_output():
    rc, lines = _run("growing_frontier", 0, "--corrupt")
    assert rc == 1
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1  # the altered text
    checks = info["gate"][0]["checks"]
    assert not any(checks.values()), checks


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    rc, lines = _run("mature_frontier", 0, cwd=bare)
    shutil.rmtree(bare)
    assert rc != 0
    assert not lines
