"""Benchmark self-tests: smoke runs emit every declared metric and pass the gates.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import harness, timing, workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCH = json.load(_f)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_emits_every_declared_metric(workload, trace):
    p = _run(["--workload", workload, "--seed", "11", "--seconds", "0", "--trace", str(trace), "--smoke"])
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["end_to_end" if trace == 0 else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if trace == 0:
            assert got["value"] > 0, m["name"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = _run(["--workload", "pretrain-toy", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout


def test_tolerance_accepts_reordering_and_rejects_changes():
    assert harness.matches([1.0, "x", [2.0]], [1.0 + 1e-12, "x", [2.0]])
    assert not harness.matches([1.0], [1.0 + 1e-6])
    assert not harness.matches(["a"], ["b"])
    assert not harness.matches([1.0, 2.0], [1.0])


def test_pretrain_gate_counts_off_trace_steps_and_nondeterminism():
    ref = [[2.0, 1.0], [1.5, 0.0]]
    ok = workloads.Outcome(outputs=[ref, ref], digests=["a", "a"])
    assert harness.gate_pretrain(ok, ref, steps=2) == 0
    off = workloads.Outcome(outputs=[ref, [[2.0, 1.0], [1.6, 0.0]]], digests=["a", "a"])
    assert harness.gate_pretrain(off, ref, steps=2) == 1
    drift = workloads.Outcome(outputs=[ref, ref], digests=["a", "b"])
    assert harness.gate_pretrain(drift, ref, steps=2) == 2


def test_local_scale_tracks_probe_speed():
    scale = timing.local_scale([0.1] * 5 + [0.2] * 5, nominal_ms=0.1, half_window=0)
    assert scale == pytest.approx([1.0] * 5 + [0.5] * 5)
