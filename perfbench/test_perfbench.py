"""Tests of the benchmark itself (not of sftlab).  From the checkout root:

    python3 -m pytest perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _tiny(workload, trace, tasks=8):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--max-tasks", str(tasks))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def _line(lines, key):
    return next(line for line in lines if line.startswith(key + ":"))


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(trace, section):
    lines, result = _tiny("verdicts", trace, tasks=12)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name in want:
        assert isinstance(result["metrics"][name]["value"], (int, float))
        _line(lines, name)
    if trace == 0:
        _line(lines, "failed_frac")
        _line(lines, "nonanswer_frac")


def _digest(lines):
    return _line(lines, "digest").split()[1]


# every workload of run.py, including the two BENCHMARK.json leaves out
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_runs_give_the_same_digest(workload):
    plain, _ = _tiny(workload, 0)
    traced, result = _tiny(workload, 1)
    line = _line(traced, "digest")
    assert _digest(plain) == _digest(traced)
    assert line.split("untraced ")[1].rstrip(")") == _digest(plain)
    assert result["failed"] == 0


def test_corrupted_potential_is_counted_as_failed():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import workloads
        import sftlab.cohomology as coh
        task = next(t for t in workloads.cohom_transfer(1)
                    if t.kind == "class_is_zero" and t.run()[1].is_coboundary)
        honest = task.run

        def corrupted():
            f, res = honest()
            pot = res.potential
            table = (pot.table[0] + 1,) + tuple(pot.table[1:])
            bad = coh.function(pot.presentation, pot.depth, table, pot.ring)
            return f, coh.CoboundaryResult(True, bad, None)

        out = run.Outcome()
        run.run_pass([task], out)
        assert out.failed == 0
        task.run = corrupted
        out = run.Outcome()
        run.run_pass([task], out)
        assert out.failed == 1 and out.failed / out.attempted > 0
        assert "coboundary(potential)" in out.failures[0]
    finally:
        del sys.path[:2]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "verdicts", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
