"""Tests of the benchmark itself: smoke runs, the tracer's and sampler's arithmetic, the checks.

Run with:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _declared():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _run(cwd, workload, trace):
    bench = _declared()
    argv = [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_declared_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    if not trace:
        for name, entry in result["metrics"].items():
            assert entry["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "oracle-pmc", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_excludes_child_spans_and_counted_calls():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.02)

    counted_leaf = tracer.counted("leaf", leaf)
    inner = tracer.span("inner", lambda: time.sleep(0.03))

    def outer_body():
        counted_leaf()
        inner()
        time.sleep(0.01)

    tracer.span("outer", outer_body)()
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert 0.01 <= tracer.self_s["outer"] < 0.02
    assert 0.03 <= tracer.self_s["inner"] < 0.04
    assert tracer.count("leaf", within="outer") == 1
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner"] and tracer.spans[1][3] == 0


def test_reference_checks_reject_wrong_answers():
    item = workloads.build("oracle-pmc", seed=0).items[0]
    good = {"ok": True, "results": {"pmc": {"bruteforce": 5, "formula": 5}}}
    assert item.check(0, good) is None
    wrong = {"ok": True, "results": {"pmc": {"bruteforce": 4, "formula": 5}}}
    assert "expected 5" in item.check(0, wrong)
    assert item.check(0, {**good, "ok": False}) == "report ok is not true"
    assert item.check(2, good) == "exit code 2"


def test_sampler_clock_excludes_probes_and_scale_is_relative_speed():
    sampler = speed.Sampler()
    with sampler.sampling():
        start = sampler.clock()
        wall_start = time.perf_counter()
        deadline = wall_start + 0.2
        while time.perf_counter() < deadline:  # busy, so the timer probes run
            pass
        probe_free = sampler.clock() - start
        wall = time.perf_counter() - wall_start
    inside = len(sampler.probes) - 2 * speed.EDGE_PROBES
    assert inside >= 3
    assert probe_free < wall
    assert abs(wall - probe_free - sum(sampler.probes[speed.EDGE_PROBES:-speed.EDGE_PROBES])) < 1e-3
    expected = speed.PROBE_S * len(sampler.probes) / sum(sampler.probes)
    assert abs(sampler.scale() - expected) < 1e-12
    # the timer is off and the previous handler is back after the block
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is not sampler.probe
