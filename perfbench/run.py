"""stardiag benchmark: t_g oracles, certification path and diagnosis, end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --budget-s 10 --workload oracle-pmc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --budget-s 10 --workload all --seed 1 --seconds 20 --trace 0

Each workload is a fixed list of ``stardiag`` CLI invocations, run
in-process through ``stardiag.cli.main(argv)`` with one worker; every JSON
report is checked against a recorded reference.  Passes over the list
repeat until ``--seconds`` have gone by.  Times are reported in
reference-speed seconds: wall time scaled by the machine speed that
``speed.py`` samples while each item runs.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
and the tracing overhead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A fuller record
with provenance goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

#: set-up probes per run; each is a fresh child process, and setup_s is their median
SETUP_REPS = 9


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    """Nearest-rank percentile: an observed sample, never an interpolation between two."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- provenance ----------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_revision": _git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "budget_s": args.budget_s,
        "trace": args.trace,
        "smoke": args.smoke,
        "workers": 1,
    }


# -- items and passes ----------------------------------------------------


def run_item(cli, argv, clock=time.perf_counter):
    """(seconds by `clock`, exit code, report, error) of one in-process CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    start = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:
        return clock() - start, None, {}, f"raised {type(exc).__name__}: {exc}"
    elapsed = clock() - start
    try:
        return elapsed, rc, json.loads(out.getvalue()), None
    except ValueError:
        return elapsed, rc, {}, f"no JSON report (stderr: {err.getvalue().strip()[-200:]})"


class Passes:
    """Timed passes over a workload's items, with every result checked.

    The items run in their fixed order, pass after pass, always with the
    same arguments.  Each item runs under a ``speed.Sampler``, and each
    sample is kept in reference-speed seconds: its wall time without the
    probes, scaled by the machine speed the probes measured meanwhile.  An
    item's time (and each of its injection trials') is the median of its
    samples.
    """

    def __init__(self, cli, items, sampler, trial_samples=None):
        self.cli = cli
        self.items = items
        self.sampler = sampler
        self.samples: list[list[float]] = [[] for _ in items]  # reference-speed s per run
        self.walls: list[list[float]] = [[] for _ in items]  # probe-free wall s per run
        self.trials: list[list[list[float]]] = [[] for _ in items]  # per run, per trial
        self._trial_samples = trial_samples
        self.passes = 0
        self.attempted = 0
        self.failures: list[dict] = []
        self.cell_s: dict = {}  # frontier cell key -> slowest settled wall time
        self._failed_cells: set = set()

    def _run_item(self, i: int) -> None:
        item = self.items[i]
        if self._trial_samples is not None:
            self._trial_samples.clear()
        with self.sampler.sampling():
            elapsed, rc, report, error = run_item(self.cli, item.argv, self.sampler.clock)
        factor = self.sampler.scale()
        self.walls[i].append(elapsed)
        self.samples[i].append(elapsed * factor)
        if self._trial_samples is not None:
            self.trials[i].append([t * factor for t in self._trial_samples])
        self.attempted += 1
        problem = error or item.check(rc, report)
        if problem:
            self.failures.append({"argv": item.argv, "problem": problem})
            self._failed_cells.update(item.cells)
        for key in item.cells:
            self.cell_s[key] = max(self.cell_s.get(key, 0.0), elapsed)

    def run(self, seconds: float, whole_passes: bool = False) -> None:
        """Run one whole pass, then go on for as long as `seconds` allow.

        With `whole_passes`, only passes that fit whole are started;
        otherwise each further item starts if its last run fits in the time
        left, so the last pass may stop part-way.
        """
        start = time.perf_counter()
        while True:
            gc.collect()
            for i in range(len(self.items)):
                if self.passes and not whole_passes:
                    if time.perf_counter() - start + self.walls[i][-1] > seconds:
                        return
                self._run_item(i)
            self.passes += 1
            spent = time.perf_counter() - start
            if whole_passes and spent + spent / self.passes > seconds:
                return

    def median_items(self) -> list[float]:
        return [statistics.median(samples) for samples in self.samples]

    def median_trials(self) -> list[float]:
        return [statistics.median(trial) for runs in self.trials for trial in zip(*runs)]

    def solve_s(self) -> float:
        """One pass with every item at its median."""
        return sum(self.median_items())

    def settled_cells(self) -> dict:
        return {k: v for k, v in self.cell_s.items() if k not in self._failed_cells}

    def summary(self) -> dict:
        return {"passes": self.passes,
                "item_runs": [len(samples) for samples in self.samples],
                "item_s": self.samples, "item_wall_s": self.walls}


# -- children: set-up probes and frontier cells ---------------------------


def _child(args: list[str], timeout: float):
    """(stdout, wall seconds) of a child, or (None, seconds) if killed at `timeout`."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, time.perf_counter() - start
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return out, time.perf_counter() - start


def setup_seconds(name: str, smoke: bool) -> dict:
    """Import plus construction time, measured in a fresh child process.

    {"setup_s": reference-speed seconds, "wall_s": wall seconds}.
    """
    out, _ = _child(["setup", name, "1" if smoke else "0"], timeout=120)
    if out is None:
        raise RuntimeError(f"set-up probe of {name} ran over 120 s")
    return json.loads(out.strip().splitlines()[-1])


def probe_frontier(ladder, settled: dict, budget_s: float):
    """Largest rung whose cells all settle within `budget_s`, and the cell that stopped it.

    Cells the timed passes already settled within the budget are reused.
    A cell over the budget or one that exits with an error stops the probe
    and is not a failure; a cell that answers wrongly is.
    """
    vertices, log, mismatches = 0, [], []
    for rung in ladder:
        for cell in rung.cells:
            if cell.key in settled and settled[cell.key] <= budget_s:
                log.append({"cell": list(cell.key), "outcome": "settled", "reused": True,
                            "seconds": settled[cell.key]})
                continue
            out, wall = _child(["cell", *cell.argv], timeout=budget_s)
            entry = {"cell": list(cell.key), "argv": cell.argv, "seconds": wall}
            log.append(entry)
            if out is None:
                entry["outcome"] = "timeout"
                return vertices, entry, log, mismatches
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (ValueError, IndexError):
                result = {"rc": None, "error": "child printed no result"}
            problem = cell.check(result["rc"], result.get("report", {})) if result["rc"] == 0 \
                else f"exit {result['rc']}: {result.get('error') or result.get('stderr', '').strip()}"
            if problem is None:
                entry["outcome"] = "settled"
                continue
            entry["outcome"] = "error" if result["rc"] != 0 else "mismatch"
            entry["problem"] = problem
            if entry["outcome"] == "mismatch":
                mismatches.append({"argv": cell.argv, "problem": problem})
            return vertices, entry, log, mismatches
        vertices = rung.vertices
    return vertices, None, log, mismatches


# -- one workload ---------------------------------------------------------


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_workload(args) -> tuple[dict, dict]:
    """(result line, full record) of one run of one workload."""
    from stardiag import cli, diagnosability, faults, graph, syndrome, topologies

    modules = {"topologies": topologies, "graph": graph, "faults": faults,
               "diagnosability": diagnosability, "syndrome": syndrome, "cli": cli}
    spec = workloads.build(args.workload, args.seed, smoke=args.smoke)
    record = {"provenance": provenance(args)}
    speed.pin_to_fastest_cpu()
    record["provenance"]["cpu_affinity"] = sorted(os.sched_getaffinity(0))
    sampler = speed.Sampler()

    if args.trace:
        untraced = Passes(cli, spec.items, sampler)
        untraced.run(args.seconds, whole_passes=True)
        tracer = spans.Tracer(sampler.clock)
        traced = Passes(cli, spec.items, sampler)
        with spans.instrument(tracer, modules):
            traced.run(args.seconds, whole_passes=True)
        metrics = spans.layer_metrics(tracer, traced.passes)
        overhead = traced.solve_s() - untraced.solve_s()
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_ratio"] = (overhead / untraced.solve_s(), "ratio")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write_spans(spans_path)
        record.update({"untraced": untraced.summary(), "traced": traced.summary(),
                       "untraced_solve_s": untraced.solve_s(), "traced_solve_s": traced.solve_s(),
                       "spans_file": str(spans_path.relative_to(ROOT)),
                       "span_count": len(tracer.spans)})
        attempted = untraced.attempted + traced.attempted
        failures = untraced.failures + traced.failures
        pass_count = traced.passes
    else:
        simulate = args.workload == "simulate"
        trials: list[float] = []
        passes = Passes(cli, spec.items, sampler, trials if simulate else None)
        with spans.trial_clock(cli, trials, sampler.clock) if simulate else contextlib.nullcontext():
            passes.run(args.seconds)
        vertices, stop, log, mismatches = probe_frontier(spec.ladder, passes.settled_cells(),
                                                         args.budget_s)
        setup = [setup_seconds(args.workload, args.smoke) for _ in range(SETUP_REPS)]
        samples = passes.median_trials() if simulate else passes.median_items()
        attempted = passes.attempted + sum(1 for entry in log if not entry.get("reused"))
        failures = passes.failures + mismatches
        pass_count = passes.passes
        metrics = {
            "setup_s": (_median([probe["setup_s"] for probe in setup]), "s"),
            "solve_s": (passes.solve_s(), "s"),
            "frontier_vertices": (float(vertices), "vertices"),
            "trial_ms_p50": (_percentile(samples, 0.5) * 1e3, "ms"),
            "trial_ms_p90": (_percentile(samples, 0.9) * 1e3, "ms"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
        record.update({
            "setup_samples": setup,
            **passes.summary(),
            "trial_samples": len(samples),
            "trial_unit": "injection trial" if simulate else "CLI item",
            "frontier": {"vertices": vertices, "stopped_at": stop, "cells": log},
        })
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update({"passes": pass_count, "failures": failures,
                   "fail_ratio": len(failures) / attempted,
                   "result": result})
    return result, record


def summary_lines(name: str, result: dict, record: dict) -> list[str]:
    lines = [f"{name}: {record['passes']} pass(es), fail_ratio "
             f"{result['failed']}/{result['attempted']} = {record['fail_ratio']:.4f} failed/attempted"]
    for metric, entry in result["metrics"].items():
        lines.append(f"  {metric:44s} {entry['value']:14.6f} {entry['unit']}")
    stop = record.get("frontier", {}).get("stopped_at")
    if stop:
        lines.append(f"  frontier stopped at {stop['cell']}: {stop['outcome']} after "
                     f"{stop['seconds']:.2f} s {stop.get('problem', '')}".rstrip())
    for failure in record["failures"][:5]:
        lines.append(f"  FAILED {' '.join(failure['argv'])}: {failure['problem']}")
    return lines


def run_all(args) -> int:
    """Every workload in its own process, one after another; prints one table."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--budget-s", str(args.budget_s)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed, attempted = result["failed"], result["attempted"]
        print(f"{name}  fail_ratio {failed / attempted:.4f} failed/attempted ({failed}/{attempted})")
        for metric, entry in result["metrics"].items():
            print(f"{name}  {metric:44s} {entry['value']:14.6f} {entry['unit']}")
            totals["metrics"][f"{name}.{metric}"] = entry
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += attempted
        totals["failed"] += failed
    print(json.dumps(totals))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget-s", type=float, required=True, dest="budget_s",
                        help="frontier budget B: wall seconds per ladder cell")
    parser.add_argument("--smoke", action="store_true",
                        help="S_{4,2} cells only; checks metric names, not speed")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "stardiag" / "__init__.py").is_file():
        print(f"error: no stardiag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    result, record = run_workload(args)
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print("\n".join(summary_lines(args.workload, result, record)), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
