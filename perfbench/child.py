"""Child-process entry points of the benchmark.

    python3 perfbench/child.py cell <stardiag argv...>
        Runs one CLI invocation in-process and prints one JSON line with its
        exit code, report and wall time.  The parent kills it at the
        frontier budget.
    python3 perfbench/child.py setup <workload> <smoke 0|1>
        Times a fresh import of stardiag plus construction of the
        workload's graphs (and test assignments) under a speed sampler,
        and prints the seconds: wall, without the probes, and
        reference-speed (see speed.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: address-space cap for a frontier cell, so a runaway 2^|V| list fails instead of swapping
CELL_MEMORY_BYTES = 2 << 30
#: probes run and dropped before set-up is timed, so the probes it is scaled by run warm
WARM_PROBES = 30


def run_cell(argv: list[str]) -> dict:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > CELL_MEMORY_BYTES:
        resource.setrlimit(resource.RLIMIT_AS, (CELL_MEMORY_BYTES, hard))
    from stardiag import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except MemoryError:
        return {"rc": None, "error": "MemoryError", "elapsed_s": time.perf_counter() - start}
    elapsed = time.perf_counter() - start
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        report = {}
    return {"rc": rc, "report": report, "stderr": err.getvalue()[-500:], "elapsed_s": elapsed}


def run_setup(workload: str, smoke: bool) -> dict:
    import speed
    import workloads

    spec = workloads.build(workload, seed=0, smoke=smoke)
    sampler = speed.Sampler()
    for _ in range(WARM_PROBES):
        sampler.probe()
    with sampler.sampling():
        start = sampler.clock()
        from stardiag import Model, build_assignment, from_descriptor

        graphs = [from_descriptor(desc) for desc in spec.setup_graphs]
        if spec.setup_assignments:
            for graph in graphs:
                for model in (Model.PMC, Model.MM):
                    build_assignment(graph, model)
        wall = sampler.clock() - start
    return {"setup_s": wall * sampler.scale(), "wall_s": wall}


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    mode, rest = argv[0], argv[1:]
    if mode == "cell":
        print(json.dumps(run_cell(rest)))
        return 0
    if mode == "setup":
        print(json.dumps(run_setup(rest[0], rest[1] == "1")))
        return 0
    print(f"unknown child mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
