"""Command-line front door: generation, t_g computation, and simulation.

Each `cmd_*` returns its report body.  `main` stamps it with `command` and
`elapsed_s`, emits it as JSON (stdout or --out) and exits 0 when its `ok`
holds, 1 when it does not, and 2 when the input is rejected or --out cannot
be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
import time
from collections import Counter

from .base import BudgetError, DomainError, Model, StardiagError
from .diagnosability import (
    DEFAULT_ORACLE_BUDGET,
    build_witness,
    crosscheck,
    run_methods,
    tg_bruteforce,
    tg_formula,
    witness_for,
)
from .faults import (
    DEFAULT_SEARCH_BUDGET,
    good_mask,
    rg_connectivity_bruteforce,
    rg_connectivity_formula,
)
from .syndrome import (
    ambiguity_syndrome,
    build_assignment,
    diagnose,
    generate_syndrome,
)
from .topologies import (
    DEFAULT_VERTEX_BUDGET,
    build_nk_star,
    from_descriptor,
    verify_split,
)


def _emit(args, report: dict) -> None:
    """Write the report to --out, else to `args.report_file` (stdout when None)."""
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text, file=args.report_file)


def _witness_dict(w) -> dict:
    return {
        "construction": w.construction,
        "graph": w.descriptor,
        "A": w.graph.sorted_labels_of(w.a_mask),
        "F1": w.graph.sorted_labels_of(w.m1),
        "F2": w.graph.sorted_labels_of(w.m2),
        "sizes": w.sizes,
        "checks": w.checks,
        "upper_bound": w.upper_bound,
    }


def cmd_gen(args) -> dict:
    """Graph stats; a --format payload takes --out or stdout, and the report the other stream."""
    graph = from_descriptor(args.graph)
    degrees = {graph.degree(lab) for lab in graph.labels}
    report = {
        "ok": True,
        "graph": graph.descriptor,
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
        "regular": len(degrees) == 1,
        "min_degree": graph.min_degree(),
    }
    if args.format == "text":
        return report
    payload = graph.to_dot() if args.format == "dot" else graph.to_edgelist()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
        report["written"] = args.out
        args.out = None  # so main's _emit prints the report to stdout
    else:
        sys.stdout.write(payload)
        args.report_file = sys.stderr
    return report


def cmd_tg(args) -> dict:
    graph = from_descriptor(args.graph)
    models = tuple(Model) if args.model == "both" else (Model.parse(args.model),)
    ok, results = crosscheck(graph, args.g, models, args.method, args.budget)
    return {
        "graph": graph.descriptor,
        "g": args.g,
        "method": args.method,
        "seed": args.seed,
        "results": results,
        "ok": ok,
    }


def cmd_kappa(args) -> dict:
    graph = from_descriptor(args.graph)

    def formula(n, k):
        return {"formula": rg_connectivity_formula(n, k, args.g)}

    def oracle():
        stats: dict = {}
        cut = rg_connectivity_bruteforce(graph, args.g, args.budget, stats)
        return {"bruteforce": "no cut" if cut is None else cut, "bruteforce_stats": stats}

    ok, entry = run_methods(args.method, graph.cell, formula, oracle)
    return {"graph": graph.descriptor, "g": args.g, **entry, "ok": ok}


def cmd_witness(args) -> dict:
    cell = (args.n, args.k, args.g)
    name = witness_for(*cell, Model.PMC) or witness_for(*cell, Model.MM)
    if name is None:
        raise DomainError(f"no witness construction covers n, k, g = {cell}")
    wit = build_witness(name, *cell)
    return {"ok": wit.checks["sizes_match_formula"], "witness": _witness_dict(wit)}


def cmd_split(args) -> dict:
    wit = verify_split(args.n, args.k)
    return {
        "ok": True,
        "base": wit.base.descriptor,
        "split": wit.split.descriptor,
        "t": wit.t,
        "fibers": wit.fiber_count,
        "fiber_size": wit.t,
    }


def _table_fields(entry: dict) -> dict:
    """A table row's values and status, read off a `crosscheck` entry."""
    fields = {"formula": entry["formula"], "status": "formula-only"}
    if "bruteforce_skipped" not in entry:
        fields.update(bruteforce=entry["bruteforce"], status="brute-verified")
    elif "witness_upper_bounds" in entry:
        (bound,) = entry["witness_upper_bounds"].values()
        fields.update(witness_upper_bound=bound, status="witness+formula")
    if "disagreement" in entry:
        fields["status"] = "DISAGREE"
    return fields


def cmd_table(args) -> dict:
    n_max = args.n_min if args.n_max is None else args.n_max
    if args.n_min < 3:
        raise DomainError(f"the table starts at n = 3, got --n-min {args.n_min}")
    if n_max < args.n_min:
        raise DomainError(f"--n-max {n_max} is below --n-min {args.n_min}")
    rows = []
    ok = True
    for n in range(args.n_min, n_max + 1):
        for k in range(1, n):
            # one S_{n,k} per row serves its oracle and witness cells
            graph = build_nk_star(n, k) if math.perm(n, k) <= DEFAULT_VERTEX_BUDGET else None
            for g in range(1, n):
                if graph is not None:
                    cell_ok, results = crosscheck(graph, g, budget=args.budget)
                    ok = ok and cell_ok
                for model in Model:
                    if graph is None:  # over the vertex cap: the closed form alone
                        formula = tg_formula(n, k, g, model).value
                        fields = {"formula": formula, "status": "formula-only"}
                    else:
                        fields = _table_fields(results[model.value])
                    rows.append({"n": n, "k": k, "g": g, "model": model.value, **fields})
    return {"ok": ok, "rows": rows}


def _random_good_set(graph, g, max_size, rng):
    attempts = 20000
    indices = list(range(graph.vertex_count))
    for _ in range(attempts):
        size = rng.randint(1, max_size)
        fmask = 0
        for i in rng.sample(indices, size):
            fmask |= 1 << i
        if fmask != graph.full_mask and good_mask(graph, fmask, g):
            return fmask
    raise StardiagError(
        f"found no nonempty g-good-neighbor set of size <= {max_size} "
        f"after {attempts} attempts"
    )


def cmd_simulate(args) -> dict:
    if args.trials < 1:
        raise DomainError(f"--trials must be at least 1, got {args.trials}")
    graph = from_descriptor(args.graph)
    cell = graph.cell
    model = Model.parse(args.model)
    report = {
        "graph": graph.descriptor,
        "g": args.g,
        "model": model.value,
        "seed": args.seed,
    }

    if args.witness:
        if cell is None:
            raise StardiagError("--witness needs a star-family graph descriptor")
        name = witness_for(*cell, args.g, model)
        if name is None:
            raise DomainError(
                f"no witness construction covers n, k, g = {(*cell, args.g)} under {model.value}"
            )
        wit = build_witness(name, *cell, args.g)
        if wit.descriptor != graph.descriptor:  # a star:n graph carries its witness on S_{n,n-1}
            graph = from_descriptor(wit.descriptor)
            report["graph"] = graph.descriptor  # the graph diagnosed below
        assignment = build_assignment(graph, model)
        syn = ambiguity_syndrome(assignment, wit.f1, wit.f2)
        t = max(len(wit.f1), len(wit.f2))
        search: dict = {}
        candidates = diagnose(graph, syn, t, args.g, stats=search)
        sets = [sorted(c) for c in candidates]
        ambiguous = sorted(wit.f1) in sets and sorted(wit.f2) in sets and len(sets) >= 2
        report.update(
            {
                "mode": "witness-ambiguity",
                "witness": _witness_dict(wit),
                "t": t,
                "t_source": "witness",
                "consistent_hypotheses": sets,
                "diagnosis_stats": search,
                "ambiguous": ambiguous,
                "ok": ambiguous,
            }
        )
        return report

    # the oracle's value wherever it runs: the closed form has a known gap at S_{3,2}
    try:
        t = tg_bruteforce(graph, args.g, model, args.budget).value
        t_source = "bruteforce"
    except BudgetError:
        if cell is None:
            raise
        t = tg_formula(*cell, args.g, model).value
        t_source = "formula"
    if t is None or t < 1:
        raise StardiagError(f"t_g is {t}; nothing to simulate")
    rng = random.Random(args.seed)
    assignment = build_assignment(graph, model)
    trials = []
    successes = 0
    totals: Counter = Counter()  # search counters summed over the trials
    for trial in range(args.trials):
        fmask = _random_good_set(graph, args.g, t, rng)
        truth = graph.labels_of(fmask)
        syn = generate_syndrome(assignment, truth, args.strategy, seed=rng.getrandbits(64))
        search: dict = {}
        found = diagnose(graph, syn, t, args.g, stats=search)
        totals.update(search)
        unique = found == [truth]
        successes += unique
        trials.append(
            {
                "truth": sorted(truth),
                "syndrome_seed": syn.seed,
                "candidates": [sorted(c) for c in found],
                "unique": unique,
            }
        )
    report.update(
        {
            "mode": "injection",
            "t": t,
            "t_source": t_source,
            "strategy": args.strategy,
            "trials": args.trials,
            "unique_diagnoses": successes,
            "diagnosis_stats": dict(totals),
            "ok": successes == args.trials,
            "trial_log": trials[:10],
        }
    )
    return report


#: every option a subcommand can take: its flags and `add_argument` keywords
OPTIONS = {
    "graph": (["--graph"], {"required": True, "help": "descriptor, e.g. nkstar:4,2"}),
    "g": (["--g"], {"type": int, "required": True}),
    "n": (["--n"], {"type": int, "required": True}),
    "k": (["--k"], {"type": int, "required": True}),
    "n-min": (["--n-min"], {"type": int, "required": True}),
    "n-max": (["--n-max"], {"type": int, "default": None}),
    "format": (["--format"], {"choices": ["dot", "edgelist", "text"], "default": "text"}),
    "model": (["--model"], {"choices": ["pmc", "mm", "both"], "default": "both"}),
    "method": (["--method"], {"choices": ["formula", "brute", "witness", "all"], "default": "all"}),
    "budget": (
        ["--budget", "--budget-pair", "--budget-sd"],
        {"type": int, "default": DEFAULT_ORACLE_BUDGET, "help": "vertex cap of the exhaustive "
         "search; --budget-pair and --budget-sd are old spellings"},
    ),
    "seed": (["--seed"], {"type": int, "default": 0}),
    "trials": (["--trials"], {"type": int, "default": 10}),
    "strategy": (["--strategy"], {"choices": ["random", "zeros", "ones"], "default": "random"}),
    "witness": (["--witness"], {"action": "store_true"}),
    "workers": (["--workers"], {"type": int, "default": 1, "help": "ignored"}),
    "budget-diag": (["--budget-diag"], {"type": int, "default": None, "help": "ignored"}),
    "out": (["--out"], {"default": None}),
}

#: each subcommand's function, help line and options; a (name, keywords) pair
#: overrides keywords of that option.  Some are parsed and then ignored, kept
#: only because the benchmark's command lines pass them: `workers` on tg, `seed`
#: on kappa, split and table, and `budget-diag` on simulate.
SUBCOMMANDS = {
    "gen": (cmd_gen, "generate a graph and export it", ["graph", "format", "out"]),
    "tg": (cmd_tg, "compute t_g by the selected methods",
           ["graph", "g", "model", "method", "budget", "seed", "workers", "out"]),
    "kappa": (cmd_kappa, "R_g-connectivity, formula and/or brute force",
              ["graph", "g", ("method", {"choices": ["formula", "brute", "all"]}),
               ("budget", {"default": DEFAULT_SEARCH_BUDGET}), "seed", "out"]),
    "witness": (cmd_witness, "build and verify an indistinguishable pair", ["n", "k", "g", "out"]),
    "split": (cmd_split, "verify the split relationship S_{n,k} -> S_n", ["n", "k", "seed", "out"]),
    "table": (cmd_table, "regenerate the t_g case table for a range of n",
              ["n-min", "n-max", "budget", "seed", "out"]),
    "simulate": (cmd_simulate, "inject faults, generate syndromes, diagnose",
                 ["graph", "g", ("model", {"choices": ["pmc", "mm"], "required": True}),
                  "trials", "strategy", "witness", "budget", "seed", "budget-diag", "out"]),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    Sharing is safe because `parse_args` returns a fresh namespace and leaves
    the parser as it was; callers must not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="stardiag",
        description="(n,k)-star network diagnosability toolkit (PMC / MM* models)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (func, help_line, options) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for option in options:
            key, overrides = (option, {}) if isinstance(option, str) else option
            flags, keywords = OPTIONS[key]
            p.add_argument(*flags, **{**keywords, **overrides})
        p.set_defaults(func=func, report_file=None)  # cmd_gen moves the report to stderr
    return parser


def main(argv=None) -> int:
    """Run one subcommand and emit its report, stamped with `command` and `elapsed_s`."""
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if getattr(args, "g", 0) < 0:
            raise DomainError("g must be nonnegative")
        report = args.func(args)
        report["command"] = args.subcommand
        report["elapsed_s"] = round(time.perf_counter() - started, 3)
        _emit(args, report)
    except (StardiagError, OSError) as exc:  # a file that cannot be written is a rejected input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
