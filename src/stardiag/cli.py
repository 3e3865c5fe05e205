"""Command-line front door: generation, t_g computation, and simulation.

Every subcommand emits a machine-readable JSON report (stdout or --out)
and exits 0 exactly when all requested verifications pass.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from collections import Counter

from .base import BudgetError, DomainError, Model, NotApplicableError, StardiagError
from .diagnosability import (
    DEFAULT_ORACLE_BUDGET,
    build_witness,
    crosscheck,
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
    descriptor_params,
    from_descriptor,
    verify_split,
)


def _emit(args, report: dict) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _witness_dict(w) -> dict:
    return {
        "construction": w.construction,
        "graph": w.descriptor,
        "A": sorted(w.a_set),
        "F1": sorted(w.f1),
        "F2": sorted(w.f2),
        "sizes": w.sizes,
        "checks": w.checks,
        "upper_bound": w.upper_bound,
    }


def _held_nk_star(graph):
    """`graph` when it is an S_{n,k} that a witness can reuse, else None."""
    return graph if graph.descriptor.startswith("nkstar:") else None


def cmd_gen(args) -> int:
    graph = from_descriptor(args.graph)
    degrees = {graph.degree(lab) for lab in graph.labels}
    report = {
        "command": "gen",
        "graph": graph.descriptor,
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
        "regular": len(degrees) == 1,
        "min_degree": graph.min_degree(),
    }
    if args.format == "dot":
        payload = graph.to_dot()
    elif args.format == "edgelist":
        payload = graph.to_edgelist()
    else:
        payload = None
    if payload is not None:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(payload)
            report["written"] = args.out
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            sys.stdout.write(payload)
            print(json.dumps(report, indent=2, sort_keys=True), file=sys.stderr)
    else:
        _emit(args, report)
    return 0


def cmd_tg(args) -> int:
    started = time.time()
    graph = from_descriptor(args.graph)
    params = descriptor_params(graph.descriptor)
    models = [Model.PMC, Model.MM] if args.model == "both" else [Model.parse(args.model)]
    report = {
        "command": "tg",
        "graph": graph.descriptor,
        "g": args.g,
        "method": args.method,
        "seed": args.seed,
        "results": {},
    }
    ok = True
    witnesses = {}  # built once, whichever models a construction serves
    for model in models:
        entry: dict = {}
        values = {}
        if args.method in ("formula", "all"):
            if params is None:
                entry["formula"] = None
                entry["formula_note"] = "formula needs a star-family graph descriptor"
            else:
                res = tg_formula(params[0], params[1], args.g, model)
                entry["formula"] = res.value
                entry["formula_provenance"] = res.provenance or res.note
                if res.applicable:
                    values["formula"] = res.value
        if args.method in ("brute", "all"):
            try:
                res = tg_bruteforce(graph, args.g, model, args.budget)
                entry["bruteforce"] = res.value
                entry["bruteforce_note"] = res.note
                entry["bruteforce_stats"] = res.stats
                if res.pair:
                    entry["bruteforce_pair"] = [list(p) for p in res.pair]
                if res.applicable:
                    values["bruteforce"] = res.value
            except BudgetError as exc:
                if args.method == "brute":
                    raise
                entry["bruteforce"] = None
                entry["bruteforce_skipped"] = str(exc)
        name = witness_for(*params, args.g, model) if params else None
        if args.method in ("witness", "all") and name:
            if name not in witnesses:
                witnesses[name] = build_witness(name, *params, args.g, _held_nk_star(graph))
            entry["witness_upper_bounds"] = {name: witnesses[name].upper_bound}
            values[f"witness:{name}"] = witnesses[name].upper_bound
        if len(set(values.values())) > 1:
            ok = False
            entry["disagreement"] = values
        report["results"][model.value] = entry
    report["ok"] = ok
    report["elapsed_s"] = round(time.time() - started, 3)
    _emit(args, report)
    return 0 if ok else 1


def cmd_kappa(args) -> int:
    graph = from_descriptor(args.graph)
    params = descriptor_params(graph.descriptor)
    report = {"command": "kappa", "graph": graph.descriptor, "g": args.g}
    ok = True
    values = {}
    if args.method in ("formula", "all"):
        if params is None:
            report["formula_note"] = "formula needs a star-family graph descriptor"
        else:
            try:
                values["formula"] = rg_connectivity_formula(params[0], params[1], args.g)
            except NotApplicableError as exc:
                report["formula_note"] = str(exc)
        report["formula"] = values.get("formula")
    if args.method in ("brute", "all"):
        brute = rg_connectivity_bruteforce(graph, args.g, budget=args.budget)
        report["bruteforce"] = brute if brute is not None else "no cut"
        if brute is not None:
            values["bruteforce"] = brute
    if len(set(values.values())) > 1:
        ok = False
        report["disagreement"] = values
    report["ok"] = ok
    _emit(args, report)
    return 0 if ok else 1


def cmd_witness(args) -> int:
    cell = (args.n, args.k, args.g)
    name = witness_for(*cell, Model.PMC) or witness_for(*cell, Model.MM)
    if args.construction not in ("auto", name):
        raise DomainError(f"the {args.construction} witness does not cover n, k, g = {cell}")
    if name is None:
        raise DomainError(f"no witness construction covers n, k, g = {cell}")
    wit = build_witness(name, *cell)
    report = {"command": "witness", "ok": True, "witness": _witness_dict(wit)}
    _emit(args, report)
    return 0


def cmd_split(args) -> int:
    wit = verify_split(args.n, args.k)
    report = {
        "command": "split",
        "ok": True,
        "base": wit.base.descriptor,
        "split": wit.split.descriptor,
        "t": wit.t,
        "fibers": wit.fiber_count,
        "fiber_size": wit.t,
    }
    _emit(args, report)
    return 0


def cmd_table(args) -> int:
    started = time.time()
    rows = []
    ok = True
    for n in range(args.n_min, args.n_max + 1):
        for k in range(1, n):
            # one S_{n,k} per row serves its oracle and witness cells
            graph = build_nk_star(n, k) if math.perm(n, k) <= DEFAULT_VERTEX_BUDGET else None
            for g in range(1, n):
                check = crosscheck(n, k, g, args.budget, graph)
                ok = ok and check.ok
                for model in Model:
                    entry = check.results[model.value]
                    row = {
                        "n": n,
                        "k": k,
                        "g": g,
                        "model": model.value,
                        "formula": entry["formula"],
                        "status": "formula-only",
                    }
                    if "bruteforce_skipped" not in entry:
                        row["bruteforce"] = entry["bruteforce"]
                        row["status"] = "brute-verified"
                    elif "witness" in entry:
                        row["witness_upper_bound"] = entry["witness_upper_bound"]
                        row["status"] = "witness+formula"
                    if not entry["ok"]:
                        row["status"] = "DISAGREE"
                    rows.append(row)
    report = {
        "command": "table",
        "ok": ok,
        "rows": rows,
        "elapsed_s": round(time.time() - started, 3),
    }
    _emit(args, report)
    return 0 if ok else 1


def _random_good_set(graph, g, max_size, rng, attempts=20000):
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


def cmd_simulate(args) -> int:
    if args.trials < 1:
        raise DomainError(f"--trials must be at least 1, got {args.trials}")
    started = time.time()
    graph = from_descriptor(args.graph)
    params = descriptor_params(graph.descriptor)
    model = Model.parse(args.model)
    report = {
        "command": "simulate",
        "graph": graph.descriptor,
        "g": args.g,
        "model": model.value,
        "seed": args.seed,
    }

    if args.witness:
        if params is None:
            raise StardiagError("--witness needs a star-family graph descriptor")
        name = witness_for(*params, args.g, model)
        if name is None:
            raise DomainError(
                f"no witness construction covers n, k, g = {(*params, args.g)} under {model.value}"
            )
        wit = build_witness(name, *params, args.g, _held_nk_star(graph))
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
        report["elapsed_s"] = round(time.time() - started, 3)
        _emit(args, report)
        return 0 if ambiguous else 1

    # the oracle's value wherever it runs: the closed form has a known gap at S_{3,2}
    if params is None or graph.vertex_count <= args.budget:
        t = tg_bruteforce(graph, args.g, model, args.budget).value
        t_source = "bruteforce"
    else:
        t = tg_formula(params[0], params[1], args.g, model).value
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
    ok = successes == args.trials
    report.update(
        {
            "mode": "injection",
            "t": t,
            "t_source": t_source,
            "strategy": args.strategy,
            "trials": args.trials,
            "unique_diagnoses": successes,
            "diagnosis_stats": dict(totals),
            "ok": ok,
            "trial_log": trials if args.trials <= 10 else trials[:10],
        }
    )
    report["elapsed_s"] = round(time.time() - started, 3)
    _emit(args, report)
    return 0 if ok else 1


def _add_common(p, graph=True):
    if graph:
        p.add_argument("--graph", required=True, help="descriptor, e.g. nkstar:4,2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers", type=int, default=1, help="ignored; kept so existing command lines still parse"
    )
    p.add_argument(
        "--budget",
        "--budget-pair",
        "--budget-sd",
        type=int,
        default=DEFAULT_ORACLE_BUDGET,
        help="vertex cap of the exhaustive search; --budget-pair and --budget-sd are old spellings",
    )
    p.add_argument(
        "--budget-diag", type=int, default=None, help="ignored; diagnose has no vertex cap"
    )
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stardiag",
        description="(n,k)-star network diagnosability toolkit (PMC / MM* models)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="generate a graph and export it")
    _add_common(p)
    p.add_argument("--format", choices=["dot", "edgelist", "text"], default="text")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("tg", help="compute t_g by the selected methods")
    _add_common(p)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--model", choices=["pmc", "mm", "both"], default="both")
    p.add_argument("--method", choices=["formula", "brute", "witness", "all"], default="all")
    p.set_defaults(func=cmd_tg)

    p = sub.add_parser("kappa", help="R_g-connectivity, formula and/or brute force")
    _add_common(p)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--method", choices=["formula", "brute", "all"], default="all")
    p.set_defaults(func=cmd_kappa, budget=DEFAULT_SEARCH_BUDGET)

    p = sub.add_parser("witness", help="build and verify an indistinguishable pair")
    _add_common(p, graph=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument(
        "--construction", choices=["general", "snk2-mm", "cycle6", "auto"], default="auto"
    )
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("split", help="verify the split relationship S_{n,k} -> S_n")
    _add_common(p, graph=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("table", help="regenerate the t_g case table for a range of n")
    _add_common(p, graph=False)
    p.add_argument("--n-min", type=int, required=True, dest="n_min")
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("simulate", help="inject faults, generate syndromes, diagnose")
    _add_common(p)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--model", choices=["pmc", "mm"], required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--strategy", choices=["random", "zeros", "ones"], default="random")
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n_max", 0) is None:
        args.n_max = args.n_min
    try:
        return args.func(args)
    except StardiagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
