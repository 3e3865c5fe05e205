"""Command-line front door: generation, t_g computation, and simulation.

Every subcommand emits a machine-readable JSON report (stdout or --out)
and exits 0 exactly when all requested verifications pass.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from .base import BudgetError, Model, NotApplicableError, StardiagError
from .diagnosability import (
    DEFAULT_PAIR_BUDGET,
    DEFAULT_SD_BUDGET,
    tg_bruteforce,
    tg_formula,
    witness_cycle6,
    witness_general,
    witness_snk2_mm,
)
from .faults import (
    good_mask,
    rg_connectivity_bruteforce,
    rg_connectivity_formula,
)
from .syndrome import (
    DEFAULT_DIAGNOSIS_BUDGET,
    ambiguity_syndrome,
    build_assignment,
    diagnose,
    generate_syndrome,
)
from .topologies import descriptor_params, from_descriptor, verify_split


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
                res = tg_bruteforce(
                    graph, args.g, model, pair_budget=args.budget_pair, sd_budget=args.budget_sd
                )
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
        if args.method in ("witness", "all") and params is not None:
            n, k = params
            bounds = {}
            if n >= 4 and 2 <= k <= n - 1 and n - k <= args.g <= n - 2:
                bounds["general"] = witness_general(n, k, args.g).upper_bound
            if k == 2 and args.g == 1 and n >= 4 and model is Model.MM:
                bounds["snk2-mm"] = witness_snk2_mm(n).upper_bound
            if (n, k, args.g) == (3, 2, 1) and model is Model.MM:
                bounds["cycle6"] = witness_cycle6().upper_bound
            if bounds:
                entry["witness_upper_bounds"] = bounds
                values.update({f"witness:{name}": b for name, b in bounds.items()})
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
        brute = rg_connectivity_bruteforce(graph, args.g, budget=args.budget_pair + 8)
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
    if args.construction == "cycle6" or (args.n, args.k, args.g) == (3, 2, 1):
        wit = witness_cycle6()
    elif args.construction == "snk2-mm":
        wit = witness_snk2_mm(args.n)
    else:
        wit = witness_general(args.n, args.k, args.g)
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
            graph = None
            for g in range(1, n):
                for model in (Model.PMC, Model.MM):
                    res = tg_formula(n, k, g, model)
                    row = {
                        "n": n,
                        "k": k,
                        "g": g,
                        "model": model.value,
                        "formula": res.value,
                        "status": "formula-only",
                    }
                    budget = args.budget_sd if model is Model.PMC else args.budget_pair
                    vertex_count = 1
                    for i in range(n, n - k, -1):
                        vertex_count *= i
                    if vertex_count <= budget:
                        if graph is None:
                            graph = from_descriptor(f"nkstar:{n},{k}")
                        brute = tg_bruteforce(
                            graph, g, model, pair_budget=args.budget_pair, sd_budget=args.budget_sd
                        )
                        row["bruteforce"] = brute.value
                        if res.applicable and brute.value != res.value:
                            row["status"] = "DISAGREE"
                            ok = False
                        else:
                            row["status"] = "brute-verified"
                    elif n >= 4 and 2 <= k <= n - 1 and n - k <= g <= n - 2:
                        wit = witness_general(n, k, g)
                        row["witness_upper_bound"] = wit.upper_bound
                        if wit.upper_bound == res.value:
                            row["status"] = "witness+formula"
                        else:
                            row["status"] = "DISAGREE"
                            ok = False
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
        n, k = params
        if (n, k, args.g) == (3, 2, 1):
            wit = witness_cycle6()
            graph = from_descriptor(wit.descriptor)
        elif k == 2 and args.g == 1 and model is Model.MM:
            wit = witness_snk2_mm(n)
            graph = from_descriptor(wit.descriptor)
        else:
            wit = witness_general(n, k, args.g)
            graph = from_descriptor(wit.descriptor)
        assignment = build_assignment(graph, model)
        syn = ambiguity_syndrome(assignment, wit.f1, wit.f2)
        t = max(len(wit.f1), len(wit.f2))
        candidates = diagnose(graph, syn, t, args.g, budget=args.budget_diag)
        sets = [sorted(c) for c in candidates]
        ambiguous = sorted(wit.f1) in sets and sorted(wit.f2) in sets and len(sets) >= 2
        report.update(
            {
                "mode": "witness-ambiguity",
                "witness": _witness_dict(wit),
                "t": t,
                "t_source": "witness",
                "consistent_hypotheses": sets,
                "ambiguous": ambiguous,
                "ok": ambiguous,
            }
        )
        report["elapsed_s"] = round(time.time() - started, 3)
        _emit(args, report)
        return 0 if ambiguous else 1

    # the oracle's value wherever it runs: the closed form has a known gap at S_{3,2}
    budget = args.budget_sd if model is Model.PMC else args.budget_pair
    if params is None or graph.vertex_count <= budget:
        t = tg_bruteforce(
            graph, args.g, model, pair_budget=args.budget_pair, sd_budget=args.budget_sd
        ).value
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
    for trial in range(args.trials):
        fmask = _random_good_set(graph, args.g, t, rng)
        truth = graph.labels_of(fmask)
        syn = generate_syndrome(assignment, truth, args.strategy, seed=rng.getrandbits(64))
        found = diagnose(graph, syn, t, args.g, budget=args.budget_diag)
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
    p.add_argument("--budget-pair", type=int, default=DEFAULT_PAIR_BUDGET, dest="budget_pair")
    p.add_argument("--budget-sd", type=int, default=DEFAULT_SD_BUDGET, dest="budget_sd")
    p.add_argument(
        "--budget-diag", type=int, default=DEFAULT_DIAGNOSIS_BUDGET, dest="budget_diag"
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
    p.set_defaults(func=cmd_kappa)

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
