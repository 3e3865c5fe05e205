"""The benchmark's four workloads: CLI item lists, references and ladders.

Every item is one ``stardiag`` CLI invocation.  Each carries a check that
compares the JSON report with a reference recorded here (the values equal
``tg_formula`` at the commit that introduced the benchmark), so a faster
but wrong program reads as failed, not as faster.

This module imports nothing from ``stardiag``: the set-up probe and the
frontier child import it themselves, inside their own timing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import factorial
from typing import Callable

WORKLOADS = ("oracle-pmc", "oracle-mm", "certify", "simulate")

#: the frontier ladder shared by the oracle and diagnosis probes: (n, k)
LADDER = ((4, 2), (5, 2), (4, 3), (6, 2))

#: expected t_g values of the timed oracle cells, keyed (n, k, model, g)
TG_REFERENCE = {
    **{(5, 2, "pmc", g): v for g, v in ((1, 5), (2, 6), (3, 7))},
    **{(12, 1, "mm", g): 5 for g in range(1, 7)},
    (12, 1, "mm", 7): 4,
    **{(4, 2, "mm", g): v for g, v in ((1, 3), (2, 5), (3, 0))},
    **{(4, 2, "pmc", g): v for g, v in ((1, 4), (2, 5), (3, 0))},
}

#: R_g-connectivity by brute force, keyed (n, k, g)
KAPPA_REFERENCE = {(5, 2, 1): 4, (5, 2, 2): 4, (5, 2, 3): 4, (4, 2, 1): 3, (4, 2, 2): 3}

#: t used by simulate, keyed (n, k, model, g); witness cells use |F2|
SIM_T_REFERENCE = {
    (4, 2, "pmc", 1): 4, (4, 2, "pmc", 2): 5, (4, 2, "mm", 1): 3, (4, 2, "mm", 2): 5,
    (5, 2, "pmc", 1): 5, (5, 2, "pmc", 2): 6, (5, 2, "mm", 1): 4, (5, 2, "mm", 2): 6,
}
WITNESS_T_REFERENCE = {(4, 2, "pmc", 2): 6, (4, 2, "mm", 1): 4, (5, 2, "mm", 1): 5, (5, 2, "pmc", 3): 8}

Check = Callable[[int, dict], "str | None"]


@dataclass
class Item:
    """One CLI invocation with its reference check.

    ``cells`` names the frontier cells this item settles when it finishes
    within the budget, so the prober need not run them again.
    """

    argv: list[str]
    check: Check
    cells: tuple = ()


@dataclass
class Cell:
    """One frontier cell: run in a child, settled when ``check`` passes within B."""

    key: tuple
    argv: list[str]
    check: Check


@dataclass
class Rung:
    vertices: int
    cells: list[Cell] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    items: list[Item]
    ladder: list[Rung]
    setup_graphs: list[str]
    setup_assignments: bool = False


def _nk(desc: str) -> tuple[int, int]:
    n, k = desc.split(":")[1].split(",")
    return int(n), int(k)


def _ok(rc: int, report: dict) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    if report.get("ok") is not True:
        return "report ok is not true"
    return None


def _tg_check(model: str, expected: int | None) -> Check:
    def check(rc, report):
        err = _ok(rc, report)
        if err:
            return err
        entry = report["results"][model]
        if entry.get("bruteforce") is None:
            return f"no brute-force value ({entry.get('bruteforce_skipped', 'skipped')})"
        if expected is not None:
            got = (entry.get("bruteforce"), entry.get("formula"))
            if got != (expected, expected):
                return f"(bruteforce, formula) = {got}, expected {expected}"
        return None

    return check


def _tg_argv(desc: str, g: int, model: str, budgets: list[str]) -> list[str]:
    return ["tg", "--graph", desc, "--g", str(g), "--model", model, "--method", "all",
            "--workers", "1", *budgets]


def _oracle_item(desc: str, g: int, model: str, budgets: list[str]) -> Item:
    n, k = _nk(desc)
    return Item(
        argv=_tg_argv(desc, g, model, budgets),
        check=_tg_check(model, TG_REFERENCE[(n, k, model, g)]),
        cells=((desc, model, g),),
    )


def _oracle_ladder(model: str, budgets: list[str], rungs) -> list[Rung]:
    ladder = []
    for n, k in rungs:
        desc = f"nkstar:{n},{k}"
        rung = Rung(vertices=factorial(n) // factorial(n - k))
        for g in range(1, n):
            rung.cells.append(Cell(
                key=(desc, model, g),
                argv=_tg_argv(desc, g, model, budgets),
                check=_tg_check(model, TG_REFERENCE.get((n, k, model, g))),
            ))
        ladder.append(rung)
    return ladder


def _table_check(n_min: int, n_max: int) -> Check:
    rows_expected = sum(2 * (n - 1) ** 2 for n in range(n_min, n_max + 1))

    def check(rc, report):
        err = _ok(rc, report)
        if err:
            return err
        rows = report["rows"]
        if len(rows) != rows_expected:
            return f"{len(rows)} rows, expected {rows_expected}"
        for row in rows:
            for key in ("bruteforce", "witness_upper_bound"):
                if key in row and row[key] != row["formula"]:
                    return f"row {row['n']},{row['k']},{row['g']},{row['model']}: {key} != formula"
            if row["status"] == "DISAGREE":
                return f"row {row['n']},{row['k']},{row['g']},{row['model']} disagrees"
            ref = TG_REFERENCE.get((row["n"], row["k"], row["model"], row["g"]))
            if ref is not None and row["formula"] != ref:
                return f"row {row['n']},{row['k']},{row['g']},{row['model']}: formula {row['formula']} != {ref}"
        return None

    return check


def _split_check(n: int, k: int) -> Check:
    def check(rc, report):
        err = _ok(rc, report)
        if err:
            return err
        got = (report["t"], report["fibers"])
        want = (factorial(n - k), factorial(n) // factorial(n - k))
        return None if got == want else f"(t, fibers) = {got}, expected {want}"

    return check


def _kappa_check(n: int, k: int, g: int) -> Check:
    def check(rc, report):
        err = _ok(rc, report)
        if err:
            return err
        want = KAPPA_REFERENCE[(n, k, g)]
        if report["bruteforce"] != want or report["formula"] not in (None, want):
            return f"bruteforce {report['bruteforce']}, formula {report['formula']}, expected {want}"
        return None

    return check


def _sim_check(t_expected: int | None, trials: int | None) -> Check:
    def check(rc, report):
        err = _ok(rc, report)
        if err:
            return err
        if t_expected is not None and report["t"] != t_expected:
            return f"t = {report['t']}, expected {t_expected}"
        if trials is not None and report["unique_diagnoses"] != trials:
            return f"{report['unique_diagnoses']} of {trials} diagnoses unique"
        return None

    return check


def _sim_argv(desc: str, g: int, model: str, seed: int, extra: list[str]) -> list[str]:
    return ["simulate", "--graph", desc, "--g", str(g), "--model", model, "--seed", str(seed),
            "--strategy", "random", *extra]


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload's items, frontier ladder and set-up list for one seed.

    ``smoke`` keeps only S_{4,2} cells, so a run takes seconds; it checks
    that every metric is emitted, not how fast the program is.
    """
    rng = random.Random(f"{name}:{seed}")
    seed_arg = ["--seed", str(seed)]
    if name == "oracle-pmc":
        # the pair cap stays at 12, so every graph above it takes the
        # symmetric-difference scan; smoke lowers it to reach that scan on S_{4,2}
        if smoke:
            budgets = ["--budget-pair", "11", "--budget-sd", "30", *seed_arg]
            items = [_oracle_item("nkstar:4,2", g, "pmc", budgets) for g in (1, 2, 3)]
        else:
            items = [_oracle_item("nkstar:5,2", g, "pmc", ["--budget-sd", "20", *seed_arg])
                     for g in (1, 2, 3)]
        ladder = _oracle_ladder(
            "pmc", ["--budget-pair", "11" if smoke else "12", "--budget-sd", "30", *seed_arg],
            LADDER[:1] if smoke else LADDER,
        )
        graphs = ["nkstar:4,2" if smoke else "nkstar:5,2"]
        return Workload(name, items, ladder, graphs)
    if name == "oracle-mm":
        items = [_oracle_item("nkstar:4,2", g, "mm", seed_arg) for g in (1, 2, 3)]
        if not smoke:
            items = [_oracle_item("nkstar:12,1", g, "mm", seed_arg) for g in range(1, 8)] + items
        ladder = _oracle_ladder("mm", ["--budget-pair", "30", *seed_arg],
                                LADDER[:1] if smoke else LADDER)
        graphs = ["nkstar:4,2"] if smoke else ["nkstar:12,1", "nkstar:4,2"]
        return Workload(name, items, ladder, graphs)
    if name == "certify":
        n_max = 4 if smoke else 7
        items = [Item(["table", "--n-min", "4", "--n-max", str(n_max), *seed_arg],
                      _table_check(4, n_max),
                      cells=tuple(("table", n) for n in range(4, n_max + 1)))]
        items += [Item(["split", "--n", str(n_max), "--k", str(k), *seed_arg],
                       _split_check(n_max, k)) for k in range(2, n_max)]
        kappa_graph = (4, 2) if smoke else (5, 2)
        items += [Item(["kappa", "--graph", "nkstar:%d,%d" % kappa_graph, "--g", str(g), *seed_arg],
                       _kappa_check(*kappa_graph, g)) for g in range(1, kappa_graph[0] - 1)]
        # the certify path's frontier is one `table` row per n, up to S_8
        ladder = [
            Rung(vertices=factorial(n), cells=[Cell(
                key=("table", n),
                argv=["table", "--n-min", str(n), "--n-max", str(n), *seed_arg],
                check=_table_check(n, n),
            )])
            for n in range(4, (5 if smoke else 9))
        ]
        graphs = [f"nkstar:{n},{k}" for n in range(4, n_max + 1) for k in range(1, n)]
        return Workload(name, items, ladder, graphs + [f"star:{n_max}"])
    if name == "simulate":
        items = []
        per_graph = (("nkstar:4,2", 3),) if smoke else (("nkstar:4,2", 10), ("nkstar:5,2", 15))
        for desc, trials in per_graph:
            n, k = _nk(desc)
            for model in ("pmc", "mm"):
                for g in (1, 2):
                    argv = _sim_argv(desc, g, model, rng.getrandbits(32),
                                     ["--trials", str(trials), "--budget-diag", "20"])
                    items.append(Item(argv, _sim_check(SIM_T_REFERENCE[(n, k, model, g)], trials)))
        witness_cells = [(4, 2, "pmc", 2), (4, 2, "mm", 1)]
        if not smoke:
            witness_cells += [(5, 2, "mm", 1), (5, 2, "pmc", 3)]
        for n, k, model, g in witness_cells:
            argv = _sim_argv(f"nkstar:{n},{k}", g, model, rng.getrandbits(32),
                             ["--witness", "--budget-diag", "20"])
            items.append(Item(argv, _sim_check(WITNESS_T_REFERENCE[(n, k, model, g)], None)))
        # diagnosis frontier: three injection trials per (model, g) cell
        ladder = []
        for n, k in LADDER[:1] if smoke else LADDER:
            desc = f"nkstar:{n},{k}"
            rung = Rung(vertices=factorial(n) // factorial(n - k))
            for model in ("pmc", "mm"):
                for g in (1, 2):
                    argv = _sim_argv(desc, g, model, rng.getrandbits(32),
                                     ["--trials", "3", "--budget-diag", "30"])
                    rung.cells.append(Cell((desc, model, g), argv,
                                           _sim_check(SIM_T_REFERENCE.get((n, k, model, g)), 3)))
            ladder.append(rung)
        graphs = [desc for desc, _ in per_graph]
        return Workload(name, items, ladder, graphs, setup_assignments=True)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
