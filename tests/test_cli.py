import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stardiag.base import DomainError
from stardiag.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_gen_reports_graph_stats(capsys):
    code, report = run_json(capsys, "gen", "--graph", "nkstar:4,2")
    assert code == 0
    assert report["vertices"] == 12 and report["edges"] == 18
    assert report["regular"] and report["min_degree"] == 3


def test_gen_edgelist_to_file_round_trips(capsys, tmp_path):
    path = tmp_path / "g.edges"
    code, report = run_json(
        capsys, "gen", "--graph", "cycle:6", "--format", "edgelist", "--out", str(path)
    )
    assert code == 0 and report["written"] == str(path)
    code2, report2 = run_json(capsys, "gen", "--graph", f"file:{path}")
    assert code2 == 0
    assert report2["vertices"] == 6 and report2["edges"] == 6


def test_gen_dot_to_stdout(capsys):
    code, out = run(capsys, "gen", "--graph", "complete:3", "--format", "dot")
    assert code == 0
    assert '"u1" -- "u2";' in out


def test_tg_all_methods_agree_on_s42(capsys):
    code, report = run_json(
        capsys, "tg", "--graph", "nkstar:4,2", "--g", "2", "--method", "all"
    )
    assert code == 0 and report["ok"]
    for model in ("pmc", "mm"):
        entry = report["results"][model]
        assert entry["formula"] == 5
        assert entry["bruteforce"] == 5
        assert entry["witness_upper_bounds"]["general"] == 5


def test_tg_surfaces_the_known_disagreement(capsys):
    code, report = run_json(
        capsys, "tg", "--graph", "nkstar:3,2", "--g", "1", "--model", "pmc"
    )
    assert code == 1 and not report["ok"]
    assert report["results"]["pmc"]["disagreement"] == {"formula": 3, "bruteforce": 2}


def test_tg_rejects_negative_g(capsys):
    for method in ("all", "brute"):
        code = main(["tg", "--graph", "nkstar:4,2", "--g", "-1", "--method", method])
        assert code == 2
        assert "error:" in capsys.readouterr().err


def test_tg_settles_s43_by_brute_force(capsys):
    code, report = run_json(
        capsys, "tg", "--graph", "nkstar:4,3", "--g", "2", "--model", "pmc", "--budget-sd", "30"
    )
    assert code == 0 and report["ok"]
    entry = report["results"]["pmc"]
    assert entry["bruteforce"] == entry["formula"] == 11
    assert entry["witness_upper_bounds"]["general"] == 11
    assert entry["bruteforce_stats"]["closures"] > 0


def test_tg_settles_s52_mm_by_brute_force(capsys):
    from stardiag import Model, tg_formula

    for g in range(1, 5):
        code, report = run_json(
            capsys, "tg", "--graph", "nkstar:5,2", "--g", str(g), "--model", "mm",
            "--budget-pair", "20",
        )
        assert code == 0 and report["ok"], g
        entry = report["results"]["mm"]
        assert entry["bruteforce"] == entry["formula"] == tg_formula(5, 2, g, Model.MM).value
        assert entry["bruteforce_stats"]["scan_s"] < 10


def test_tg_accepts_and_ignores_workers(capsys):
    argv = ["tg", "--graph", "nkstar:4,2", "--g", "1", "--method", "brute"]
    _, one = run_json(capsys, *argv, "--workers", "1")
    _, four = run_json(capsys, *argv, "--workers", "4")
    for model in ("pmc", "mm"):
        assert one["results"][model]["bruteforce"] == four["results"][model]["bruteforce"]
        assert one["results"][model]["bruteforce_pair"] == four["results"][model]["bruteforce_pair"]


def test_tg_formula_only_for_big_graphs(capsys):
    code, report = run_json(
        capsys, "tg", "--graph", "nkstar:6,5", "--g", "4", "--method", "formula"
    )
    assert code == 0
    assert report["results"]["pmc"]["formula"] == 239  # (n-g)(g+1)!-1


def test_kappa_agreement(capsys):
    code, report = run_json(capsys, "kappa", "--graph", "nkstar:4,2", "--g", "2")
    assert code == 0 and report["ok"]
    assert report["formula"] == 3 and report["bruteforce"] == 3


def test_kappa_no_cut(capsys):
    code, report = run_json(
        capsys, "kappa", "--graph", "complete:4", "--g", "0", "--method", "brute"
    )
    assert code == 0
    assert report["bruteforce"] == "no cut"


def test_witness_subcommand(capsys):
    code, report = run_json(
        capsys, "witness", "--n", "5", "--k", "3", "--g", "2"
    )
    assert code == 0
    wit = report["witness"]
    assert wit["sizes"] == {"A": 3, "F1": 6, "F2": 9}
    assert wit["upper_bound"] == 8
    assert all(wit["checks"].values())


def test_witness_auto_builds_snk2_mm(capsys):
    code, report = run_json(capsys, "witness", "--n", "5", "--k", "2", "--g", "1")
    assert code == 0
    assert report["witness"]["construction"] == "snk2-mm"
    assert report["witness"]["upper_bound"] == 4


@pytest.mark.parametrize(
    "construction, cell", [("general", ("3", "2", "1")), ("snk2-mm", ("5", "2", "3"))]
)
def test_witness_refuses_a_construction_off_its_cells(capsys, construction, cell):
    n, k, g = cell
    code = main(["witness", "--n", n, "--k", k, "--g", g, "--construction", construction])
    assert code == 2
    assert "does not cover" in capsys.readouterr().err


def test_simulate_witness_refuses_an_uncovered_cell():
    argv = ["simulate", "--graph", "nkstar:3,2", "--g", "1", "--model", "pmc", "--witness"]
    args = build_parser().parse_args(argv)
    with pytest.raises(DomainError, match="no witness construction covers"):
        args.func(args)


def test_split_subcommand(capsys):
    code, report = run_json(capsys, "split", "--n", "4", "--k", "2")
    assert code == 0 and report["ok"]
    assert report["t"] == 2 and report["fibers"] == 12


def test_table_n4_fully_verified(capsys):
    code, report = run_json(capsys, "table", "--n-min", "4")
    assert code == 0 and report["ok"]
    assert all(row["status"] != "DISAGREE" for row in report["rows"])
    assert any(row["status"] == "brute-verified" for row in report["rows"])


def test_table_n3_flags_the_pmc_gap(capsys):
    code, report = run_json(capsys, "table", "--n-min", "3")
    assert code == 1 and not report["ok"]
    bad = [row for row in report["rows"] if row["status"] == "DISAGREE"]
    assert bad == [
        {
            "n": 3,
            "k": 2,
            "g": 1,
            "model": "pmc",
            "formula": 3,
            "bruteforce": 2,
            "status": "DISAGREE",
        }
    ]


def test_table_builds_each_witness_once(capsys, monkeypatch):
    import stardiag.diagnosability as diagnosability

    calls = []
    real = diagnosability.witness_general

    def counted(*cell):
        calls.append(cell)
        return real(*cell)

    monkeypatch.setattr(diagnosability, "witness_general", counted)
    code, report = run_json(capsys, "table", "--n-min", "4", "--n-max", "5")
    assert code == 0 and report["ok"]
    assert len(calls) == len(set(calls)) == 3 + 6  # the general cells of n = 4 and n = 5
    row = [r for r in report["rows"] if (r["n"], r["k"], r["g"], r["model"]) == (5, 2, 1, "mm")]
    assert row == [
        {
            "n": 5,
            "k": 2,
            "g": 1,
            "model": "mm",
            "formula": 4,
            "witness_upper_bound": 4,
            "status": "witness+formula",
        }
    ]


def test_table_leaves_over_cap_witnesses_formula_only(capsys):
    # the general witness of S_{8,k} for k >= 5 needs a graph over the 5040-vertex cap
    code, report = run_json(capsys, "table", "--n-min", "8", "--n-max", "8")
    assert code == 0 and report["ok"] and len(report["rows"]) == 98
    assert {row["status"] for row in report["rows"] if row["k"] >= 5} == {"formula-only"}
    assert any(row["status"] == "witness+formula" for row in report["rows"] if row["k"] == 4)


def test_simulate_injection_unique_diagnoses(capsys):
    code, report = run_json(
        capsys,
        "simulate",
        "--graph",
        "nkstar:4,2",
        "--g",
        "2",
        "--model",
        "pmc",
        "--trials",
        "5",
        "--seed",
        "1",
    )
    assert code == 0 and report["ok"]
    assert report["t"] == 5
    assert report["unique_diagnoses"] == 5
    for trial in report["trial_log"]:
        assert trial["unique"] and trial["candidates"] == [trial["truth"]]
    assert report["diagnosis_stats"]["leaves"] >= 5  # summed over the trials


def test_simulate_reaches_30_vertices(capsys):
    # the benchmark's diagnosis ladder above 20 vertices, under the default oracle cap;
    # the clauses settle each syndrome after a branch or two, so the search stays small
    nodes = trials = 0
    for graph in ("nkstar:4,3", "nkstar:6,2"):
        for model in ("pmc", "mm"):
            for g in ("1", "2"):
                code, report = run_json(
                    capsys, "simulate", "--graph", graph, "--g", g, "--model", model,
                    "--trials", "3", "--budget-diag", "30", "--seed", "5",
                )
                assert code == 0 and report["unique_diagnoses"] == 3, (graph, model, g)
                nodes += report["diagnosis_stats"]["search_nodes"]
                trials += 3
    assert nodes <= 4 * trials


def test_simulate_takes_t_from_the_oracle_at_the_gap(capsys):
    # the closed form says 3 at S_{3,2} under PMC, g = 1; exhaustion says 2
    code, report = run_json(
        capsys, "simulate", "--graph", "nkstar:3,2", "--g", "1", "--model", "pmc",
        "--trials", "5", "--seed", "3",
    )
    assert report["t"] == 2 and report["t_source"] == "bruteforce"
    assert code == 0 and report["unique_diagnoses"] == 5
    _, big = run_json(
        capsys, "simulate", "--graph", "nkstar:5,2", "--g", "1", "--model", "mm",
        "--trials", "1", "--budget-diag", "20",
    )
    assert big["t"] == 4 and big["t_source"] == "formula"


def test_simulate_needs_no_diagnosis_cap(capsys):
    # 20 vertices and no --budget-diag: diagnose has no vertex cap, and the option is ignored
    argv = ["simulate", "--graph", "nkstar:5,2", "--g", "1", "--model", "pmc", "--trials", "1"]
    code, report = run_json(capsys, *argv)
    assert code == 0 and report["unique_diagnoses"] == 1
    code, capped = run_json(capsys, *argv, "--budget-diag", "4")
    assert code == 0 and capped == {**report, "elapsed_s": capped["elapsed_s"]}


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_simulate_rejects_nonpositive_trials(capsys, trials):
    code = main(
        ["simulate", "--graph", "nkstar:4,2", "--g", "1", "--model", "pmc", "--trials", trials]
    )
    captured = capsys.readouterr()
    assert code == 2 and "--trials must be at least 1" in captured.err
    assert captured.out == ""


def test_simulate_witness_ambiguity(capsys):
    code, report = run_json(
        capsys,
        "simulate",
        "--graph",
        "nkstar:3,2",
        "--g",
        "1",
        "--model",
        "mm",
        "--witness",
    )
    assert code == 0 and report["ambiguous"]
    sets = report["consistent_hypotheses"]
    assert sorted(report["witness"]["F1"]) in sets
    assert sorted(report["witness"]["F2"]) in sets
    assert report["diagnosis_stats"]["leaves"] >= len(sets)


def test_simulate_witness_names_the_graph_it_diagnoses(capsys):
    # a star:n graph carries its witness on S_{n,n-1}, and that graph is diagnosed
    code, report = run_json(
        capsys, "simulate", "--graph", "star:4", "--g", "2", "--model", "pmc", "--witness"
    )
    assert code == 0 and report["ambiguous"]
    assert report["graph"] == report["witness"]["graph"] == "nkstar:4,3"
    assert {len(label) for h in report["consistent_hypotheses"] for label in h} == {3}
    code, report = run_json(
        capsys, "simulate", "--graph", "nkstar:4,3", "--g", "2", "--model", "pmc", "--witness"
    )
    assert code == 0 and report["graph"] == "nkstar:4,3"


def test_error_exit_code(capsys):
    code = main(["gen", "--graph", "nkstar:99,2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_gen_over_the_cap_is_not_a_bad_descriptor(capsys):
    code = main(["gen", "--graph", "nkstar:8,7"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: S_{8,7} has 40320 vertices, over the budget of 5040\n"
    code = main(["gen", "--graph", "nkstar:8,x"])
    assert code == 2 and capsys.readouterr().err.startswith("error: bad graph descriptor")


def _count_nk_star_builds(monkeypatch):
    """Record the (n, k) of every build_nk_star call, through each module global that holds it."""
    import stardiag.topologies as topo

    calls = []
    real = topo.build_nk_star

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("stardiag") and getattr(module, "build_nk_star", None) is real:
            monkeypatch.setattr(module, "build_nk_star", counted)
    return calls


def test_table_builds_each_graph_once_per_row(capsys, monkeypatch):
    import stardiag.diagnosability as diagnosability

    builds = _count_nk_star_builds(monkeypatch)
    witnesses = []
    real = diagnosability.witness_general

    def counted(*args):
        witnesses.append(args[:3])
        return real(*args)

    monkeypatch.setattr(diagnosability, "witness_general", counted)
    code, report = run_json(capsys, "table", "--n-min", "4", "--n-max", "7")
    assert code == 0 and report["ok"]
    assert sorted(builds) == [(n, k) for n in range(4, 8) for k in range(1, n)]  # 18 rows
    assert len(witnesses) == len(set(witnesses)) == 34


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--graph", "nkstar:4,2", "--g", "2", "--model", "pmc", "--witness"],
        ["simulate", "--graph", "nkstar:4,2", "--g", "1", "--model", "mm", "--witness"],
        ["tg", "--graph", "nkstar:5,3", "--g", "3"],
    ],
)
def test_witness_reuses_the_graph_of_the_command(capsys, monkeypatch, argv):
    builds = _count_nk_star_builds(monkeypatch)
    code, report = run_json(capsys, *argv)
    assert code == 0 and report["ok"]
    assert len(builds) == 1


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "stardiag", "split", "--n", "4", "--k", "2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["ok"]


def test_out_flag_writes_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code = main(["tg", "--graph", "nkstar:4,1", "--g", "1", "--out", str(path)])
    assert code == 0
    report = json.loads(path.read_text())
    assert report["results"]["pmc"]["formula"] == 1


def test_budget_spellings_set_one_value():
    parse = build_parser().parse_args
    tg = ["tg", "--graph", "nkstar:4,2", "--g", "1"]
    assert parse(tg).budget == 16
    assert parse([*tg, "--budget-pair", "11", "--budget-sd", "30"]).budget == 30
    assert parse([*tg, "--budget-sd", "30", "--budget", "12"]).budget == 12
    assert parse(["kappa", "--graph", "nkstar:4,2", "--g", "1"]).budget == 20
    assert parse(["kappa", "--graph", "nkstar:4,2", "--g", "1", "--budget-pair", "9"]).budget == 9


def test_benchmark_command_lines_parse(monkeypatch):
    # the benchmark drives the CLI with --budget-pair, --budget-sd and --workers
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.workloads import WORKLOADS, build

    parser = build_parser()
    for name in WORKLOADS:
        workload = build(name, seed=1)
        argvs = [item.argv for item in workload.items]
        argvs += [cell.argv for rung in workload.ladder for cell in rung.cells]
        for argv in argvs:
            parser.parse_args(argv)
