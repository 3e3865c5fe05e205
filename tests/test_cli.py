import argparse
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from stardiag.base import DomainError, Model
from stardiag.cli import build_parser, main
from stardiag.diagnosability import build_witness, witness_for
from stardiag.topologies import _arrangement_graph, from_descriptor

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


@pytest.mark.parametrize("g", [0, 4])
def test_tg_records_a_formula_note_off_the_table(capsys, g):
    # the case table covers 1 <= g <= n - 1 only; the oracle still settles the cell
    from stardiag import Model, build_nk_star, tg_bruteforce

    code, report = run_json(capsys, "tg", "--graph", "nkstar:4,2", "--g", str(g))
    assert code == 0 and report["ok"]
    for model in Model:
        entry = report["results"][model.value]
        assert entry["formula"] is None and "t_g table needs" in entry["formula_note"]
        assert entry["bruteforce"] == tg_bruteforce(build_nk_star(4, 2), g, model).value
        assert "disagreement" not in entry


def test_tg_rejects_negative_g(capsys):
    for method in ("all", "brute", "witness", "formula"):
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
    assert entry["bruteforce_stats"]["candidates"] > 0


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
    assert report["bruteforce_stats"] == {"m_cap_sets": 6, "cuts_tested": 14}


@pytest.mark.parametrize("n", [4, 5])
def test_kappa_and_tg_report_the_same_least_set_search(capsys, n):
    for g in (1, 2, 3):
        cell = ("--graph", f"nkstar:{n},2", "--g", str(g), "--method", "brute", "--budget", "20")
        _, kappa = run_json(capsys, "kappa", *cell)
        _, tg = run_json(capsys, "tg", *cell, "--model", "pmc")
        searched = tg["results"]["pmc"]["bruteforce_stats"]["m_cap_sets"]
        assert kappa["bruteforce_stats"]["m_cap_sets"] == searched, g


def test_kappa_no_cut(capsys):
    code, report = run_json(
        capsys, "kappa", "--graph", "complete:4", "--g", "0", "--method", "brute"
    )
    assert code == 0
    assert report["bruteforce"] == "no cut"


def test_kappa_reports_the_formula_over_the_oracle_budget(capsys):
    # S_{6,3} has 120 vertices, over kappa's brute-force budget of 20
    kappa = ["kappa", "--graph", "nkstar:6,3", "--g", "3"]
    code, report = run_json(capsys, *kappa)
    assert code == 0 and report["ok"]
    assert report["formula"] == 8 and report["bruteforce"] is None
    assert report["bruteforce_skipped"] == "120 vertices over the brute-force budget of 20"
    assert main([*kappa, "--method", "brute"]) == 2
    assert "over the brute-force budget" in capsys.readouterr().err


def test_kappa_rejects_negative_g(capsys):
    for method in ("all", "brute", "formula"):
        code = main(["kappa", "--graph", "nkstar:4,2", "--g", "-1", "--method", method])
        assert code == 2
        assert "g must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "n_min, n_max, message",
    [("5", "4", "below --n-min"), ("0", "1", "starts at n = 3"), ("2", "4", "starts at n = 3")],
)
def test_table_rejects_an_empty_or_short_range(capsys, n_min, n_max, message):
    code = main(["table", "--n-min", n_min, "--n-max", n_max])
    assert code == 2
    assert message in capsys.readouterr().err


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


#: sha256 of each `witness` report without `elapsed_s` (json.dumps, sort_keys),
#: keyed (n, k, g) over every cell with n <= 7 that `witness_for` covers: any
#: change to a witness's sets, sizes or checks shows here
WITNESS_REPORT_SHA256 = {
    (3, 2, 1): "78ab8c623204d3620ff82f104554fc00bc9a5ee4da55041b6ed16ddcfd9c54bf",
    (4, 2, 1): "e06ff0ad5dc90c1594dc1f0b1987a843a1fea00c41856da9c0d81a79846e2ca1",
    (4, 2, 2): "7a6b96aab242ba93e646eb42ac24ab50820c33f5a42ff35d118822ccab5d851b",
    (4, 3, 1): "a0856d74997202f74a5ee67aba75a7f14e50bd1a6c024a688b958f9360bd9efc",
    (4, 3, 2): "b01cb4fa15652c68b76d5d43aa65973e036c84d6647650604ac7f0c8276420ed",
    (5, 2, 1): "abd02b80525652def8617115cbdba3623c6d9f842d7057fb372234071b4cd36c",
    (5, 2, 3): "1579d2fc0e8b2dc81536a58f150f999edebcac596f26dcd647f208818397000d",
    (5, 3, 2): "3acd4d21494afafde9bbd4d77c934250c3b4646e0e8af95beb869b604b8fb64d",
    (5, 3, 3): "66d4ce81607db425a233fd731d37bee3b48605fcd1a523b01d053f7fde7eca72",
    (5, 4, 1): "05a546852a9854a152cbb755749c1788335121e4df8ea5a7e252779a4761f8b5",
    (5, 4, 2): "2469d44953245fa7249f53f6281fd5f4fe167b5d56b9b466f4e06651049345c2",
    (5, 4, 3): "29f2a97b06d0fa1e5083f00b3c305b4a0264209df21ab4f86d760c9a14bf7d58",
    (6, 2, 1): "31c6b9fe0d8720f50846baa02ba39d0deef436224795ad65defdcad1d42b7b13",
    (6, 2, 4): "303d997cfb2535055069de430bf72902dae0b586057b84695ee65b964a0afbd0",
    (6, 3, 3): "fef04545c342445e97e2025b063b101e1c5bfcf06d48dcdeb46ebac91ed9efb1",
    (6, 3, 4): "affb7aad326c0c9f0a51e5b6c3c77ab2b850edea473e84bc630d2e594c479b3d",
    (6, 4, 2): "101ebfcca66ce9590871723c81059cd71dbfef5fe38dfa8169e1d432401cc1a0",
    (6, 4, 3): "4037d97234ab8c6c5c7f0427199849b5eb8ca56d4d70d6cce96b96997cddd7f5",
    (6, 4, 4): "2f4ac254f2be25e104c9211e83153d59aa8f9c7b2fe5de30c05ae6a141815a10",
    (6, 5, 1): "35852e490ab1cfd8c9b7d9c21076ee37b31bdb672cce15ea7be142d5a9945500",
    (6, 5, 2): "d0f9a48d526ae4db6bbad3a8b053333380966c5186f36c02d374be735886ef97",
    (6, 5, 3): "8b04a8370d9aac910c8285495a8aff85856badec8aba8b3bb4417f5c6d717a56",
    (6, 5, 4): "1c314af0f1b067467e0e3422e86a035769e5558b77e60f1018d09103e2990227",
    (7, 2, 1): "ee13ff991758629453383d4b5fd3bb50ea139ce936d994616a39772dbcfa40fb",
    (7, 2, 5): "cdb604726537208216c11db25691732bfb705eca2b8dad0955fd7c5a97c6af3b",
    (7, 3, 4): "d429ebed99e05f0e641306c496fbabf72ac1318b57f4516c937b3bb3286357ad",
    (7, 3, 5): "6130a17ce88fb9b6b2402755d1a7f06a9b3446f278afc5a7c1e03cc506bb73a2",
    (7, 4, 3): "de86d440c21d23d5f73afdb4d8255df10ee52972fb782062585c2ff07791b9ef",
    (7, 4, 4): "74bf698b2211800ffc128579bee766189eb713b2b4e4f2a392f0c4cf87c36413",
    (7, 4, 5): "7dcf32d47984d97963f66ac63b7777d4486abe5b3db21ff28ff6911651bb1dd3",
    (7, 5, 2): "35a7ac0692a75a1cd9f6aaf5ae8fdec67cdbe9713b12b2014691b6b1f5a9b133",
    (7, 5, 3): "10bf1bac7bc9b4c47b8521a5a973dd34e0b41f32a3b3c44d0686f994c90a6f48",
    (7, 5, 4): "0e068a3e0c21731351ebd22d12a282a842ae59d4d5c8c792fb0c2fc405178b2e",
    (7, 5, 5): "a19c8388bdee9def22248fc74833f7599f4993272ee227991d850ba5dfdb0f08",
    (7, 6, 1): "a7e7023b5e20a9cc9db5fddbfcea09b7d430099b32b10ae76839b6c1fd861d02",
    (7, 6, 2): "3cb6cef2c7ee4cdf88b8bc49c7629c2a33d14314644ac5917d0d33f335e46f62",
    (7, 6, 3): "48492a8ef23d6933f0581f1179f359201e928cdece66ec4d6e83ea187598fbe9",
    (7, 6, 4): "6b43d69209ad002084ab21689fe21a9435e23cf4d34cf91c28a76516997df281",
    (7, 6, 5): "7f4ec044722efe57b08610d167d76d525be02741cc1f6fde0b4f755984b1e9d4",
}


def _witness_cells(n_max):
    for n in range(3, n_max + 1):
        for k in range(1, n):
            for g in range(n):
                name = witness_for(n, k, g, Model.PMC) or witness_for(n, k, g, Model.MM)
                if name is not None:
                    yield name, n, k, g


def test_witness_reports_are_pinned(capsys):
    got = {}
    for name, n, k, g in _witness_cells(7):
        code, report = run_json(capsys, "witness", "--n", str(n), "--k", str(k), "--g", str(g))
        assert code == 0 and report["ok"]
        del report["elapsed_s"]
        text = json.dumps(report, sort_keys=True)
        got[n, k, g] = hashlib.sha256(text.encode()).hexdigest()
        # the label sets are read off the stored masks, and the report prints them
        wit = build_witness(name, n, k, g)
        sets = {"A": (wit.a_set, wit.a_mask), "F1": (wit.f1, wit.m1), "F2": (wit.f2, wit.m2)}
        for key, (labels, mask) in sets.items():
            assert labels == wit.graph.labels_of(mask)
            assert report["witness"][key] == sorted(labels)
    assert got == WITNESS_REPORT_SHA256


def test_witness_exits_1_when_its_bound_misses_the_closed_form(capsys, monkeypatch):
    import stardiag.diagnosability as diagnosability

    real = diagnosability.tg_formula

    def off_by_one(n, k, g, model):
        res = real(n, k, g, model)
        return type(res)(res.value + 1, res.model, res.method, res.provenance)

    monkeypatch.setattr(diagnosability, "tg_formula", off_by_one)
    code, report = run_json(capsys, "witness", "--n", "4", "--k", "2", "--g", "2")
    assert code == 1 and report["ok"] is False
    wit = report["witness"]
    assert wit["construction"] == "general" and wit["upper_bound"] == 5
    assert wit["sizes"] == {"A": 3, "F1": 3, "F2": 6}
    assert {key: len(wit[key]) for key in ("A", "F1", "F2")} == wit["sizes"]
    assert wit["checks"]["sizes_match_formula"] is False
    assert wit["checks"]["indistinguishable_pmc"] and wit["checks"]["indistinguishable_mm"]


def test_simulate_witness_refuses_an_uncovered_cell():
    argv = ["simulate", "--graph", "nkstar:3,2", "--g", "1", "--model", "pmc", "--witness"]
    args = build_parser().parse_args(argv)
    with pytest.raises(DomainError, match="no witness construction covers"):
        args.func(args)


def _c6_file(tmp_path):
    path = tmp_path / "c6.edges"
    path.write_text(from_descriptor("cycle:6").to_edgelist())
    return f"file:{path}"


def test_kappa_formula_notes_a_graph_off_the_family(capsys, tmp_path):
    argv = ["kappa", "--graph", _c6_file(tmp_path), "--g", "1", "--method", "formula"]
    code, report = run_json(capsys, *argv)
    assert code == 0 and report["ok"]
    assert report["formula"] is None
    assert report["formula_note"] == "formula needs a star-family graph descriptor"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["witness", "--n", "4", "--k", "1", "--g", "1"], "no witness construction covers"),
        (
            ["simulate", "--graph", "FILE", "--g", "1", "--model", "pmc", "--witness"],
            "--witness needs a star-family graph descriptor",
        ),
        (  # g = n - 1: t_3(S_{4,2}) = 0
            ["simulate", "--graph", "nkstar:4,2", "--g", "3", "--model", "pmc"],
            "t_g is 0; nothing to simulate",
        ),
        (  # an edge-list graph has no closed form to fall back on
            ["simulate", "--graph", "FILE", "--g", "1", "--model", "pmc", "--budget", "5"],
            "6 vertices over the brute-force budget of 5",
        ),
    ],
)
def test_rejected_inputs_exit_2(capsys, tmp_path, argv, message):
    argv = [_c6_file(tmp_path) if arg == "FILE" else arg for arg in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {message}")


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


def test_a_closed_form_error_in_the_general_band_is_reported(capsys, monkeypatch):
    # the witness records its mismatch with the formula and crosscheck shows it,
    # so neither command aborts with no report
    import stardiag.diagnosability as diagnosability

    real = diagnosability.tg_formula

    def off_by_one(n, k, g, model):
        res = real(n, k, g, model)
        return type(res)(res.value + 1, res.model, res.method, res.provenance)

    monkeypatch.setattr(diagnosability, "tg_formula", off_by_one)
    code, report = run_json(capsys, "table", "--n-min", "4", "--n-max", "4")
    assert code == 1 and not report["ok"]
    assert len(report["rows"]) == 18
    general = [row for row in report["rows"] if witness_for(4, row["k"], row["g"], Model.PMC)]
    assert len(general) == 6 and all(row["status"] == "DISAGREE" for row in general)
    code, report = run_json(capsys, "tg", "--graph", "nkstar:4,2", "--g", "2")
    assert code == 1 and not report["ok"]
    for entry in report["results"].values():
        assert entry["disagreement"] == {"formula": 6, "bruteforce": 5, "witness:general": 5}


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


def test_table_rows_match_tg_cell_by_cell(capsys):
    code, table = run_json(capsys, "table", "--n-min", "3", "--n-max", "6", "--budget", "30")
    assert code == 1 and not table["ok"]  # the PMC gap at S_{3,2}, g = 1
    rows = {(r["n"], r["k"], r["g"], r["model"]): r for r in table["rows"]}
    cells = sorted({key[:3] for key in rows})
    assert len(rows) == 2 * len(cells) == 2 * (4 + 9 + 16 + 25)
    statuses = Counter()
    for n, k, g in cells:
        argv = ["tg", "--graph", f"nkstar:{n},{k}", "--g", str(g), "--budget", "30"]
        code, tg = run_json(capsys, *argv)
        disagree = any(rows[n, k, g, m]["status"] == "DISAGREE" for m in ("pmc", "mm"))
        assert code == (1 if disagree else 0)
        for model, entry in tg["results"].items():
            want = {"n": n, "k": k, "g": g, "model": model, "formula": entry["formula"]}
            if "bruteforce_skipped" not in entry:
                want.update(bruteforce=entry["bruteforce"], status="brute-verified")
            elif "witness_upper_bounds" in entry:
                (bound,) = entry["witness_upper_bounds"].values()
                want.update(witness_upper_bound=bound, status="witness+formula")
            else:
                want["status"] = "formula-only"
            if "disagreement" in entry:
                want["status"] = "DISAGREE"
            assert rows[n, k, g, model] == want
            statuses[want["status"]] += 1
    assert statuses["DISAGREE"] == 1
    assert statuses["brute-verified"] and statuses["witness+formula"] and statuses["formula-only"]


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


def test_table_builds_each_graph_once_per_row(capsys, monkeypatch):
    import stardiag.diagnosability as diagnosability

    witnesses = []
    real = diagnosability.witness_general

    def counted(*args):
        witnesses.append(args[:3])
        return real(*args)

    monkeypatch.setattr(diagnosability, "witness_general", counted)
    _arrangement_graph.cache_clear()
    code, report = run_json(capsys, "table", "--n-min", "4", "--n-max", "7")
    assert code == 0 and report["ok"]
    assert _arrangement_graph.cache_info().misses == 18  # one build per (n, k) row
    assert len(witnesses) == len(set(witnesses)) == 34


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--graph", "nkstar:4,2", "--g", "2", "--model", "pmc", "--witness"],
        ["simulate", "--graph", "nkstar:4,2", "--g", "1", "--model", "mm", "--witness"],
        ["tg", "--graph", "nkstar:5,3", "--g", "3"],
    ],
)
def test_witness_reuses_the_graph_of_the_command(capsys, argv):
    _arrangement_graph.cache_clear()
    code, report = run_json(capsys, *argv)
    assert code == 0 and report["ok"]
    assert _arrangement_graph.cache_info().misses == 1


def test_split_sweep_builds_the_star_graph_once(capsys):
    _arrangement_graph.cache_clear()
    for k in range(2, 7):
        code, report = run_json(capsys, "split", "--n", "7", "--k", str(k))
        assert code == 0 and report["ok"], k
    assert _arrangement_graph.cache_info().misses == 6  # S_7 and S_{7,2..6}


def test_commands_leave_the_shared_graphs_as_built(capsys):
    _arrangement_graph.cache_clear()
    for argv in (
        ["tg", "--graph", "nkstar:4,2", "--g", "1", "--model", "both", "--method", "all"],
        ["kappa", "--graph", "nkstar:5,2", "--g", "1"],
        ["simulate", "--graph", "nkstar:4,2", "--g", "1", "--model", "pmc", "--trials", "3"],
        ["simulate", "--graph", "star:4", "--g", "2", "--model", "pmc", "--witness"],
        ["split", "--n", "4", "--k", "2"],
        ["table", "--n-min", "4", "--n-max", "4"],
    ):
        code, report = run_json(capsys, *argv)
        assert code == 0 and report["ok"], argv
    shared = [(4, 1, "nkstar:4,1"), (4, 2, "nkstar:4,2"), (4, 3, "nkstar:4,3")]
    shared += [(5, 2, "nkstar:5,2"), (4, 4, "star:4")]
    assert _arrangement_graph.cache_info().misses == len(shared)
    for n, k, desc in shared:
        graph = from_descriptor(desc)  # a hit: the object the commands used
        assert _arrangement_graph.cache_info().misses == len(shared), desc
        # every field, the vertex index, vertex_transitive and _min_degree included
        assert vars(graph) == vars(_arrangement_graph.__wrapped__(n, k, desc)), desc
        assert graph.vertex_transitive is True and graph._min_degree == n - 1, desc


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


#: the values each subcommand's parser sets, by dest; `--budget` is one value
#: under its three spellings
SUBCOMMAND_OPTIONS = {
    "gen": {"graph", "format", "out"},
    "tg": {"graph", "g", "model", "method", "budget", "seed", "workers", "out"},
    "kappa": {"graph", "g", "method", "budget", "seed", "out"},
    "witness": {"n", "k", "g", "out"},
    "split": {"n", "k", "seed", "out"},
    "table": {"n_min", "n_max", "budget", "seed", "out"},
    "simulate": {
        "graph", "g", "model", "trials", "strategy", "witness", "budget", "seed", "budget_diag",
        "out",
    },
}


def test_each_subcommand_parses_only_its_options():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {}
    for name, parser in sub.choices.items():
        options = [a for a in parser._actions if a.option_strings and a.dest != "help"]
        got[name] = {a.dest for a in options}
        assert len(options) == len(got[name]), name
        budget = [a.option_strings for a in options if a.dest == "budget"]
        assert budget in ([], [["--budget", "--budget-pair", "--budget-sd"]]), name
    assert got == SUBCOMMAND_OPTIONS
    assert sum(map(len, got.values())) == 40


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--n", "4", "--k", "2", "--g", "1", "--construction", "auto"],
        ["gen", "--graph", "nkstar:4,2", "--workers", "1"],
        ["split", "--n", "4", "--k", "2", "--budget", "5"],
        ["table", "--n-min", "4", "--budget-diag", "3"],
    ],
    ids=["witness-construction", "gen-workers", "split-budget", "table-budget-diag"],
)
def test_a_dropped_option_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["tg", "--graph", "nkstar:4,2", "--g", "1", "--out", "MISSING/r.json"],
        ["gen", "--graph", "nkstar:4,2", "--format", "edgelist", "--out", "MISSING/x.txt"],
        ["tg", "--graph", "file:DIRECTORY", "--g", "1"],
        ["tg", "--graph", "file:NOT_UTF8", "--g", "1"],
    ],
    ids=["report-out", "payload-out", "graph-directory", "graph-not-utf8"],
)
def test_an_unreadable_or_unwritable_file_exits_2(capsys, tmp_path, argv):
    bad = tmp_path / "bad.edges"
    bad.write_bytes(b"\xff\xfe")
    names = {"MISSING": tmp_path / "no-such-dir", "DIRECTORY": tmp_path, "NOT_UTF8": bad}
    for placeholder, path in names.items():
        argv = [arg.replace(placeholder, str(path)) for arg in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_benchmark_command_lines_parse(monkeypatch, capsys):
    # the benchmark drives the CLI with --budget-pair, --budget-sd and --workers,
    # many times in one process: main builds its parser once, and no call
    # leaves anything behind for the next
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.workloads import WORKLOADS, build

    build_parser.cache_clear()
    argvs = []
    for name in WORKLOADS:
        workload = build(name, seed=1)
        argvs += [item.argv for item in workload.items]
        argvs += [cell.argv for rung in workload.ladder for cell in rung.cells]
    shared = build_parser()
    for argv in argvs + argvs[::-1]:
        assert vars(shared.parse_args(argv)) == vars(build_parser.__wrapped__().parse_args(argv))

    with pytest.raises(SystemExit) as exc:
        main(["tg", "--graph", "nkstar:4,2"])  # no --g
    assert exc.value.code == 2
    code, report = run_json(capsys, "tg", "--graph", "nkstar:4,2", "--g", "1", "--budget", "30")
    assert code == 0 and report["results"]["mm"]["bruteforce"] == 3
    kappa = ["kappa", "--graph", "nkstar:4,2", "--g", "1"]
    assert shared.parse_args(kappa).budget == 20
    code, report = run_json(capsys, *kappa)
    assert code == 0 and report["bruteforce"] == 3
    assert run(capsys, "table", "--n-min", "4", "--n-max", "7")[0] == 0
    code, report = run_json(capsys, "table", "--n-min", "5")
    assert code == 0 and {row["n"] for row in report["rows"]} == {5}
    assert build_parser.cache_info().misses == 1


#: a small command line for each subcommand
SUBCOMMAND_ARGV = {
    "gen": ["--graph", "nkstar:4,2"],
    "tg": ["--graph", "nkstar:4,2", "--g", "2"],
    "kappa": ["--graph", "nkstar:4,2", "--g", "1"],
    "witness": ["--n", "4", "--k", "2", "--g", "1"],
    "split": ["--n", "4", "--k", "2"],
    "table": ["--n-min", "4"],
    "simulate": ["--graph", "nkstar:4,2", "--g", "1", "--model", "pmc", "--trials", "1"],
}


def test_every_subcommand_reports_elapsed_s(capsys):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(SUBCOMMAND_ARGV) == set(sub.choices)
    for name, argv in SUBCOMMAND_ARGV.items():
        code, report = run_json(capsys, name, *argv)
        assert code == 0 and report["ok"] is True and report["command"] == name, name
        assert isinstance(report["elapsed_s"], float) and report["elapsed_s"] >= 0, name
    # the known PMC gap at S_{3,2}: a report that is not ok exits 1
    code, report = run_json(capsys, "tg", "--graph", "nkstar:3,2", "--g", "1", "--model", "pmc")
    assert code == 1 and report["ok"] is False and report["command"] == "tg"


def test_gen_edgelist_to_stdout_sends_the_report_to_stderr(capsys):
    code = main(["gen", "--graph", "nkstar:4,2", "--format", "edgelist"])
    captured = capsys.readouterr()
    assert code == 0
    assert len(captured.out.splitlines()) == 18
    report = json.loads(captured.err)
    assert report["ok"] is True and report["command"] == "gen" and report["edges"] == 18


def _pinned_argvs():
    graphs = ["nkstar:3,2", "nkstar:4,2", "nkstar:4,3", "complete:4", "cycle:5", "cycle:6", "star:4"]
    for graph in graphs:
        for g in map(str, range(4)):
            for method in ("formula", "brute", "witness", "all"):
                yield ["tg", "--graph", graph, "--g", g, "--method", method]
            for method in ("formula", "brute", "all"):
                yield ["kappa", "--graph", graph, "--g", g, "--method", method]
            yield ["tg", "--graph", graph, "--g", g, "--budget", "30", "--model", "mm", "--seed", "7"]
            yield ["kappa", "--graph", graph, "--g", g, "--budget-pair", "30"]
    yield ["tg", "--graph", "nkstar:4,2", "--g", "-1"]
    yield ["kappa", "--graph", "nkstar:6,3", "--g", "3"]
    yield ["kappa", "--graph", "nkstar:6,3", "--g", "3", "--method", "brute"]
    yield ["table", "--n-min", "3", "--n-max", "7"]
    yield ["table", "--n-min", "3", "--n-max", "7", "--budget", "30"]
    yield ["table", "--n-min", "2"]
    for n, k, g in ((3, 2, 1), (5, 2, 1), (5, 3, 2), (4, 1, 1)):
        yield ["witness", "--n", str(n), "--k", str(k), "--g", str(g)]
    yield ["split", "--n", "5", "--k", "3"]
    yield ["gen", "--graph", "nkstar:4,2"]
    yield ["simulate", "--graph", "nkstar:4,2", "--g", "1", "--model", "mm", "--trials", "3", "--seed", "2"]
    yield ["simulate", "--graph", "nkstar:3,2", "--g", "1", "--model", "mm", "--witness"]
    yield ["simulate", "--graph", "nkstar:4,2", "--g", "3", "--model", "pmc"]


def _untimed(value):
    """`value` without its `*_s` timing fields, at every depth."""
    if isinstance(value, dict):
        return {key: _untimed(v) for key, v in value.items() if not key.endswith("_s")}
    if isinstance(value, list):
        return [_untimed(v) for v in value]
    return value


def test_cli_reports_are_pinned(capsys):
    # 267 command lines: each one's argv, exit code, untimed report and stderr
    digest = hashlib.sha256()
    for argv in _pinned_argvs():
        code = main(argv)
        captured = capsys.readouterr()
        report = _untimed(json.loads(captured.out)) if captured.out else None
        digest.update(json.dumps([argv, code, report, captured.err], sort_keys=True).encode())
    assert digest.hexdigest() == "dea8f9cea94b02e4a0e86830e80f2a71545426f2581768a5abc63f178f0ecae3"
