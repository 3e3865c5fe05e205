import json

from stardiag.cli import main


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


def test_error_exit_code(capsys):
    code = main(["gen", "--graph", "nkstar:99,2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_out_flag_writes_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code = main(["tg", "--graph", "nkstar:4,1", "--g", "1", "--out", str(path)])
    assert code == 0
    report = json.loads(path.read_text())
    assert report["results"]["pmc"]["formula"] == 1
