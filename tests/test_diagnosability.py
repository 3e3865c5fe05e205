import math
from itertools import combinations

import pytest

from stardiag import (
    Model,
    build_complete,
    build_cycle,
    build_nk_star,
    crosscheck,
    tg_bruteforce,
    tg_formula,
    witness_cycle6,
    witness_general,
    witness_snk2_mm,
)
from stardiag.base import BudgetError, DomainError
from stardiag.diagnosability import _pmc_sd_scan
from stardiag.faults import (
    good_faulty_sets,
    indist_pmc_mask,
    is_g_good_neighbor,
    min_subgraph_size_oracle,
)


# -- closed forms --------------------------------------------------------


def test_formula_domain_checks():
    for n, k, g in [(2, 1, 1), (4, 0, 1), (4, 4, 1), (4, 2, 0), (4, 2, 4)]:
        with pytest.raises(DomainError):
            tg_formula(n, k, g, Model.PMC)


def test_formula_frozen_values():
    assert tg_formula(3, 1, 1, Model.PMC).value == 1
    assert tg_formula(3, 1, 1, Model.MM).value == 0
    assert tg_formula(3, 2, 1, Model.PMC).value == 3
    assert tg_formula(3, 2, 1, Model.MM).value == 1
    assert tg_formula(4, 2, 1, Model.PMC).value == 4
    assert tg_formula(4, 2, 1, Model.MM).value == 3
    assert tg_formula(4, 2, 2, Model.PMC).value == 5
    assert tg_formula(4, 2, 2, Model.MM).value == 5
    assert tg_formula(5, 3, 1, Model.MM).value == 6  # n+k-2
    assert tg_formula(5, 3, 2, Model.PMC).value == 8  # mid band
    assert tg_formula(5, 4, 2, Model.PMC).value == 17  # (n-g)(g+1)!-1
    assert tg_formula(5, 4, 2, Model.MM).value == 17
    assert tg_formula(6, 1, 2, Model.PMC).value == 2  # ceil(6/2)-1
    assert tg_formula(6, 1, 4, Model.MM).value == 1  # n-g-1
    assert tg_formula(7, 1, 6, Model.PMC).value == 0  # g = n-1


def test_formula_total_over_domain():
    # every (n, k, g, model) in the valid domain is covered by some band,
    # and overlapping bands never disagree (tg_formula would raise)
    for n in range(3, 11):
        for k in range(1, n):
            for g in range(1, n):
                for model in Model:
                    res = tg_formula(n, k, g, model)
                    assert res.applicable, (n, k, g, model)
                    assert res.value >= 0


def test_formula_band_overlap_identity():
    # at g = n-k the mid band and the high band coincide exactly
    for n in range(4, 11):
        for k in range(2, n):
            g = n - k
            mid = n + g * (k - 1) - 1
            high = math.factorial(g + 1) * (n - g) // math.factorial(n - k) - 1
            assert mid == high == k * (n - k + 1) - 1
            if 1 <= g <= n - 1:
                pmc = tg_formula(n, k, g, Model.PMC)
                assert pmc.value == mid
                if g >= 2:
                    assert tg_formula(n, k, g, Model.MM).value == mid


def test_formula_star_band_agrees_with_high_band():
    for n in range(4, 9):
        for g in range(1, n - 1):
            val = tg_formula(n, n - 1, g, Model.PMC).value
            assert val == (n - g) * math.factorial(g + 1) - 1


# -- exhaustive oracle ---------------------------------------------------


def test_bruteforce_frozen_small_values():
    s31 = build_nk_star(3, 1)
    assert tg_bruteforce(s31, 1, Model.PMC).value == 1
    assert tg_bruteforce(s31, 1, Model.MM).value == 0
    s32 = build_nk_star(3, 2)
    assert tg_bruteforce(s32, 1, Model.MM).value == 1
    # the six-cycle's complementary halves are PMC-indistinguishable, so
    # the exhaustive value is 2 (the closed-form table claims 3 here)
    res = tg_bruteforce(s32, 1, Model.PMC)
    assert res.value == 2
    assert res.pair is not None
    f1, f2 = (frozenset(p) for p in res.pair)
    assert f1 != f2
    assert is_g_good_neighbor(s32, f1, 1) and is_g_good_neighbor(s32, f2, 1)
    assert indist_pmc_mask(s32, s32.mask_of(f1), s32.mask_of(f2))


def test_bruteforce_n4_values():
    s41 = build_nk_star(4, 1)
    for model in Model:
        assert tg_bruteforce(s41, 1, model).value == 1
        assert tg_bruteforce(s41, 2, model).value == 1
    s42 = build_nk_star(4, 2)
    assert tg_bruteforce(s42, 1, Model.PMC).value == 4
    assert tg_bruteforce(s42, 1, Model.MM).value == 3
    assert tg_bruteforce(s42, 2, Model.PMC).value == 5
    assert tg_bruteforce(s42, 2, Model.MM).value == 5


def test_bruteforce_degenerate_g():
    s42 = build_nk_star(4, 2)
    # g = n-1 = 3: only unions of 12-vertex components qualify, t = 0
    assert tg_bruteforce(s42, 3, Model.PMC).value == 0
    assert tg_bruteforce(s42, 3, Model.MM).value == 0
    # K3 with g=3: no proper 3-good-neighbor faulty set exists at all
    res = tg_bruteforce(build_complete(3), 3, Model.PMC)
    assert not res.applicable


def test_bruteforce_rejects_negative_g():
    s42 = build_nk_star(4, 2)
    for model in Model:
        with pytest.raises(DomainError):
            tg_bruteforce(s42, -1, model)


def test_bruteforce_budget_errors():
    s52 = build_nk_star(5, 2)  # 20 vertices
    with pytest.raises(BudgetError):
        tg_bruteforce(s52, 1, Model.MM)  # over the pair budget
    with pytest.raises(BudgetError):
        tg_bruteforce(s52, 1, Model.PMC)  # over the default SD budget too


def test_bruteforce_workers_agree():
    s42 = build_nk_star(4, 2)
    for model in Model:
        solo = tg_bruteforce(s42, 1, model, workers=1)
        multi = tg_bruteforce(s42, 1, model, workers=4)
        assert solo.value == multi.value


def test_mm_value_never_exceeds_pmc_value():
    for graph in (
        build_nk_star(3, 1),
        build_nk_star(3, 2),
        build_nk_star(4, 1),
        build_nk_star(4, 2),
        build_cycle(6),
        build_complete(5),
    ):
        for g in range(1, 4):
            pmc = tg_bruteforce(graph, g, Model.PMC, pair_budget=12)
            mm = tg_bruteforce(graph, g, Model.MM, pair_budget=12)
            if pmc.applicable and mm.applicable:
                assert mm.value <= pmc.value


def test_pmc_sd_scan_matches_pair_scan():
    # the factored symmetric-difference strategy must agree with the
    # direct pairwise scan on every graph small enough to run both
    from conftest import random_graph

    graphs = [build_cycle(6), build_complete(4), build_nk_star(4, 2)]
    graphs += [random_graph(9, 0.35, seed) for seed in range(6)]
    for graph in graphs:
        for g in range(4):
            good = good_faulty_sets(graph, g)
            if not good:
                continue
            m_cap = max(m.bit_count() for m in good)
            best = None
            for i, j in combinations(range(len(good)), 2):
                if indist_pmc_mask(graph, good[i], good[j]):
                    p = max(good[i].bit_count(), good[j].bit_count())
                    best = p if best is None else min(best, p)
            sd_p, _ = _pmc_sd_scan(graph, g, m_cap)
            assert sd_p == best, (graph.descriptor, g)


def test_pmc_sd_scan_matches_reference_scan():
    # the pruned scan returns the unpruned scan's exact (p, pair), order and
    # tie-breaks included, on every cell small enough to run the reference
    from conftest import small_graphs
    from reference_scan import _pmc_sd_scan as reference_scan

    for graph in small_graphs(13):
        for g in range(5):
            smallest = min_subgraph_size_oracle(graph, g, budget=13)
            if smallest is None:
                continue
            m_cap = graph.vertex_count - smallest
            assert _pmc_sd_scan(graph, g, m_cap) == reference_scan(graph, g, m_cap), (
                graph.descriptor,
                g,
            )


def test_bruteforce_stats_count_the_scan():
    s42 = build_nk_star(4, 2)
    scan = tg_bruteforce(s42, 1, Model.PMC, pair_budget=11)
    assert set(scan.stats) == {
        "m_cap_s",
        "scan_s",
        "search_nodes",
        "candidates",
        "bound_cuts",
        "closures",
        "splits",
    }
    # only candidate differences inducing min degree >= 1 get a closure
    assert 0 < scan.stats["candidates"] == scan.stats["closures"] < 2**12
    pairs = tg_bruteforce(s42, 1, Model.PMC)
    assert set(pairs.stats) == {"m_cap_s", "scan_s"}
    assert scan.value == pairs.value == 4


@pytest.mark.parametrize(
    "n, k, values",
    [(5, 2, [5, 6, 7, 0]), (4, 3, [5, 11, 0]), (6, 2, [6, 7, 8, 9, 0])],
)
def test_bruteforce_settles_the_ladder(n, k, values):
    # every PMC cell of S_{5,2}, S_{4,3} and S_{6,2} agrees with the closed form
    graph = build_nk_star(n, k)
    for g, expected in enumerate(values, 1):
        assert tg_formula(n, k, g, Model.PMC).value == expected
        assert tg_bruteforce(graph, g, Model.PMC, sd_budget=30).value == expected, g


def test_formula_matches_bruteforce_where_both_exist():
    # exhaustive agreement sweep over every in-budget (n,k); the single
    # known exception is (3,2,1) under PMC, asserted separately above
    for n, k in [(3, 1), (3, 2), (4, 1), (4, 2)]:
        graph = build_nk_star(n, k)
        for g in range(1, n):
            for model in Model:
                if (n, k, g, model) == (3, 2, 1, Model.PMC):
                    continue
                formula = tg_formula(n, k, g, model)
                brute = tg_bruteforce(graph, g, model)
                if formula.applicable and brute.applicable:
                    assert formula.value == brute.value, (n, k, g, model)


# -- witnesses -----------------------------------------------------------


def test_witness_general_full_range():
    for n in (4, 5, 6):
        for k in range(2, n):
            for g in range(n - k, n - 1):
                wit = witness_general(n, k, g)
                size_a = math.factorial(g + 1) // math.factorial(n - k)
                assert wit.sizes == {
                    "A": size_a,
                    "F1": size_a * (n - g - 1),
                    "F2": size_a * (n - g),
                }
                assert all(wit.checks.values())
                assert wit.upper_bound == tg_formula(n, k, g, Model.PMC).value


def test_witness_general_pair_independently_verified():
    wit = witness_general(4, 2, 2)
    graph = build_nk_star(4, 2)
    assert wit.f2 == wit.f1 | wit.a_set
    assert is_g_good_neighbor(graph, wit.f1, 2)
    assert is_g_good_neighbor(graph, wit.f2, 2)
    from stardiag import distinguishable_mm, distinguishable_pmc

    assert not distinguishable_pmc(graph, wit.f1, wit.f2)
    assert not distinguishable_mm(graph, wit.f1, wit.f2)


def test_witness_general_domain():
    for n, k, g in [(3, 2, 1), (4, 1, 2), (4, 2, 1), (4, 2, 3)]:
        with pytest.raises(DomainError):
            witness_general(n, k, g)


def test_witness_snk2_mm():
    for n in (4, 5, 6):
        wit = witness_snk2_mm(n)
        assert wit.sizes["F1"] == wit.sizes["F2"] == n
        assert wit.checks["indistinguishable_mm"]
        assert wit.upper_bound == n - 1 == tg_formula(n, 2, 1, Model.MM).value
    with pytest.raises(DomainError):
        witness_snk2_mm(3)


def test_witness_cycle6():
    wit = witness_cycle6()
    assert wit.f1 == {"u1", "u2"} and wit.f2 == {"u4", "u5"}
    assert wit.upper_bound == 1 == tg_formula(3, 2, 1, Model.MM).value


# -- crosscheck ----------------------------------------------------------


def test_crosscheck_agreeing_case():
    report = crosscheck(4, 2, 2)
    assert report.ok
    assert report.results["pmc"]["formula"] == 5
    assert report.results["pmc"]["bruteforce"] == 5
    assert report.results["mm"]["bruteforce"] == 5
    assert "general" in report.results["witnesses"]
    d = report.to_dict()
    assert d["ok"] and d["n"] == 4


def test_crosscheck_reports_known_pmc_gap_at_3_2_1():
    report = crosscheck(3, 2, 1)
    assert not report.ok
    assert report.results["pmc"]["bruteforce"] == 2
    assert report.results["pmc"]["formula"] == 3
    assert report.results["mm"]["bruteforce"] == 1 == report.results["mm"]["formula"]
    assert any("pmc" in note for note in report.notes)
