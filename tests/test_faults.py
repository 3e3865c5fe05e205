import itertools
import math
import random

import pytest

from stardiag import (
    Model,
    build_complete,
    build_nk_star,
    distinguishable,
    distinguishable_mm,
    distinguishable_pmc,
    is_g_good_neighbor,
    is_g_good_neighbor_cut,
    min_subgraph_size_oracle,
    rg_connectivity_bruteforce,
    rg_connectivity_formula,
)
from stardiag import faults
from stardiag.base import BudgetError, DomainError, NotApplicableError, VerificationError
from stardiag.faults import FaultPair, _connected_subsets, good_faulty_sets

from conftest import random_graph, small_graphs


# -- g-good-neighbor predicates -----------------------------------------


def test_good_neighbor_basic(s42):
    assert is_g_good_neighbor(s42, set(), 3)  # empty set, graph is 3-regular
    assert is_g_good_neighbor(s42, {"12"}, 2)
    assert not is_g_good_neighbor(s42, {"12"}, 3)  # neighbors of 12 drop to degree 2
    assert is_g_good_neighbor(s42, set(s42.labels), 5)  # F = V is vacuously good


def test_good_neighbor_monotone_in_g(c6, s42):
    rng = random.Random(1)
    for graph in (c6, s42):
        for _ in range(200):
            fset = {lab for lab in graph.labels if rng.random() < 0.3}
            flags = [is_g_good_neighbor(graph, fset, g) for g in range(4)]
            # once the condition fails it stays failed for larger g
            assert flags == sorted(flags, reverse=True)


def test_good_neighbor_rejects_negative_g(c6):
    with pytest.raises(DomainError):
        is_g_good_neighbor(c6, set(), -1)


def test_good_neighbor_cut(c6, s42):
    assert is_g_good_neighbor_cut(c6, {"u1", "u4"}, 1)  # leaves two paths
    assert not is_g_good_neighbor_cut(c6, {"u1", "u2"}, 1)  # leaves one path
    assert not is_g_good_neighbor_cut(c6, {"u1", "u3"}, 1)  # isolates u2
    assert is_g_good_neighbor_cut(s42, s42.neighborhood_of_set({"12", "21"}), 0)
    with pytest.raises(DomainError):
        is_g_good_neighbor_cut(c6, set(c6.labels), 1)


def test_good_faulty_sets_reference(c6):
    # independent recount on the six-cycle: proper sets whose complement
    # has no vertex with both neighbors removed
    expected = 0
    for r in range(6):
        for combo in itertools.combinations(c6.labels, r):
            fset = set(combo)
            rest = set(c6.labels) - fset
            if all(len(c6.neighbors(v) & rest) >= 1 for v in rest):
                expected += 1
    assert len(good_faulty_sets(c6, 1)) == expected


def test_fault_pair_requires_distinct_sets():
    with pytest.raises(DomainError):
        FaultPair(frozenset({"a"}), frozenset({"a"}))
    FaultPair(frozenset({"a"}), frozenset({"b"}))


# -- distinguishability --------------------------------------------------


def test_distinguishability_cycle_pairs(c6):
    f1, f2 = {"u1", "u2"}, {"u4", "u5"}
    assert not distinguishable_mm(c6, f1, f2)
    # ...but u3 and u6 each border the symmetric difference, so PMC tells them apart
    assert distinguishable_pmc(c6, f1, f2)
    # complementary halves leave no fault-free vertex at all
    assert not distinguishable_pmc(c6, {"u1", "u2", "u3"}, {"u4", "u5", "u6"})
    assert distinguishable_pmc(c6, {"u1"}, {"u2"})
    assert distinguishable(c6, {"u1"}, {"u2"}, Model.PMC)


def test_distinguishability_rejects_equal_sets(c6):
    with pytest.raises(DomainError):
        distinguishable_pmc(c6, {"u1"}, {"u1"})
    with pytest.raises(DomainError):
        distinguishable_mm(c6, {"u1"}, {"u1"})


def test_mm_distinguishable_implies_pmc_distinguishable(c6, s42):
    rng = random.Random(9)
    graphs = [c6, s42, build_complete(5), random_graph(8, 0.4, 3)]
    for graph in graphs:
        labs = list(graph.labels)
        for _ in range(500):
            f1 = frozenset(lab for lab in labs if rng.random() < 0.3)
            f2 = frozenset(lab for lab in labs if rng.random() < 0.3)
            if f1 == f2:
                continue
            if distinguishable_mm(graph, f1, f2):
                assert distinguishable_pmc(graph, f1, f2)


def test_distinguishability_symmetric(s42):
    rng = random.Random(4)
    labs = list(s42.labels)
    for _ in range(200):
        f1 = frozenset(lab for lab in labs if rng.random() < 0.25)
        f2 = frozenset(lab for lab in labs if rng.random() < 0.25)
        if f1 == f2:
            continue
        assert distinguishable_pmc(s42, f1, f2) == distinguishable_pmc(s42, f2, f1)
        assert distinguishable_mm(s42, f1, f2) == distinguishable_mm(s42, f2, f1)


# -- connectivity --------------------------------------------------------


def test_kappa_bruteforce_cycle_and_complete(c6):
    assert rg_connectivity_bruteforce(c6, 0) == 2  # two antipodal vertices
    assert rg_connectivity_bruteforce(c6, 1) == 2
    assert rg_connectivity_bruteforce(build_complete(4), 0) is None


def test_kappa_bruteforce_budget(s42):
    with pytest.raises(BudgetError):
        rg_connectivity_bruteforce(s42, 1, budget=10)


def test_kappa_formula_domain():
    for n, k, g in [(4, 1, 1), (4, 2, 0), (4, 2, 3), (3, 3, 1)]:
        with pytest.raises(NotApplicableError):
            rg_connectivity_formula(n, k, g)


def test_kappa_formula_matches_bruteforce(s42):
    assert rg_connectivity_bruteforce(s42, 2) == 3 == rg_connectivity_formula(4, 2, 2)
    s52 = build_nk_star(5, 2)
    assert rg_connectivity_bruteforce(s52, 3) == 4 == rg_connectivity_formula(5, 2, 3)


def test_kappa_formula_values():
    assert rg_connectivity_formula(5, 4, 1) == 6
    assert rg_connectivity_formula(5, 4, 3) == 24
    assert rg_connectivity_formula(6, 3, 3) == 8


# -- minimum subgraph size oracle ----------------------------------------


def test_min_subgraph_sizes_cycle_and_complete(c6):
    assert min_subgraph_size_oracle(c6, 0) == 1
    assert min_subgraph_size_oracle(c6, 1) == 2
    assert min_subgraph_size_oracle(c6, 2) == 6  # the whole cycle
    assert min_subgraph_size_oracle(c6, 3) is None
    assert min_subgraph_size_oracle(build_complete(5), 3) == 4


def test_min_subgraph_sizes_star_family(s42):
    assert min_subgraph_size_oracle(s42, 1) == 2
    assert min_subgraph_size_oracle(s42, 2) == 3
    assert min_subgraph_size_oracle(s42, 3) == 12
    s52 = build_nk_star(5, 2)
    assert [min_subgraph_size_oracle(s52, g) for g in (1, 2, 3, 4)] == [2, 3, 4, 20]


def test_min_subgraph_lower_bound_factorial(s42):
    for n, k in [(3, 2), (4, 2), (5, 2)]:
        graph = build_nk_star(n, k)
        for g in range(1, n):
            size = min_subgraph_size_oracle(graph, g)
            assert size is not None
            # size >= (g+1)!/(n-k)! without leaving integer arithmetic
            assert size * math.factorial(n - k) >= math.factorial(g + 1)


def test_min_subgraph_rejects_negative_g(c6):
    with pytest.raises(DomainError):
        min_subgraph_size_oracle(c6, -1)


def test_min_subgraph_invariant_raises_verification_error(s42, monkeypatch):
    # a non-regular g-core always holds a qualifying connected set; if the
    # search finds none, the oracle reports a broken invariant
    monkeypatch.setattr(faults, "_connected_subsets", lambda graph, region, size: iter(()))
    with pytest.raises(VerificationError):
        min_subgraph_size_oracle(s42, 1)


def test_m_cap_identity():
    # the complement of a proper admissible set is a nonempty set inducing
    # min degree >= g, so |V| minus the oracle is the largest admissible size
    for graph in small_graphs(16):
        for g in range(5):
            good = good_faulty_sets(graph, g)
            smallest = min_subgraph_size_oracle(graph, g, budget=16)
            if not good:
                assert smallest is None, (graph.descriptor, g)
            else:
                largest = max(m.bit_count() for m in good)
                assert graph.vertex_count - smallest == largest, (graph.descriptor, g)


def test_min_subgraph_budget(s42):
    with pytest.raises(BudgetError):
        min_subgraph_size_oracle(s42, 1, budget=10)


def test_connected_subsets_match_reference():
    for seed in range(6):
        graph = random_graph(8, 0.35, seed)
        region = graph.full_mask
        for size in (1, 2, 3, 4):
            got = sorted(_connected_subsets(graph, region, size))
            want = sorted(
                sum(1 << i for i in combo)
                for combo in itertools.combinations(range(8), size)
                if len(graph.component_masks(sum(1 << i for i in combo))) == 1
            )
            assert got == want
