import itertools
import math
import random
import time

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
    witness_general,
)
from stardiag import faults
from stardiag.base import BudgetError, DomainError, VerificationError
from stardiag.faults import (
    _connected_subsets,
    dist_mm_mask,
    g_core,
    good_faulty_sets,
    good_mask,
    has_min_degree,
)
from stardiag.graph import TopologyGraph, _iter_bits

from conftest import random_graph, small_graphs


# -- g-good-neighbor predicates -----------------------------------------


def test_good_neighbor_basic(s42):
    assert is_g_good_neighbor(s42, set(), 3)  # empty set, graph is 3-regular
    assert is_g_good_neighbor(s42, {"12"}, 2)
    assert not is_g_good_neighbor(s42, {"12"}, 3)  # neighbors of 12 drop to degree 2
    assert is_g_good_neighbor(s42, set(s42.labels), 5)  # F = V is vacuously good


def test_good_mask_is_min_degree_of_the_complement():
    rng = random.Random(3)
    rng_within = random.Random(4)
    for graph in small_graphs(12):
        full = graph.full_mask
        for _ in range(40):
            fmask = rng.getrandbits(graph.vertex_count)
            within = rng_within.getrandbits(graph.vertex_count)
            for g in range(4):
                by_definition = all(
                    len(graph.neighbors(lab) - graph.labels_of(fmask)) >= g
                    for lab in graph.labels_of(full & ~fmask)
                )
                assert good_mask(graph, fmask, g) == by_definition, (graph.descriptor, fmask, g)
                assert good_mask(graph, fmask, g) == has_min_degree(graph, full & ~fmask, g)
                # every vertex of the mask has >= g neighbors in `within`
                in_within = all(
                    len(graph.neighbors(lab) & graph.labels_of(within)) >= g
                    for lab in graph.labels_of(full & ~fmask)
                )
                assert has_min_degree(graph, full & ~fmask, g, within) == in_within


def test_good_mask_is_min_degree_of_the_complement_on_wide_graphs():
    # over 64 vertices good_mask walks through _iter_bits; sparse F takes the
    # N(F) - F test, dense F and g above the minimum degree test all of V - F
    rng = random.Random(5)
    for graph in (random_graph(100, 0.05, 1), build_nk_star(5, 4)):
        n, seen = graph.vertex_count, set()
        for _ in range(30):
            for density in (0.02, 0.1, 0.5):
                fmask = sum(1 << i for i in range(n) if rng.random() < density)
                rest = graph.full_mask & ~fmask
                for g in range(graph.min_degree() + 3):
                    want = has_min_degree(graph, rest, g)
                    assert good_mask(graph, fmask, g) == want, (graph.descriptor, fmask, g)
                    seen.add((g > graph.min_degree(), rest.bit_count() > 2 * fmask.bit_count(), want))
        assert {branch[:2] for branch in seen} == set(itertools.product((False, True), repeat=2))
        assert {branch[2] for branch in seen} == {False, True}


def test_good_mask_checks_every_vertex_above_the_min_degree():
    # K_4 on a, b, c, d with a pendant p on a: min degree 1.  At g = 2 the
    # pendant falls short although it has no neighbor in F = {c}
    edges = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d"), ("a", "p")]
    graph = TopologyGraph("abcdp", edges)
    assert graph.min_degree() == 1
    c = graph.mask_of({"c"})
    assert good_mask(graph, c, 1)
    assert not good_mask(graph, c, 2)
    assert not good_mask(graph, 0, 2)
    assert good_mask(graph, graph.mask_of({"p"}), 2)
    assert good_mask(graph, graph.mask_of({"c", "p"}), 2)


def test_good_mask_next_to_f_on_s76():
    # on the 6-regular S_{7,6} only N(F) - F can fall short
    graph = build_nk_star(7, 6)
    full = graph.full_mask
    nv = graph.nbr_masks[0]
    assert not good_mask(graph, nv, 1)  # vertex 0 keeps no fault-free neighbor
    for g in range(7):
        # F = N[0]: a vertex at distance 2 from 0 has exactly one neighbor in N(0)
        want = g <= 7 - 2
        assert good_mask(graph, nv | 1, g) == want == has_min_degree(graph, full & ~(nv | 1), g)


def test_g_core_is_the_union_of_min_degree_subsets():
    # the largest subset of a region inducing min degree >= g is the union of
    # all such subsets, found here by walking every submask of the region
    rng = random.Random(5)
    for graph in small_graphs(10):
        nbr = graph.nbr_masks
        regions = [graph.full_mask] + [rng.getrandbits(graph.vertex_count) for _ in range(3)]
        for region in regions:
            union = [0] * 5  # union[g]: every submask of region inducing min degree >= g
            sub = region
            while sub:
                least = min((nbr[v] & sub).bit_count() for v in _iter_bits(sub))
                for g in range(min(least, 4) + 1):
                    union[g] |= sub
                sub = (sub - 1) & region
            for g in range(5):
                assert g_core(graph, region, g) == union[g], (graph.descriptor, region, g)


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


def test_dist_mm_mask_matches_the_all_vertex_loop():
    # comparators are looked for only next to F1 ^ F2; the reference walks
    # every fault-free vertex.  The four random graphs are the bridge graphs
    # of the scan tests
    from reference_predicates import dist_mm_mask as reference

    rng = random.Random(11)
    extra = [random_graph(8, 0.5, 1294), random_graph(6, 0.3, 1357)]
    extra += [random_graph(6, 0.7, 1135), random_graph(7, 0.6, 1177)]
    seen = set()
    for graph in small_graphs(12) + extra:
        n = graph.vertex_count
        for p in (0.1, 0.3, 0.5):
            for _ in range(60):
                f1 = sum(1 << i for i in range(n) if rng.random() < p)
                f2 = sum(1 << i for i in range(n) if rng.random() < p)
                want = reference(graph, f1, f2)
                assert dist_mm_mask(graph, f1, f2) == want, (graph.descriptor, f1, f2)
                seen.add(want)
    assert seen == {True, False}
    # every admissible pair of S_{4,2} for g = 2, 3, and for g = 1 up to the
    # size t_1 + 1 = 4 that decides t_1 under MM*
    s42 = build_nk_star(4, 2)
    for g in (1, 2, 3):
        good = [m for m in good_faulty_sets(s42, g) if g > 1 or m.bit_count() <= 4]
        for i, f1 in enumerate(good):
            for f2 in good[i + 1 :]:
                assert dist_mm_mask(s42, f1, f2) == reference(s42, f1, f2), (g, f1, f2)


def test_dist_mm_mask_on_s76():
    from reference_predicates import dist_mm_mask as reference

    graph = build_nk_star(7, 6)
    # breadth-first layers from vertex 0; the last holds the vertices farthest from it
    layer, reached = 1, 1
    while True:
        grown = graph.neighborhood_mask(layer) & ~reached
        if not grown:
            break
        layer, reached = grown, reached | grown
    far = layer & -layer
    f1 = graph.nbr_masks[0] | 1
    f2 = graph.nbr_masks[far.bit_length() - 1] | far
    assert dist_mm_mask(graph, f1, f2) and reference(graph, f1, f2)
    for g in range(1, 6):
        wit = witness_general(7, 6, g)
        m1, m2 = graph.mask_of(wit.f1), graph.mask_of(wit.f2)
        assert not dist_mm_mask(graph, m1, m2) and not reference(graph, m1, m2), g


# -- connectivity --------------------------------------------------------


def test_kappa_bruteforce_cycle_and_complete(c6):
    stats = {}
    assert rg_connectivity_bruteforce(c6, 0, stats=stats) == 2  # two antipodal vertices
    # through vertex 0: the empty set, {u1}, {u1, u2}, then the cut {u1, u3}
    assert stats == {"m_cap_sets": 0, "cuts_tested": 4}  # g = 0: the least-set search tests none
    assert rg_connectivity_bruteforce(c6, 1) == 2
    assert rg_connectivity_bruteforce(build_complete(4), 0, stats=stats) is None
    assert stats == {"m_cap_sets": 0, "cuts_tested": 0}  # no cut can exist: nothing is searched


def test_kappa_bruteforce_answers_at_once_on_complete_graphs():
    # whatever C is, V - C induces a complete graph, which is connected: no cut
    for m in range(1, 9):
        for g in range(m + 1):
            assert rg_connectivity_bruteforce(build_complete(m), g) is None, (m, g)
    start = time.perf_counter()
    assert rg_connectivity_bruteforce(build_nk_star(21, 1), 1, budget=30) is None
    assert time.perf_counter() - start < 1  # the full set scan took several seconds


def test_kappa_bruteforce_tries_every_set_off_the_family_builders():
    # an edge-list path a-b-c is not flagged vertex-transitive: its one
    # minimum cut {b} misses vertex 0, and the search must still find it
    path = TopologyGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert rg_connectivity_bruteforce(path, 0) == 1


def test_kappa_bruteforce_matches_the_naive_minimum():
    # the search stops at |V| - 2s, s the least size of a set inducing min
    # degree >= g; a naive minimum over every proper subset must agree
    for graph in small_graphs(10):
        for g in range(5):
            cuts = [
                m.bit_count()
                for m in range(graph.full_mask)
                if is_g_good_neighbor_cut(graph, graph.labels_of(m), g)
            ]
            want = min(cuts, default=None)
            assert rg_connectivity_bruteforce(graph, g) == want, (graph.descriptor, g)


def test_kappa_bruteforce_budget(s42):
    with pytest.raises(BudgetError):
        rg_connectivity_bruteforce(s42, 1, budget=10)


def test_kappa_bruteforce_rejects_negative_g(s42):
    with pytest.raises(DomainError, match="g must be nonnegative"):
        rg_connectivity_bruteforce(s42, -1)


def test_kappa_formula_domain():
    for n, k, g in [(4, 1, 1), (4, 2, 0), (4, 2, 3), (3, 3, 1)]:
        with pytest.raises(DomainError):
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
    monkeypatch.setattr(
        faults, "_connected_subsets", lambda graph, region, size, anchored=False: iter(())
    )
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
            # anchored: only the sets through the lowest vertex of the region
            anchored = sorted(_connected_subsets(graph, region, size, anchored=True))
            assert anchored == [m for m in want if m & 1]
