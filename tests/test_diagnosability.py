import math
from fractions import Fraction
from itertools import combinations

import pytest

from stardiag import (
    Model,
    build_assignment,
    build_complete,
    build_cycle,
    build_nk_star,
    build_star,
    build_witness,
    crosscheck,
    distinguishable,
    tg_bruteforce,
    tg_formula,
    witness_for,
)
from stardiag import diagnosability
from stardiag.base import BudgetError, DomainError, VerificationError
from stardiag.diagnosability import _pair_scan, _pmc_sd_scan, _sd_closure, _start_pair
from stardiag.faults import (
    good_faulty_sets,
    good_mask,
    has_min_degree,
    high_band_count,
    indist_mask,
    is_g_good_neighbor,
    least_subgraph_mask,
    min_subgraph_size_oracle,
    rg_connectivity_bruteforce,
    rg_connectivity_formula,
)
from stardiag.graph import TopologyGraph, _iter_bits
from stardiag.topologies import DEFAULT_VERTEX_BUDGET


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
                    assert res.value is not None, (n, k, g, model)
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


def test_high_band_count_is_the_factorial_quotient():
    # (g+1)!/(n-k)! taken as an exact fraction: t_g, kappa_g and the general
    # witness's |A|, |F1|, |F2| are the old quotients on every high-band cell
    cells = [(n, k, g) for n in range(4, 15) for k in range(2, n) for g in range(n - k, n - 1)]
    assert len(cells) == 363
    built = 0
    for n, k, g in cells:
        count = high_band_count(n, k, g)
        assert count * math.factorial(n - k) == math.factorial(g + 1), (n, k, g)
        quotient = Fraction(math.factorial(g + 1), math.factorial(n - k))
        for model in Model:
            assert tg_formula(n, k, g, model).value == quotient * (n - g) - 1, (n, k, g, model)
        assert rg_connectivity_formula(n, k, g) == quotient * (n - g - 1), (n, k, g)
        if math.perm(n, k) <= DEFAULT_VERTEX_BUDGET:
            sizes = build_witness(n, k, g).sizes
            assert sizes == {"A": quotient, "F1": quotient * (n - g - 1), "F2": quotient * (n - g)}
            built += 1
    assert built == 64


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
    assert indist_mask(s32, s32.mask_of(f1), s32.mask_of(f2), Model.PMC)


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
    assert res.value is None


def test_bruteforce_rejects_negative_g():
    s42 = build_nk_star(4, 2)
    for model in Model:
        with pytest.raises(DomainError):
            tg_bruteforce(s42, -1, model)


#: one call per function that takes a model, on a cell where the two models differ
_ANSWER_BY_MODEL = {
    "distinguishable": lambda m: distinguishable(build_cycle(6), {"u1", "u2"}, {"u4", "u5"}, m),
    "build_assignment": lambda m: build_assignment(build_cycle(6), m).units,
    "tg_bruteforce": lambda m: tg_bruteforce(build_nk_star(4, 2), 1, m).value,
    "tg_formula": lambda m: tg_formula(4, 2, 1, m).value,
    "crosscheck": lambda m: {
        name: (entry["formula"], entry["bruteforce"])
        for name, entry in crosscheck(build_nk_star(4, 2), 1, (m,))[1].items()
    },
}


@pytest.mark.parametrize("call", list(_ANSWER_BY_MODEL))
def test_a_model_given_by_name_gets_that_models_answer(call):
    answer = _ANSWER_BY_MODEL[call]
    assert answer(Model.PMC) != answer(Model.MM)
    for model in Model:
        assert answer(model.value) == answer(model), model
    assert answer("MM*") == answer(Model.MM)
    with pytest.raises(DomainError, match="unknown model 'pcm'"):
        answer("pcm")
    with pytest.raises(DomainError, match="unknown model None"):  # not a string at all
        answer(None)


def test_bruteforce_budget_errors():
    s52 = build_nk_star(5, 2)  # 20 vertices
    message = "20 vertices over the brute-force budget of 16"
    with pytest.raises(BudgetError, match=message):
        tg_bruteforce(s52, 1, Model.MM)  # over the default budget
    with pytest.raises(BudgetError, match=message):
        tg_bruteforce(s52, 1, Model.PMC)  # under either model, in the same words


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
            pmc = tg_bruteforce(graph, g, Model.PMC, budget=12)
            mm = tg_bruteforce(graph, g, Model.MM, budget=12)
            if pmc.value is not None and mm.value is not None:
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
            sd_p, _ = _pmc_sd_scan(graph, g, m_cap)
            assert sd_p == _pair_scan(graph, g, Model.PMC)[0], (graph.descriptor, g)


def test_sd_closure_matches_the_sweep_closure():
    # the worklist peel against the full-sweep fixpoint loop it replaced,
    # on every nonempty symmetric difference
    from conftest import small_graphs
    from reference_scan import _sd_closure as sweep_closure

    for graph in small_graphs(10):
        for smask in range(1, graph.full_mask + 1):
            for g in range(4):
                want = sweep_closure(graph, smask, g)
                assert _sd_closure(graph, smask, g) == want, (graph.descriptor, smask, g)


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
    scan_keys = {"m_cap_s", "m_cap_sets", "scan_s", "start_p", "floor_p"}
    scan_keys |= {"search_nodes", "candidates", "bound_cuts", "splits"}
    pmc = tg_bruteforce(s42, 1, Model.PMC)
    assert set(pmc.stats) == scan_keys
    # only candidate differences inducing min degree >= 1 get a closure
    assert 0 < pmc.stats["candidates"] < 2**12
    mm = tg_bruteforce(s42, 1, Model.MM)
    assert set(mm.stats) == scan_keys | {"bridge_sets"}
    assert 0 < mm.stats["bridge_sets"] and 0 < mm.stats["candidates"] < 2**12
    # no bridge exists for g >= 2, so MM* runs the plain PMC scan there
    assert set(tg_bruteforce(s42, 2, Model.MM).stats) == scan_keys
    assert pmc.value == 4 and mm.value == 3
    # the least set of S_{4,2} at g = 1 is an edge, tested first from vertex 0;
    # (N(A), N(A) | A) has sizes 4 and 6, so the scan starts at P = 7, not 11
    assert pmc.stats["m_cap_sets"] == 1
    assert pmc.stats["start_p"] == mm.stats["start_p"] == 7


@pytest.mark.parametrize(
    "n, k, g, model, value, counters",
    [
        (5, 2, 1, "pmc", 5, (1, 5, 2, 7, 0, 9, 6, None)),
        (5, 2, 2, "pmc", 6, (8, 7, 1, 20, 0, 8, 7, None)),
        (5, 2, 3, "pmc", 7, (28, 15, 1, 28, 0, 9, 8, None)),
        (4, 2, 1, "mm", 3, (1, 129, 4, 274, 1, 7, 0, 3)),
        (12, 1, 1, "mm", 5, (1, 65, 5, 42, 5, 11, 0, 3)),
        (4, 3, 2, "pmc", 11, (128, 15950, 1, 14566, 0, 13, 9, None)),
        (4, 3, 1, "mm", 5, (1, 14062, 3, 37107, 0, 7, 0, 0)),
        (6, 2, 4, "pmc", 9, (180, 443, 1, 816, 0, 11, 9, None)),
    ],
)
def test_bruteforce_stats_pin_the_search(n, k, g, model, value, counters):
    # every prune of the scan and of the least-set search shows in these
    # counters, so a rewrite that walks a different search cannot keep them;
    # the floor of fact (g) ends the S_{5,2} scans at their first pair
    res = tg_bruteforce(build_nk_star(n, k), g, Model.parse(model), budget=30)
    keys = (
        "m_cap_sets", "search_nodes", "candidates", "bound_cuts", "splits", "start_p", "floor_p"
    )
    want = dict(zip(keys, counters))
    if counters[-1] is not None:
        want["bridge_sets"] = counters[-1]
    assert res.value == value
    assert {key: v for key, v in res.stats.items() if not key.endswith("_s")} == want


def test_start_pair_keeps_the_result_and_cuts_the_work(monkeypatch):
    # the scan started from the checked pair (N(A), N(A) | A) against the scan
    # started from m_cap + 1: the same value, pair and note, and no more work
    graphs = [build_nk_star(n, k) for n, k in ((12, 1), (4, 2), (5, 2), (4, 3), (6, 2))]
    cells = [(gr, g, model) for gr in graphs for g in range(gr.min_degree() + 1) for model in Model]
    started = [tg_bruteforce(*cell, budget=30) for cell in cells]
    monkeypatch.setattr(diagnosability, "_start_pair", lambda *args: None)
    lower = 0
    for (graph, g, model), res in zip(cells, started):
        plain = tg_bruteforce(graph, g, model, budget=30)
        where = (graph.descriptor, g, model)
        assert (res.value, res.pair, res.note) == (plain.value, plain.pair, plain.note), where
        if res.value is None:
            continue
        smallest = min_subgraph_size_oracle(graph, g, budget=30)
        assert plain.stats["start_p"] == graph.vertex_count - smallest + 1, where
        assert res.stats["start_p"] <= plain.stats["start_p"], where
        assert res.stats["search_nodes"] <= plain.stats["search_nodes"], where
        lower += res.stats["start_p"] < plain.stats["start_p"]
    assert lower == 30  # of the 62 cells; on the other 32, N(A) | A is all of V


def test_scan_that_finds_nothing_below_its_start_pair_raises(monkeypatch):
    # a checked start pair promises a pair no larger than itself; a scan that
    # ends with none has a broken invariant, while without a start pair the
    # same empty scan just means every pair is distinguishable
    s42 = build_nk_star(4, 2)
    start = _start_pair(s42, 2, Model.PMC, least_subgraph_mask(s42, 2))
    assert start is not None
    monkeypatch.setattr(diagnosability, "has_min_degree", lambda *args: False)
    assert _pmc_sd_scan(s42, 2, 6) == (None, None)
    with pytest.raises(VerificationError):
        _pmc_sd_scan(s42, 2, 6, start=start)
    with pytest.raises(VerificationError):
        tg_bruteforce(s42, 2, Model.PMC)


def _submasks(mask):
    """Every submask of `mask`, the empty one first."""
    yield 0
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def test_indistinguishable_sides_have_at_least_s_g_vertices():
    # fact (f) of the scan: in a PMC-indistinguishable admissible pair, and in
    # an MM*-indistinguishable one for g >= 2, each nonempty side F2 - F1
    # induces min degree >= g, so it has at least s_g vertices.  Every side of
    # every such pair is reached: for each admissible F1, each nonempty S2 of
    # V - F1 that passes the model's necessary test is checked once some S1 of
    # F1 makes F2 = (F1 - S1) | S2 an admissible, indistinguishable partner.
    # At g = 0 the fact is empty (s_0 = 1), so it is left out.
    from conftest import small_graphs

    checked = dict.fromkeys(Model, 0)
    for graph in small_graphs(12) + _bridge_graphs():
        nbr = graph.nbr_masks
        near = [0] * (graph.full_mask + 1)  # near[m]: the neighbors of m's vertices
        for m in range(1, graph.full_mask + 1):
            low = m & -m
            near[m] = near[m ^ low] | nbr[low.bit_length() - 1]
        for g in (1, 2, 3):
            s_g = min_subgraph_size_oracle(graph, g, budget=12)
            good = good_faulty_sets(graph, g)
            admissible = set(good)
            for f1 in good:
                rest = graph.full_mask & ~f1
                s2 = rest
                while s2:
                    o = rest & ~s2
                    # PMC: S2 has no neighbor in O; MM*: a comparator next to
                    # S2 has no neighbor in O and at most one in S2
                    comparators = near[s2] & o
                    models = [Model.PMC] if not comparators else []
                    if g >= 2 and not near[comparators] & o and all(
                        (nbr[c] & s2).bit_count() <= 1 for c in _iter_bits(comparators)
                    ):
                        models.append(Model.MM)
                    for model in models:
                        f2s = ((f1 & ~s1) | s2 for s1 in _submasks(f1))
                        if any(f2 in admissible and indist_mask(graph, f1, f2, model)
                               for f2 in f2s):
                            where = (graph.descriptor, g, model, f1, s2)
                            assert has_min_degree(graph, s2, g), where
                            assert s2.bit_count() >= s_g, where
                            checked[model] += 1
                    s2 = (s2 - 1) & rest
    assert min(checked.values()) > 10**4, checked


def _bridge_graphs():
    """Four random graphs that need bridges the small graphs never do.

    They have a bridge with one neighbor in S (at g = 0), and more than
    maxdeg * |C| / mindeg bridges in all.
    """
    from conftest import random_graph

    return [
        random_graph(8, 0.5, 1294),
        random_graph(6, 0.3, 1357),
        random_graph(6, 0.7, 1135),
        random_graph(7, 0.6, 1177),
    ]


def _vertex_transitive_extras():
    """C_6[K_2], C_7[K_2] and 2 K_4, flagged vertex-transitive as `build_complete` does.

    C_m[K_2] joins each vertex to its twin and to both vertices of the two
    neighboring pairs: degree 5 but connectivity 4, where every S_{n,k}, K_n
    and C_m has connectivity equal to its degree.  2 K_4 is disconnected.
    """
    graphs = []
    for m in (6, 7):
        labels = [f"{i}{a}" for i in range(m) for a in "ab"]
        edges = [(f"{i}a", f"{i}b") for i in range(m)]
        edges += [(f"{i}{a}", f"{(i + 1) % m}{b}") for i in range(m) for a in "ab" for b in "ab"]
        graphs.append(TopologyGraph(labels, edges, f"lex:C{m},K2"))
    edges = [(f"{c}{i}", f"{c}{j}") for c in "xy" for i, j in combinations(range(4), 2)]
    graphs.append(TopologyGraph([v for e in edges for v in e], edges, "2K4"))
    for graph in graphs:
        graph.vertex_transitive = True
    return graphs


def _kappa(graph):
    """Vertex connectivity by brute force: the least C leaving V - C disconnected, else |V| - 1."""
    n = graph.vertex_count
    for size in range(n - 1):
        for combo in combinations(range(n), size):
            cut = sum(1 << i for i in combo)
            if len(graph.component_masks(graph.full_mask & ~cut)) > 1:
                return size
    return n - 1


def test_no_pair_beats_the_floor_of_fact_g():
    # fact (g) of the scan: without bridges (PMC, and MM* for g >= 2) every
    # indistinguishable admissible pair has max size P >= min(kappa + s_g,
    # ceil(|V| / 2)), with kappa brute-forced and P from the O(M^2) pair scan
    from conftest import small_graphs

    tight = checked = 0
    extras = [graph for graph in _vertex_transitive_extras() if graph.vertex_count <= 12]
    for graph in small_graphs(10) + extras:
        kappa = _kappa(graph)
        half = (graph.vertex_count + 1) // 2
        for g in range(4):
            for model in (Model.PMC, Model.MM) if g >= 2 else (Model.PMC,):
                p, _ = _pair_scan(graph, g, model)
                if p is None:
                    continue
                floor = min(kappa + min_subgraph_size_oracle(graph, g, budget=12), half)
                assert p >= floor, (graph.descriptor, g, model, p, floor)
                checked += 1
                tight += p == floor
    assert checked > 100 and tight > 50, (checked, tight)


def test_watkins_bound_on_vertex_transitive_graphs():
    # the kappa the scan's floor takes: a connected vertex-transitive graph of
    # degree d that is not complete has connectivity >= ceil(2 (d + 1) / 3)
    from conftest import small_graphs

    graphs = [g for g in small_graphs(24) + _vertex_transitive_extras() if g.vertex_transitive]
    checked = 0
    for graph in graphs:
        degree = graph.min_degree()
        if not graph.is_connected() or degree == graph.vertex_count - 1:
            continue
        assert _kappa(graph) >= -(-2 * (degree + 1) // 3), graph.descriptor
        checked += 1
    assert checked > 25, checked


def test_sd_scan_matches_pair_scan_both_models():
    # the one symmetric-difference oracle against the serial O(M^2) pair scan:
    # equal values, and a returned pair that really refutes t_g = value + 1
    from conftest import small_graphs

    for graph in small_graphs(12) + _bridge_graphs() + _vertex_transitive_extras():
        # C_7[K_2]'s pair scan takes seconds at g = 1 and 2; the orbit test covers those
        for g in (0, 3) if graph.vertex_count > 12 else range(4):
            for model in Model:
                res = tg_bruteforce(graph, g, model)
                p, _ = _pair_scan(graph, g, model)
                where = (graph.descriptor, g, model)
                if res.value is None:
                    assert not good_faulty_sets(graph, g), where
                    continue
                if p is None:
                    assert res.pair is None, where
                    continue
                assert res.value == p - 1, where
                m1, m2 = (graph.mask_of(f) for f in res.pair)
                assert m1 != m2, where
                assert good_mask(graph, m1, g) and good_mask(graph, m2, g), where
                assert m1 != graph.full_mask and m2 != graph.full_mask, where
                assert indist_mask(graph, m1, m2, model), where
                assert max(m1.bit_count(), m2.bit_count()) == res.value + 1, where


def test_orbit_scan_matches_the_full_scan():
    # on a vertex-transitive graph the oracles only try sets through vertex 0,
    # and the scan stops at the floor of fact (g); an unflagged copy tries
    # every set with floor 0 and must give the same answers
    from conftest import small_graphs

    graphs = [g for g in small_graphs(12) if g.vertex_transitive] + _vertex_transitive_extras()
    graphs += [build_nk_star(4, 3), build_nk_star(5, 2), build_nk_star(6, 2), build_star(4)]
    for graph in graphs:
        full = TopologyGraph(graph.labels, graph.edges(), graph.descriptor)
        assert graph.vertex_transitive and not full.vertex_transitive
        degree = graph.min_degree()
        for g in range(degree + 2):
            for model in Model:
                orbit = tg_bruteforce(graph, g, model, budget=30)
                every = tg_bruteforce(full, g, model, budget=30)
                where = (graph.descriptor, g, model)
                assert (orbit.value, orbit.pair, orbit.note) == (
                    every.value, every.pair, every.note
                ), where
                assert orbit.stats.get("search_nodes", 0) <= every.stats.get("search_nodes", 0)
            assert least_subgraph_mask(graph, g) == least_subgraph_mask(full, g)
            assert rg_connectivity_bruteforce(graph, g, 30) == rg_connectivity_bruteforce(
                full, g, 30
            ), (graph.descriptor, g)


def _bridge_sets(graph, f1, f2):
    """(S1, S2, B, O) of a pair: B is the set of fault-free vertices next to the difference."""
    outside = graph.full_mask & ~(f1 | f2)
    return f1 & ~f2, f2 & ~f1, outside & graph.neighborhood_mask(f1 ^ f2), outside


def test_mm_indistinguishable_pairs_have_no_bridge_for_g_at_least_2():
    # the lemma that sends MM* with g >= 2 through the PMC scan: for
    # admissible pairs, MM*-indistinguishable iff PMC-indistinguishable
    from conftest import small_graphs

    for graph in small_graphs(10):
        for g in (2, 3):
            good = good_faulty_sets(graph, g)
            for i, f1 in enumerate(good):
                for f2 in good[i + 1 :]:
                    mm = indist_mask(graph, f1, f2, Model.MM)
                    pmc = indist_mask(graph, f1, f2, Model.PMC)
                    assert mm == pmc, (graph.descriptor, g, f1, f2)
                    if mm:
                        assert _bridge_sets(graph, f1, f2)[2] == 0


def test_bridge_characterization_of_mm():
    # the characterization the bridged scan enumerates, against indist_mask:
    # a pair is MM*-indistinguishable iff every bridge b has no fault-free
    # neighbor and at most one neighbor in each side; for admissible pairs
    # each b also has >= g neighbors per side, each vertex of a side keeps
    # >= g neighbors in its side and B, and the closure of S | B is the
    # smallest shared part
    from conftest import random_graph

    graphs = [build_cycle(6), build_complete(5), build_nk_star(3, 2), build_nk_star(4, 1)]
    graphs += [random_graph(7, p, seed) for p in (0.35, 0.6) for seed in range(3)]
    for graph in graphs:
        nbr = graph.nbr_masks
        for f1 in range(graph.full_mask + 1):
            for f2 in range(f1 + 1, graph.full_mask + 1):
                s1, s2, b, outside = _bridge_sets(graph, f1, f2)
                quiet = all(
                    not nbr[v] & outside
                    and (nbr[v] & s1).bit_count() <= 1
                    and (nbr[v] & s2).bit_count() <= 1
                    for v in range(graph.vertex_count)
                    if b >> v & 1
                )
                assert quiet == indist_mask(graph, f1, f2, Model.MM), (graph.descriptor, f1, f2)
                if not quiet or f2 == graph.full_mask:
                    continue
                for g in (0, 1, 2):
                    if not (good_mask(graph, f1, g) and good_mask(graph, f2, g)):
                        continue
                    for v in range(graph.vertex_count):
                        if b >> v & 1:
                            assert (nbr[v] & s1).bit_count() >= g
                            assert (nbr[v] & s2).bit_count() >= g
                        for side in (s1, s2):
                            if side >> v & 1:
                                assert (nbr[v] & (side | b)).bit_count() >= g
                    u = s1 | s2 | b
                    c = _sd_closure(graph, u, g)
                    assert c & ~(f1 & f2) == 0
                    if (c | s1) != graph.full_mask:
                        assert good_mask(graph, c | s1, g) and good_mask(graph, c | s2, g)
                        assert indist_mask(graph, c | s1, c | s2, Model.MM)


def test_bridge_degree_is_at_most_the_common_part_plus_two():
    # the cap the bridged scan puts on |B|: a bridge b has no neighbor in O
    # and at most one in each side, so its other neighbors lie in F1 & F2
    from conftest import small_graphs

    slack = set()
    for graph in small_graphs(8) + _bridge_graphs():
        degree = [m.bit_count() for m in graph.nbr_masks]
        for g in (0, 1):
            good = good_faulty_sets(graph, g)
            for i, f1 in enumerate(good):
                for f2 in good[i + 1 :]:
                    if not indist_mask(graph, f1, f2, Model.MM):
                        continue
                    common = (f1 & f2).bit_count()
                    for b in _iter_bits(_bridge_sets(graph, f1, f2)[2]):
                        assert degree[b] <= common + 2, (graph.descriptor, g, f1, f2)
                        slack.add(common + 2 - degree[b])
    # the bound is met, so c + 2 cannot be tightened: on K_4 with F1 = {a, d}
    # and F2 = {c, d}, the bridge b has degree 3 = |{d}| + 2
    assert min(slack) == 0
    k4 = build_complete(4)
    f1, f2 = k4.mask_of(["u1", "u4"]), k4.mask_of(["u3", "u4"])
    assert good_mask(k4, f1, 1) and good_mask(k4, f2, 1) and indist_mask(k4, f1, f2, Model.MM)
    assert _bridge_sets(k4, f1, f2)[2] == k4.mask_of(["u2"]) and k4.degree("u2") == 3


def test_k12_mm_scan_caps_bridges_by_degree():
    # K_12 under MM*: with deg(b) <= |C| + 2 the g = 1 scan takes a handful of
    # candidate differences (3798 without the cap), for the same values and pairs
    k12 = build_nk_star(12, 1)
    low, high = ("1", "10", "11", "12", "2", "3"), ("4", "5", "6", "7", "8", "9")
    expected = {1: (5, (high, low)), 6: (5, None), 7: (4, None)}
    expected.update({g: (5, (low, high)) for g in range(2, 6)})
    for g, (value, pair) in sorted(expected.items()):
        res = tg_bruteforce(k12, g, Model.MM)
        assert (res.value, res.pair) == (value, pair), g
        if g == 1:
            assert res.stats["candidates"] <= 10


@pytest.mark.parametrize(
    "n, k, values",
    [(5, 2, [5, 6, 7, 0]), (4, 3, [5, 11, 0]), (6, 2, [6, 7, 8, 9, 0])],
)
def test_bruteforce_settles_the_ladder(n, k, values):
    # every PMC cell of S_{5,2}, S_{4,3} and S_{6,2} agrees with the closed form
    graph = build_nk_star(n, k)
    for g, expected in enumerate(values, 1):
        assert tg_formula(n, k, g, Model.PMC).value == expected
        assert tg_bruteforce(graph, g, Model.PMC, budget=30).value == expected, g


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
                if formula.value is not None and brute.value is not None:
                    assert formula.value == brute.value, (n, k, g, model)


# -- witnesses -----------------------------------------------------------


def test_witness_general_full_range():
    for n in (4, 5, 6):
        for k in range(2, n):
            for g in range(n - k, n - 1):
                wit = build_witness(n, k, g)
                size_a = math.factorial(g + 1) // math.factorial(n - k)
                assert wit.sizes == {
                    "A": size_a,
                    "F1": size_a * (n - g - 1),
                    "F2": size_a * (n - g),
                }
                assert all(wit.checks.values())
                assert wit.upper_bound == tg_formula(n, k, g, Model.PMC).value


def test_witness_general_pair_independently_verified():
    wit = build_witness(4, 2, 2)
    graph = build_nk_star(4, 2)
    assert wit.f2 == wit.f1 | graph.labels_of(wit.a_mask)
    assert is_g_good_neighbor(graph, wit.f1, 2)
    assert is_g_good_neighbor(graph, wit.f2, 2)
    for model in Model:
        assert not distinguishable(graph, wit.f1, wit.f2, model)


def test_witness_snk2_mm():
    for n in (4, 5, 6):
        wit = build_witness(n, 2, 1)
        assert wit.construction == "snk2-mm"
        assert wit.sizes["F1"] == wit.sizes["F2"] == n
        assert wit.checks["indistinguishable_mm"]
        assert wit.upper_bound == n - 1 == tg_formula(n, 2, 1, Model.MM).value
    assert build_witness(3, 2, 1).construction == "cycle6"


def test_witness_cycle6():
    wit = build_witness(3, 2, 1)
    assert wit.f1 == {"u1", "u2"} and wit.f2 == {"u4", "u5"}
    assert wit.upper_bound == 1 == tg_formula(3, 2, 1, Model.MM).value


def test_witness_size_check_compares_with_the_formula(monkeypatch):
    cells = ((3, 2, 1), (5, 2, 1), (4, 2, 2))  # cycle6, snk2-mm, general
    assert all(build_witness(*cell).checks["sizes_match_formula"] for cell in cells)
    real = tg_formula

    def off_by_one(n, k, g, model):
        res = real(n, k, g, model)
        return type(res)(res.value + 1, res.model, res.method, res.provenance)

    monkeypatch.setattr("stardiag.diagnosability.tg_formula", off_by_one)
    # recorded, never required: a witness does not raise on a formula it disagrees with
    assert not any(build_witness(*cell).checks["sizes_match_formula"] for cell in cells)


def test_witness_claims_are_read_off_witness_for(monkeypatch):
    # witness_for names snk2-mm under MM* only, so its PMC-distinguishable pair passes
    assert witness_for(5, 2, 1) == ("snk2-mm", (Model.MM,))
    wit = build_witness(5, 2, 1)
    assert wit.checks["indistinguishable_mm"] and not wit.checks["indistinguishable_pmc"]
    real = witness_for
    monkeypatch.setattr(
        "stardiag.diagnosability.witness_for", lambda n, k, g: (real(n, k, g)[0], tuple(Model))
    )
    with pytest.raises(VerificationError, match="distinguishable under pmc"):
        build_witness(5, 2, 1)


def test_build_witness_asks_witness_for_once(monkeypatch):
    calls = []
    real = witness_for

    def counted(n, k, g):
        calls.append((n, k, g))
        return real(n, k, g)

    monkeypatch.setattr("stardiag.diagnosability.witness_for", counted)
    for cell in ((4, 2, 2), (5, 2, 1), (3, 2, 1)):  # general, snk2-mm, cycle6
        calls.clear()
        build_witness(*cell)
        assert calls == [cell]


def _table_cells(n_max):
    for n in range(3, n_max + 1):
        for k in range(1, n):
            for g in range(1, n):
                yield n, k, g


def test_witness_for_builds_what_it_names():
    # every cell the rule assigns, up to n = 8, builds and certifies the
    # closed form exactly; S_{8,k} for k >= 5 is over the vertex cap
    for n, k, g in _table_cells(8):
        covered = witness_for(n, k, g)
        if covered is None:
            continue
        name, certified = covered
        if math.perm(n, k) > DEFAULT_VERTEX_BUDGET:
            assert name == "general", (n, k, g)
            continue
        wit = build_witness(n, k, g)
        assert wit.construction == name
        assert wit.checks["indistinguishable_mm"] and wit.checks["sizes_match_formula"]
        for model in certified:
            assert wit.upper_bound == tg_formula(n, k, g, model).value, (n, k, g, model)
            assert wit.checks[f"indistinguishable_{model.value}"], (n, k, g, model)


def test_witness_for_gives_no_cell_two_constructions():
    covered = {}
    for n, k, g in _table_cells(12):
        name, certified = witness_for(n, k, g) or (None, ())
        if name is not None:
            covered.setdefault(name, set()).add((n, k, g))
            assert certified == (tuple(Model) if name == "general" else (Model.MM,)), (n, k, g)
    assert covered["cycle6"] == {(3, 2, 1)}
    assert covered["snk2-mm"] == {(n, 2, 1) for n in range(4, 13)}


def test_witness_general_domain():
    # the general construction covers exactly n - k <= g <= n - 2, k >= 2; off
    # that range another construction or none covers the cell
    names = {cell: (witness_for(*cell) or (None,))[0] for cell in _table_cells(12)}
    general = {cell for cell, name in names.items() if name == "general"}
    assert general == {
        (n, k, g) for n in range(4, 13) for k in range(2, n) for g in range(n - k, n - 1)
    }
    for cell in [(5, 2, 2), (4, 1, 2), (4, 2, 3)]:  # no construction covers these
        assert witness_for(*cell) is None
        with pytest.raises(DomainError, match="no witness construction covers"):
            build_witness(*cell)


# -- crosscheck ----------------------------------------------------------


def test_crosscheck_agreeing_case():
    ok, results = crosscheck(build_nk_star(4, 2), 2)
    assert ok and set(results) == {"pmc", "mm"}
    assert results["pmc"]["formula"] == 5
    assert results["pmc"]["bruteforce"] == 5
    assert results["mm"]["bruteforce"] == 5
    for model in ("pmc", "mm"):
        assert results[model]["witness_upper_bounds"] == {"general": 5}
        assert "disagreement" not in results[model]


def test_crosscheck_refuses_an_unknown_method():
    with pytest.raises(DomainError, match="unknown method 'bogus'"):
        crosscheck(build_nk_star(4, 2), 1, method="bogus")


def test_crosscheck_refuses_an_empty_model_list():
    # with no model nothing would be checked, so the call is refused rather
    # than read ok, whatever the method
    for method in ("all", "bogus"):
        with pytest.raises(DomainError, match="at least one model"):
            crosscheck(build_nk_star(4, 2), 1, (), method=method)


def test_crosscheck_skips_the_oracle_over_budget_only_under_all():
    s52 = build_nk_star(5, 2)
    ok, results = crosscheck(s52, 3, (Model.PMC,))
    assert ok and list(results) == ["pmc"]
    entry = results["pmc"]
    assert entry["bruteforce"] is None
    assert entry["bruteforce_skipped"] == "20 vertices over the brute-force budget of 16"
    assert entry["formula"] == entry["witness_upper_bounds"]["general"] == 7
    with pytest.raises(BudgetError):
        crosscheck(s52, 3, method="brute")


def test_crosscheck_builds_a_witness_only_for_a_model_it_certifies(monkeypatch):
    builds = []
    real = diagnosability.build_witness

    def counted(*cell):
        builds.append(cell)
        return real(*cell)

    monkeypatch.setattr(diagnosability, "build_witness", counted)
    s42 = build_nk_star(4, 2)
    crosscheck(s42, 1, (Model.PMC,))  # snk2-mm certifies MM* only
    crosscheck(s42, 1, method="formula")
    assert builds == []
    _, results = crosscheck(s42, 1)
    assert builds == [(4, 2, 1)]
    assert "witness_upper_bounds" not in results["pmc"]
    assert results["mm"]["witness_upper_bounds"] == {"snk2-mm": 3}


def test_crosscheck_reports_known_pmc_gap_at_3_2_1():
    ok, results = crosscheck(build_nk_star(3, 2), 1)
    assert not ok
    assert results["pmc"]["disagreement"] == {"formula": 3, "bruteforce": 2}
    assert results["mm"]["bruteforce"] == 1 == results["mm"]["formula"]
    assert "disagreement" not in results["mm"]
