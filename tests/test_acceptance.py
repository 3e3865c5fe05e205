"""Acceptance gate: one test (and one pass/fail line) per criterion.

Each criterion re-derives its expected values from scratch through the
public API and enforces its own wall-clock limit.
"""

import functools
import math
import random
import time

from stardiag import (
    Model,
    ambiguity_syndrome,
    build_assignment,
    build_nk_star,
    build_witness,
    diagnose,
    distinguishable,
    generate_syndrome,
    is_consistent,
    is_g_good_neighbor,
    min_subgraph_size_oracle,
    rg_connectivity_bruteforce,
    rg_connectivity_formula,
    tg_bruteforce,
    tg_formula,
    verify_split,
)
from stardiag.faults import good_mask


def criterion(num, title, limit_s):
    """Wrap a criterion body with a printed verdict and a time limit."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            started = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"criterion {num:2d} [{title}]: FAIL")
                raise
            elapsed = time.monotonic() - started
            assert elapsed < limit_s, f"criterion {num} took {elapsed:.1f}s (limit {limit_s}s)"
            print(f"criterion {num:2d} [{title}]: PASS ({elapsed:.2f}s)")

        return wrapper

    return deco


@criterion(1, "oracle n=3 specials", 1.0)
def test_criterion_01():
    s31 = build_nk_star(3, 1)
    s32 = build_nk_star(3, 2)
    assert tg_bruteforce(s31, 1, Model.PMC).value == 1
    assert tg_bruteforce(s31, 1, Model.MM).value == 0
    assert tg_bruteforce(s32, 1, Model.MM).value == 1
    pmc = tg_bruteforce(s32, 1, Model.PMC)
    # the six-cycle admits the complementary-halves pair, e.g. {12,21,32}
    # vs {13,23,31}: both 1-good-neighbor sets of size 3 whose union is V,
    # so no fault-free vertex tests their symmetric difference; they are
    # PMC-indistinguishable and t_1 = 2, while the published table says 3
    assert pmc.value == 2, (
        f"exhaustive t_1(S_{{3,2}}) under PMC is {pmc.value}, expected 2 from "
        f"the indistinguishable pair {pmc.pair}"
    )
    assert pmc.pair is not None
    f1, f2 = (frozenset(f) for f in pmc.pair)
    assert f1 != f2
    assert is_g_good_neighbor(s32, f1, 1) and is_g_good_neighbor(s32, f2, 1)
    assert max(len(f1), len(f2)) == pmc.value + 1
    assert f1 | f2 == set(s32.labels)
    assert not distinguishable(s32, f1, f2, Model.PMC)
    # the gap between exhaustion and the published closed form is a checked fact
    assert tg_formula(3, 2, 1, Model.PMC).value == 3


@criterion(2, "oracle n=4", 300.0)
def test_criterion_02():
    s41 = build_nk_star(4, 1)
    s42 = build_nk_star(4, 2)
    for model in Model:
        assert tg_bruteforce(s41, 1, model).value == 1
        assert tg_bruteforce(s41, 2, model).value == 1
    assert tg_bruteforce(s42, 1, Model.PMC).value == 4
    assert tg_bruteforce(s42, 1, Model.MM).value == 3
    assert tg_bruteforce(s42, 2, Model.PMC).value == 5
    assert tg_bruteforce(s42, 2, Model.MM).value == 5


@criterion(3, "kappa agreement", 300.0)
def test_criterion_03():
    assert rg_connectivity_bruteforce(build_nk_star(4, 2), 2) == 3
    assert rg_connectivity_formula(4, 2, 2) == 3
    brute = rg_connectivity_bruteforce(build_nk_star(5, 2), 3)
    assert brute == 4 == rg_connectivity_formula(5, 2, 3)
    assert rg_connectivity_formula(5, 2, 3) == math.factorial(4) * 1 // math.factorial(3)


@criterion(4, "general witness sweep", 60.0)
def test_criterion_04():
    for n in (4, 5, 6):
        for k in range(2, n):
            for g in range(n - k, n - 1):
                wit = build_witness(n, k, g)
                size_a = math.factorial(g + 1) // math.factorial(n - k)
                assert wit.sizes["A"] == size_a
                assert wit.sizes["F1"] == size_a * (n - g - 1)
                assert wit.sizes["F2"] == size_a * (n - g)
                assert wit.checks["f1_good"] and wit.checks["f2_good"]
                assert wit.checks["indistinguishable_pmc"]
                assert wit.checks["indistinguishable_mm"]
                assert wit.sizes["F2"] - 1 == tg_formula(n, k, g, Model.PMC).value


@criterion(5, "S_{n,2} MM* witness", 30.0)
def test_criterion_05():
    for n in (4, 5, 6):
        wit = build_witness(n, 2, 1)
        assert wit.sizes["F1"] == wit.sizes["F2"] == n
        graph = build_nk_star(n, 2)
        assert is_g_good_neighbor(graph, wit.f1, 1)
        assert is_g_good_neighbor(graph, wit.f2, 1)
        assert not distinguishable(graph, wit.f1, wit.f2, Model.MM)


@criterion(6, "split lemma", 60.0)
def test_criterion_06():
    for n, k in [(4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (6, 4), (6, 5)]:
        wit = verify_split(n, k)  # raises on any structural-check failure
        assert wit.t == math.factorial(n - k)


@criterion(7, "band-overlap identity", 10.0)
def test_criterion_07():
    for n in range(3, 11):
        for k in range(2, n):
            g = n - k
            mid = n + g * (k - 1) - 1
            high = math.factorial(g + 1) * (n - g) // math.factorial(n - k) - 1
            assert math.factorial(g + 1) * (n - g) % math.factorial(n - k) == 0
            assert mid == high


@criterion(8, "subgraph-size lemma", 600.0)
def test_criterion_08():
    families = [(n, 1) for n in range(3, 21)] + [(3, 2), (4, 2), (5, 2)]
    for n, k in families:
        graph = build_nk_star(n, k)
        assert graph.vertex_count <= 20
        for g in range(1, n):
            size = min_subgraph_size_oracle(graph, g)
            assert size is not None
            assert size * math.factorial(n - k) >= math.factorial(g + 1), (n, k, g)
    assert min_subgraph_size_oracle(build_nk_star(4, 2), 2) == 3
    assert 3 * math.factorial(2) == math.factorial(3)  # equality case


@criterion(9, "syndrome concordance", 300.0)
def test_criterion_09():
    graph = build_nk_star(4, 2)
    g, t = 2, 5
    rng = random.Random(42)
    indices = list(range(graph.vertex_count))
    for trial in range(100):
        model = Model.PMC if trial % 2 == 0 else Model.MM
        assignment = build_assignment(graph, model)
        while True:
            size = rng.randint(1, t)
            fmask = 0
            for i in rng.sample(indices, size):
                fmask |= 1 << i
            if good_mask(graph, fmask, g):
                break
        truth = graph.labels_of(fmask)
        syn = generate_syndrome(assignment, truth, "random", seed=rng.getrandbits(64))
        assert diagnose(syn, t, g) == [truth], (trial, sorted(truth))
    # the size-6 witness pair is ambiguous under both models
    wit = build_witness(4, 2, 2)
    assert wit.sizes["F2"] == 6
    for model in Model:
        assignment = build_assignment(graph, model)
        syn = ambiguity_syndrome(assignment, wit.f1, wit.f2)
        assert is_consistent(wit.f1, syn) and is_consistent(wit.f2, syn)


@criterion(10, "property sweep", 300.0)
def test_criterion_10():
    graphs = [
        build_nk_star(n, k)
        for n, k in [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2), (6, 1)]
    ]
    rng = random.Random(2024)
    checked = 0
    while checked < 100_000:
        graph = graphs[checked % len(graphs)]
        f1 = rng.getrandbits(graph.vertex_count)
        f2 = rng.getrandbits(graph.vertex_count)
        if f1 == f2:
            continue
        s1 = graph.labels_of(f1)
        s2 = graph.labels_of(f2)
        if distinguishable(graph, s1, s2, Model.MM):
            assert distinguishable(graph, s1, s2, Model.PMC)
        checked += 1
    for graph in graphs:
        if graph.vertex_count > 12:
            continue
        n = graph.degree(graph.labels[0]) + 1
        for g in range(1, n):
            pmc = tg_bruteforce(graph, g, Model.PMC)
            mm = tg_bruteforce(graph, g, Model.MM)
            if pmc.value is not None and mm.value is not None:
                assert mm.value <= pmc.value, (graph.descriptor, g)
