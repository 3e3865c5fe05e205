import math
import random
import re
from itertools import permutations

import pytest
import reference_builders

from stardiag import (
    Model,
    build_complete,
    build_cycle,
    build_nk_star,
    build_star,
    crosscheck,
    from_descriptor,
    verify_split,
)
from stardiag.base import DomainError, VerificationError
from stardiag.graph import TopologyGraph
from stardiag.topologies import (
    _arrangement_graph,
    _check_split,
    _swap_arrays,
    _unrotate,
    arrangement_label,
    within_vertex_cap,
)


def parse_arrangement(label: str, n: int) -> tuple[int, ...]:
    """The symbols of an `arrangement_label`: one digit each for n <= 9, hyphen-split above."""
    if n <= 9:
        return tuple(int(c) for c in label)
    return tuple(int(p) for p in label.split("-"))


def test_arrangement_labels_concatenate_up_to_nine():
    assert arrangement_label((3, 1, 2), 4) == "312"
    assert parse_arrangement("312", 4) == (3, 1, 2)


def test_arrangement_labels_hyphenate_above_nine():
    assert arrangement_label((10, 2), 10) == "10-2"
    assert parse_arrangement("10-2", 10) == (10, 2)


def test_canonical_enumeration_is_sorted_and_complete():
    labs = build_nk_star(4, 2).labels
    assert len(labs) == 12
    assert labs[0] == "12" and labs[-1] == "43"
    # above nine symbols the string order is not the numeric one: "1-10" < "1-2"
    for n, k in [(4, 2), (10, 2)]:
        every = [arrangement_label(p, n) for p in permutations(range(1, n + 1), k)]
        assert list(build_nk_star(n, k).labels) == sorted(every)
    assert build_nk_star(10, 2).labels[:3] == ("1-10", "1-2", "1-3")


def test_nk_star_counts_and_regularity():
    for n, k in [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2), (5, 4)]:
        g = build_nk_star(n, k)
        assert g.vertex_count == math.factorial(n) // math.factorial(n - k)
        assert all(g.degree(lab) == n - 1 for lab in g.labels)
        assert g.is_connected()


def test_nk_star_k1_is_complete():
    g = build_nk_star(4, 1)
    assert g.vertex_count == 4
    assert g.edge_count == 6  # K4


def test_nk_star_32_is_a_six_cycle():
    g = build_nk_star(3, 2)
    assert g.vertex_count == 6
    assert all(g.degree(lab) == 2 for lab in g.labels)
    assert g.is_connected()
    # walk the cycle and come back in exactly six steps
    prev, cur = None, g.labels[0]
    for _ in range(6):
        nxt = sorted(g.neighbors(cur) - {prev})[0]
        prev, cur = cur, nxt
    assert cur == g.labels[0]


def test_nk_star_42_frozen_adjacency():
    g = build_nk_star(4, 2)
    assert g.neighbors("12") == {"21", "32", "42"}
    assert g.neighbors("34") == {"43", "14", "24"}


def test_star_graph_matches_nk_star_at_k_n_minus_1():
    # appending the single missing symbol to each (n-1)-arrangement is an
    # isomorphism onto the star graph
    for n in (3, 4, 5):
        star = build_star(n)
        nk = build_nk_star(n, n - 1)

        def extend(lab):
            p = parse_arrangement(lab, n)
            (missing,) = set(range(1, n + 1)) - set(p)
            return arrangement_label(p + (missing,), n)

        assert sorted(extend(lab) for lab in nk.labels) == sorted(star.labels)
        mapped = sorted(tuple(sorted((extend(a), extend(b)))) for a, b in nk.edges())
        assert mapped == star.edges()


def test_builders_reject_bad_parameters():
    with pytest.raises(DomainError):
        build_nk_star(4, 0)
    with pytest.raises(DomainError):
        build_nk_star(4, 4)
    with pytest.raises(DomainError):
        build_nk_star(1, 1)
    with pytest.raises(DomainError):
        build_star(10)
    with pytest.raises(DomainError):
        build_cycle(2)
    with pytest.raises(DomainError):
        build_complete(0)


def test_vertex_budget_enforced():
    with pytest.raises(DomainError):
        build_nk_star(8, 7)  # 40320 vertices
    with pytest.raises(DomainError, match=r"^S_\{8,5\} is over the cap of 5040 vertices$"):
        from_descriptor("nkstar:8,5")
    for desc in ("complete:5041", "cycle:5041", "star:8"):
        with pytest.raises(DomainError, match="over the cap of 5040 vertices"):
            from_descriptor(desc)
    with pytest.raises(DomainError, match="^C_5041 is over the cap of 5040 vertices$"):
        build_cycle(5041)


def test_within_vertex_cap_agrees_with_the_full_count():
    for n in range(40):
        for k in range(n + 1):
            assert within_vertex_cap(n, k) == (math.perm(n, k) <= 5040), (n, k)
    assert within_vertex_cap(5040, 1) and not within_vertex_cap(5041, 1)
    assert not within_vertex_cap(10**30, 10**29)


def test_from_descriptor_round_trips(tmp_path):
    assert from_descriptor("nkstar:4,2") == build_nk_star(4, 2)
    assert from_descriptor("star:4") == build_star(4)
    assert from_descriptor("complete:5") == build_complete(5)
    assert from_descriptor("cycle:6") == build_cycle(6)
    path = tmp_path / "g.edges"
    path.write_text(build_cycle(5).to_edgelist())
    assert from_descriptor(f"file:{path}").edges() == build_cycle(5).edges()


def test_from_descriptor_rejects_garbage():
    for bad in ("nkstar", "nkstar:4", "nkstar:x,y", "ring:5", "file:/no/such/file"):
        with pytest.raises(DomainError):
            from_descriptor(bad)


def test_from_descriptor_keeps_the_builders_own_error():
    # a well-formed descriptor over the cap is not a malformed one
    for desc, text in (
        ("nkstar:8,7", "S_{8,7} is over the cap of 5040 vertices"),
        ("star:8", "S_8 is over the cap of 5040 vertices"),
        ("complete:100000", "K_100000 is over the cap of 5040 vertices"),
        ("nkstar:4,4", "k=4 out of range for n=4"),
    ):
        with pytest.raises(DomainError) as info:
            from_descriptor(desc)
        assert str(info.value).startswith(text)
    for desc in ("nkstar:x,y", "nkstar:4", "nkstar:4,2,1", "star:4,2", "cycle:six"):
        with pytest.raises(DomainError, match="^bad graph descriptor"):
            from_descriptor(desc)


def _same_graph(built, reference):
    assert built.labels == reference.labels
    assert built.nbr_masks == reference.nbr_masks
    assert built.descriptor == reference.descriptor
    assert built.min_degree() == reference.min_degree()


@pytest.mark.parametrize(
    "n,k",
    [(n, k) for n in range(2, 8) for k in range(1, n)]
    # n >= 10 labels are hyphenated and sort as strings, not numerically
    + [(8, 1), (8, 2), (8, 3), (8, 4), (9, 3), (9, 4), (10, 2), (10, 3), (11, 3), (12, 1), (12, 2)]
    # wide replace cliques near the vertex cap
    + [(20, 2), (70, 2)],
)
def test_nk_star_kernel_matches_the_edge_list_builder(n, k):
    _same_graph(build_nk_star(n, k), reference_builders.build_nk_star(n, k))


@pytest.mark.parametrize("n", range(2, 8))
def test_star_kernel_matches_the_edge_list_builder(n):
    _same_graph(build_star(n), reference_builders.build_star(n))


# 1..9 and 10.. sort apart as strings: u1 < u10 < u2
@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 10, 11, 12, 25])
def test_complete_masks_match_the_edge_list_builder(n):
    _same_graph(build_complete(n), reference_builders.build_complete(n))


@pytest.mark.parametrize("m", [3, 4, 5, 6, 9, 10, 11, 12, 25])
def test_cycle_masks_match_the_edge_list_builder(m):
    _same_graph(build_cycle(m), reference_builders.build_cycle(m))


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7) for k in range(1, n + 1)])
def test_kernel_index_arrays_match_the_arrangements(n, k):
    # the swap arrays and the rotation, held against the arrangements themselves
    verts = list(permutations(range(1, n + 1), k))
    rank = {p: i for i, p in enumerate(verts)}
    sigmas = _swap_arrays(n, k)
    assert len(sigmas) == k - 1
    for j, sigma in enumerate(sigmas, 1):
        assert sigma == [rank[p[j : j + 1] + p[1:j] + p[:1] + p[j + 1 :]] for p in verts], j
        assert all(sigma[q] == i != q for i, q in enumerate(sigma)), j  # no fixed point
    runs = _unrotate(sigmas, len(verts))  # runs[r] is the arrangement that ρ sends to r
    assert [runs[rank[p[1:] + p[:1]]] for p in verts] == list(range(len(verts)))
    width = n - k + 1
    for r in range(0, len(verts), width):
        assert len({verts[i][1:] for i in runs[r : r + width]}) == 1, r


@pytest.mark.parametrize(
    "n,k,desc",
    [(4, 2, "nkstar:4,2"), (7, 6, "nkstar:7,6"), (7, 7, "star:7"), (12, 1, "nkstar:12,1")],
)
def test_kernel_memo_hands_out_the_first_build(n, k, desc):
    _arrangement_graph.cache_clear()
    first = from_descriptor(desc)
    assert from_descriptor(desc) is first
    assert _arrangement_graph.cache_info()[:2] == (1, 1)  # (hits, misses)
    fresh = _arrangement_graph.__wrapped__(n, k)
    assert fresh is not first
    _same_graph(first, fresh)


def test_kernel_memo_keeps_every_build():
    # the 18 graphs of `table --n-min 4 --n-max 7`, twice over: each is built once
    _arrangement_graph.cache_clear()
    cells = [(n, k) for n in range(4, 8) for k in range(1, n)]
    first = [build_nk_star(n, k) for n, k in cells]
    again = [build_nk_star(n, k) for n, k in cells]
    assert all(a is b for a, b in zip(first, again))
    assert _arrangement_graph.cache_info().misses == len(cells) == 18


def test_kernel_stores_the_min_degree_it_builds():
    # every arrangement graph is (n - 1)-regular: min_degree() counts that on
    # its first call and keeps it on the graph
    for n in range(2, 8):
        for graph in [build_nk_star(n, k) for k in range(1, n)] + [build_star(n)]:
            assert graph.min_degree() == graph._min_degree == n - 1, graph.descriptor


def test_only_family_builders_claim_vertex_transitivity(tmp_path):
    flagged = [build_nk_star(5, 2), build_nk_star(12, 1), build_star(4), build_complete(5)]
    flagged += [build_cycle(7)]
    flagged += [from_descriptor(d) for d in ("nkstar:4,3", "star:3", "complete:3", "cycle:6")]
    for graph in flagged:
        assert graph.vertex_transitive is True, graph.descriptor
    path = tmp_path / "c5.edges"
    path.write_text(build_cycle(5).to_edgelist())
    s42 = build_nk_star(4, 2)
    unflagged = [
        from_descriptor(f"file:{path}"),
        TopologyGraph(s42.labels, s42.edges(), s42.descriptor),
        TopologyGraph.from_edgelist_text(s42.to_edgelist()),
    ]
    for graph in unflagged:
        assert graph.vertex_transitive is False, graph.descriptor


def _automorphism_to(graph, v):
    """Vertex map of an automorphism of a family graph that sends vertex 0 to `v`.

    Symbol relabelling for S_{n,k} and S_n, rotation for C_m and a
    transposition for K_m.
    """
    kind, _, arg = graph.descriptor.partition(":")
    labels = graph.labels
    if kind in ("nkstar", "star"):
        n = int(arg.split(",")[0])
        src = parse_arrangement(labels[0], n)
        dst = parse_arrangement(labels[v], n)
        spare = iter(s for s in range(1, n + 1) if s not in dst)
        sigma = {a: b for a, b in zip(src, dst)}
        sigma.update({s: next(spare) for s in range(1, n + 1) if s not in src})
        image = [arrangement_label(tuple(sigma[s] for s in parse_arrangement(lab, n)), n)
                 for lab in labels]
    elif kind == "cycle":
        m = len(labels)
        shift = int(labels[v][1:]) - int(labels[0][1:])
        image = [f"u{(int(lab[1:]) - 1 + shift) % m + 1}" for lab in labels]
    else:
        image = list(labels)
        image[0], image[v] = labels[v], labels[0]
    index = {lab: i for i, lab in enumerate(labels)}
    return [index[lab] for lab in image]


def test_flagged_graphs_map_vertex_0_to_every_vertex():
    # the orbit lemma's premise: an automorphism carries vertex 0 to any vertex
    from conftest import small_graphs

    graphs = [g for g in small_graphs(24) if g.vertex_transitive]
    graphs += [build_star(3), build_star(4)]
    assert {g.descriptor.partition(":")[0] for g in graphs} == {
        "nkstar", "star", "cycle", "complete"
    }
    for graph in graphs:
        for v in range(graph.vertex_count):
            phi = _automorphism_to(graph, v)
            assert phi[0] == v and sorted(phi) == list(range(graph.vertex_count))
            for i, nbrs in enumerate(graph.nbr_masks):
                moved = sum(1 << phi[j] for j in range(graph.vertex_count) if nbrs >> j & 1)
                assert moved == graph.nbr_masks[phi[i]], (graph.descriptor, v, i)


def test_builders_stamp_their_cell(tmp_path):
    # the (n, k) of S_{n,k} comes from the builder that made the graph
    cells = {
        "nkstar:5,2": (5, 2),
        "nkstar:4,3": (4, 3),
        "nkstar:12,1": (12, 1),
        "star:2": (2, 1),
        "star:4": (4, 3),
        "complete:1": (1, 1),
        "complete:6": (6, 1),
        "cycle:6": (3, 2),
        "cycle:5": None,
        "cycle:12": None,
    }
    for desc, cell in cells.items():
        assert from_descriptor(desc).cell == cell, desc
    s42 = build_nk_star(4, 2)
    path = tmp_path / "s42.edges"
    path.write_text(s42.to_edgelist())
    for graph in (
        from_descriptor(f"file:{path}"),
        TopologyGraph(s42.labels, s42.edges(), s42.descriptor),
        TopologyGraph.from_edgelist_text(s42.to_edgelist(), s42.descriptor),
    ):
        assert graph.cell is None, graph.descriptor


def test_crosscheck_takes_the_cell_from_the_graph_not_its_descriptor():
    # a hand-built copy of S_{4,2} that names itself nkstar:4,2 is still
    # outside the family: no closed form and no witness is checked against it
    s42 = build_nk_star(4, 2)
    copy = TopologyGraph(s42.labels, s42.edges(), "nkstar:4,2")
    assert copy == s42 and copy.cell is None
    _, built = crosscheck(s42, 2)
    _, hand = crosscheck(copy, 2)
    for model in Model:
        entry = built[model.value]
        assert entry["formula"] == entry["bruteforce"] and "formula_note" not in entry
        assert entry["witness_upper_bounds"] == {"general": entry["formula"]}
        entry = hand[model.value]
        assert entry["formula"] is None and "formula_note" in entry
        assert "witness_upper_bounds" not in entry
        assert entry["bruteforce"] == built[model.value]["bruteforce"]


@pytest.mark.parametrize(
    "n,k",
    [(4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (6, 4), (6, 5), (7, 2), (7, 3), (7, 4), (7, 5), (7, 6)],
)
def test_split_relationship(n, k):
    wit = verify_split(n, k)
    assert wit.t == math.factorial(n - k)
    assert wit.base.vertex_count == math.factorial(n) // math.factorial(n - k)
    assert wit.split.vertex_count == math.factorial(n)
    # the fibers are the k-prefix classes of the split labels
    assert {lab[:k] for lab in wit.split.labels} == set(wit.base.labels)


def test_split_rejects_k1():
    with pytest.raises(DomainError):
        verify_split(4, 1)


def _damaged_star(topo, edit):
    """build_star with its edge list passed through `edit` first."""
    real = topo.build_star

    def damaged(n):
        g = real(n)
        return topo.TopologyGraph(g.labels, edit(g.edges()), descriptor=g.descriptor)

    return damaged


def test_split_check_i_catches_an_edge_inside_a_fiber(monkeypatch):
    import stardiag.topologies as topo

    # 1234 and 1243 share the 2-prefix 12
    monkeypatch.setattr(topo, "build_star", _damaged_star(topo, lambda es: es + [("1234", "1243")]))
    with pytest.raises(VerificationError, match="fiber '12' is not independent"):
        topo.verify_split(4, 2)


def test_split_check_ii_catches_a_dropped_split_edge(monkeypatch):
    import stardiag.topologies as topo

    # 1234-2134 and 1243-2143 match the fibers 12 and 21; drop the first
    drop = ("1234", "2134")
    monkeypatch.setattr(topo, "build_star", _damaged_star(topo, lambda es: [e for e in es if e != drop]))
    with pytest.raises(VerificationError, match="'1234' has 0 links into fiber '21'"):
        topo.verify_split(4, 2)


def test_split_check_iii_catches_a_stray_split_edge(monkeypatch):
    import stardiag.topologies as topo

    # 12 and 34 are not adjacent in S_{4,2}
    monkeypatch.setattr(topo, "build_star", _damaged_star(topo, lambda es: es + [("1234", "3412")]))
    message = "split edge '1234'-'3412' projects to non-adjacent pair '12','34'"
    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
        topo.verify_split(4, 2)


def test_split_check_ii_catches_a_moved_split_edge(monkeypatch):
    import stardiag.topologies as topo

    # 1243-2143 moved to 1234-2143: both vertices of fiber 21, 2134 and
    # 2143, then have 1234 as a neighbour, so their masks overlap and carry
    def move(es):
        return [e for e in es if e != ("1243", "2143")] + [("1234", "2143")]

    monkeypatch.setattr(topo, "build_star", _damaged_star(topo, move))
    message = (
        "vertex '1234' has 2 links into fiber '21'; perfect matching violated for edge '12'-'21'"
    )
    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
        topo.verify_split(4, 2)


def _edit_edges(rng, labels, edges, k):
    """`edges` with one random edit: an edge added, dropped or moved, or two edges' ends swapped.

    A swap trades the ends of two edges that join the same two k-prefixes,
    so on the split graph it leaves every matching between fibers perfect.
    """
    edges = list(edges)
    present = set(edges) | {(b, a) for a, b in edges}
    kind = rng.choice(["add", "drop", "move", "swap"])
    a, b = edges.pop(rng.randrange(len(edges)))
    if kind == "add":
        edges.append((a, b))
    if kind in ("add", "move"):
        edges.append((a, rng.choice([x for x in labels if x != a and (a, x) not in present])))
    elif kind == "swap":
        same = [(c, d) for c, d in edges if (c[:k], d[:k]) == (a[:k], b[:k])]
        if not same:
            return edges + [(a, b)]  # no edge to swap with: leave the graph as it was
        c, d = rng.choice(same)
        edges.remove((c, d))
        if a == d or c == b or (a, d) in present or (c, b) in present:
            return edges + [(a, b), (c, d)]
        edges += [(a, d), (c, b)]
    return edges


@pytest.mark.parametrize("n,k", [(4, 2), (4, 3), (5, 2), (5, 3)])
def test_split_block_sums_agree_with_the_walk(n, k):
    # the check on fiber blocks accepts exactly the graphs the per-vertex reference accepts
    rng = random.Random(n * 10 + k)
    base, star = build_nk_star(n, k), build_star(n)
    t = math.factorial(n - k)
    verdicts = set()
    for trial in range(60):
        split_edges, base_edges = star.edges(), base.edges()
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.2:
                base_edges = _edit_edges(rng, base.labels, base_edges, k)
            else:
                split_edges = _edit_edges(rng, star.labels, split_edges, k)
        b = TopologyGraph(base.labels, base_edges)
        s = TopologyGraph(star.labels, split_edges)
        try:
            _check_split(b, s, k, t)
            verdict = True
        except VerificationError:
            verdict = False
        expected = reference_builders.split_holds(b, s, k, t)
        assert expected == verdict, (trial, base_edges, split_edges)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_split_check_sees_overlapping_masks_that_add_up_right():
    # a1 and a2 both link to b2, yet their masks add up to E['a'] = {c1, c2}:
    # only their OR shows fiber 'a' failing, before fiber 'b' fails its sum
    base = TopologyGraph("abc", [("a", "c")])
    edges = [("a1", "b2"), ("a2", "b2"), ("a2", "c2")]
    split = TopologyGraph(["a1", "a2", "b1", "b2", "c1", "c2"], edges)
    message = "vertex 'a1' has 0 links into fiber 'c'; perfect matching violated for edge 'a'-'c'"
    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
        _check_split(base, split, 1, 2)


def test_split_walk_names_a_fiber_of_the_wrong_size():
    # S_{4,2}'s fibers in S_4 have 2! = 2 vertices each, not 3
    with pytest.raises(VerificationError, match="^fiber '12' has 2 vertices, expected 3$"):
        _check_split(build_nk_star(4, 2), build_star(4), 2, 3)


def test_split_check_actually_bites(monkeypatch):
    # sabotage the base graph by dropping an edge: check (iii) must fire
    import stardiag.topologies as topo

    real = topo.build_nk_star

    def broken(n, k):
        g = real(n, k)
        a, b = g.edges()[0]
        keep = [e for e in g.edges() if e != (a, b)]
        return topo.TopologyGraph(g.labels, keep, descriptor=g.descriptor)

    monkeypatch.setattr(topo, "build_nk_star", broken)
    with pytest.raises(VerificationError):
        topo.verify_split(4, 2)


def test_split_check_names_a_prefix_missing_from_the_base(monkeypatch):
    # sabotage the base graph by dropping vertex 43: its fiber has no base vertex to map to
    import stardiag.topologies as topo

    real = topo.build_nk_star

    def shrunk(n, k):
        g = real(n, k)
        keep = [lab for lab in g.labels if lab != "43"]
        edges = [e for e in g.edges() if "43" not in e]
        return topo.TopologyGraph(keep, edges, descriptor=g.descriptor)

    monkeypatch.setattr(topo, "build_nk_star", shrunk)
    message = "split vertex '4312' has prefix '43', which names no base vertex"
    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
        topo.verify_split(4, 2)
