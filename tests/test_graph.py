import random
import re

import pytest

from stardiag import TopologyGraph, build_nk_star, build_star
from stardiag.base import DomainError
from stardiag.graph import _iter_bits

from conftest import random_graph, ref_components, small_graphs


def small():
    return TopologyGraph(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e")],
        descriptor="toy",
    )


def test_labels_sorted_and_deduplicated():
    g = TopologyGraph(["b", "a", "a", "c"], [("a", "b")])
    assert g.labels == ("a", "b", "c")
    assert g.vertex_count == 3


def test_duplicate_edges_collapse():
    g = TopologyGraph(["a", "b"], [("a", "b"), ("b", "a"), ("a", "b")])
    assert g.edge_count == 1


def test_self_loop_rejected():
    with pytest.raises(DomainError):
        TopologyGraph(["a"], [("a", "a")])


def test_empty_vertex_set_rejected():
    with pytest.raises(DomainError):
        TopologyGraph([])


@pytest.mark.parametrize("label", ["", "a b", "a\tb", "a\n", " a", "a\u2028b"])
def test_labels_no_text_format_can_carry_are_rejected(label):
    # both the edge list and the syndrome text split their lines on whitespace
    with pytest.raises(DomainError, match="empty, holds whitespace"):
        TopologyGraph([label, "c", "d"], [("c", "d")])


def test_a_label_that_starts_an_edge_list_comment_is_rejected():
    # '#a b' would be skipped as a comment, so the edge list would read back as b - c
    with pytest.raises(DomainError, match="starts with '#'"):
        TopologyGraph(["#a", "b", "c"], [("#a", "b"), ("b", "c")])
    inner = TopologyGraph(["a#", "b", "c"], [("a#", "b"), ("b", "c")])
    assert TopologyGraph.from_edgelist_text(inner.to_edgelist()).labels == inner.labels


def test_unknown_vertex_rejected():
    with pytest.raises(DomainError):
        small().neighbors("zz")
    with pytest.raises(DomainError):
        TopologyGraph(["a"], [("a", "zz")])


def test_neighbors_and_degree():
    g = small()
    assert g.neighbors("a") == {"b", "c"}
    assert g.neighbors("d") == {"e"}
    assert g.degree("a") == 2
    assert g.degree("e") == 1
    assert g.min_degree() == 1


def test_neighborhood_of_set_excludes_the_set():
    g = small()
    for fset, want in [({"a"}, {"b", "c"}), ({"a", "b"}, {"c"}), ({"a", "b", "c"}, set())]:
        assert g.labels_of(g.neighborhood_mask(g.mask_of(fset))) == want


def _with_neighbors_in_by_definition(graph, mask, c):
    counts = [(m & mask).bit_count() for m in graph.nbr_masks]
    return sum(1 << v for v, count in enumerate(counts) if count >= c)


def test_with_neighbors_in_counts_neighbours_in_the_mask():
    rng = random.Random(6)
    for graph in small_graphs(12):
        top = max(map(int.bit_count, graph.nbr_masks)) + 2
        for _ in range(10):
            mask = rng.getrandbits(graph.vertex_count)
            for c in range(-1, top + 1):
                want = _with_neighbors_in_by_definition(graph, mask, c)
                assert graph.with_neighbors_in(mask, c) == want, (graph.descriptor, mask, c)


def test_with_neighbors_in_on_wide_graphs_with_sparse_and_dense_masks():
    # a sparse mask is peeled by _iter_bits, a dense one read in one pass
    rng = random.Random(7)
    for graph in (random_graph(100, 0.05, 1), build_nk_star(7, 6)):
        n, top = graph.vertex_count, max(map(int.bit_count, graph.nbr_masks)) + 2
        read = set()
        for density in (0.005, 0.05, 0.3):
            for _ in range(2):
                mask = sum(1 << i for i in range(n) if rng.random() < density)
                read.add(mask.bit_length() > 64 and 8 * mask.bit_count() >= mask.bit_length())
                for c in range(-1, top + 1):
                    want = _with_neighbors_in_by_definition(graph, mask, c)
                    assert graph.with_neighbors_in(mask, c) == want, (graph.descriptor, c)
        assert read == {False, True}, graph.descriptor


def test_components_match_union_find_reference():
    g = small()
    assert g.component_masks() == [g.mask_of("abc"), g.mask_of("de")]
    assert g.component_masks(g.mask_of("abce")) == [g.mask_of("abc"), g.mask_of("e")]
    assert not g.is_connected()
    for seed in range(20):
        g = random_graph(10, 0.25, seed)
        comps = sorted(map(g.labels_of, g.component_masks()), key=lambda s: (len(s), min(s)))
        assert comps == ref_components(g)
        assert g.is_connected() == (len(comps) == 1)


def test_edges_symmetric_and_sorted():
    g = small()
    assert g.edges() == [("a", "b"), ("a", "c"), ("b", "c"), ("d", "e")]
    # adjacency masks are symmetric
    for i in range(g.vertex_count):
        for j in range(g.vertex_count):
            assert ((g.nbr_masks[i] >> j) & 1) == ((g.nbr_masks[j] >> i) & 1)


def test_edgelist_round_trip():
    g = small()
    text = g.to_edgelist()
    back = TopologyGraph.from_edgelist_text(text, descriptor="toy")
    assert back.edges() == g.edges()
    assert back.to_edgelist() == text


def test_edgelist_parser_rejects_malformed_lines():
    with pytest.raises(DomainError):
        TopologyGraph.from_edgelist_text("a b c\n")
    with pytest.raises(DomainError):
        TopologyGraph.from_edgelist_text("# comment only\n")


def test_edgelist_comments_and_blanks_ignored():
    g = TopologyGraph.from_edgelist_text("# hi\n\na b\n")
    assert g.edges() == [("a", "b")]


def test_dot_output_names_isolated_vertices():
    g = TopologyGraph(["a", "b", "c"], [("a", "b")])
    dot = g.to_dot()
    assert '"c";' in dot
    assert '"a" -- "b";' in dot


def test_dot_escapes_quotes_and_backslashes_in_every_id():
    g = TopologyGraph(['a"b', "c\\", "d"], [('a"b', "c\\")], descriptor='file:x"y')
    dot = g.to_dot()
    assert dot.splitlines()[2] == r'  "a\"b" -- "c\\";'
    # a quoted ID ends at the first quote no backslash escapes; \\ and \" stand for \ and "
    quoted = re.findall(r'"((?:[^"\\]|\\.)*)"', dot)
    ids = [re.sub(r"\\(.)", r"\1", raw) for raw in quoted]
    assert ids[0] == g.descriptor and sorted(set(ids[1:])) == list(g.labels)


def test_construction_deterministic():
    e = [("b", "c"), ("a", "b")]
    g1 = TopologyGraph(["c", "b", "a"], e)
    g2 = TopologyGraph(["a", "b", "c"], list(reversed(e)))
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1.to_edgelist() == g2.to_edgelist()


def _peeled(mask):
    """The set bits of `mask`, lowest first, one `m & -m` peel at a time."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def _mask_with(width, count, rng):
    """A mask of exactly `width` bits (its top bit set) with `count` bits set."""
    return 1 << width - 1 | sum(1 << i for i in rng.sample(range(width - 1), count - 1))


@pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 720, 5040])
def test_iter_bits_equals_the_peel_on_both_sides_of_the_dispatch(width):
    # a mask wider than 64 bits is read in one pass from 1 bit in 8 up and
    # peeled below that; the counts straddle 1 in 8
    rng = random.Random(width)
    eighth = -(-width // 8)
    counts = {1, eighth - 1, eighth, width // 2, width} - {0} if width else set()
    masks = [0] + [_mask_with(width, c, rng) for c in counts]
    masks += [rng.getrandbits(width) for _ in range(3)]
    read = [m for m in masks if m.bit_length() > 64 and 8 * m.bit_count() >= m.bit_length()]
    if width > 64:
        assert 0 < len(read) < len(masks)
    for mask in masks:
        assert list(_iter_bits(mask)) == _peeled(mask)


def test_iter_bits_equals_the_peel_on_every_neighbour_mask_of_s7():
    # n - 1 = 6 bits in 5040: sparse wide masks, which stay on the peel
    for mask in build_star(7).nbr_masks:
        assert list(_iter_bits(mask)) == _peeled(mask)
