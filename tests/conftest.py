import itertools
import random

import pytest

from stardiag.graph import TopologyGraph


@pytest.fixture(scope="session")
def s42():
    from stardiag import build_nk_star

    return build_nk_star(4, 2)


@pytest.fixture(scope="session")
def c6():
    from stardiag import build_cycle

    return build_cycle(6)


def random_graph(n, p, seed):
    rng = random.Random(seed)
    labels = [f"v{i:02d}" for i in range(n)]
    edges = [(a, b) for a, b in itertools.combinations(labels, 2) if rng.random() < p]
    return TopologyGraph(labels, edges, descriptor=f"rand:{n},{seed}")


def ref_components(graph):
    """Independent union-find over the edge list, for cross-checking BFS."""
    parent = {lab: lab for lab in graph.labels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in graph.edges():
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for lab in graph.labels:
        groups.setdefault(find(lab), set()).add(lab)
    return sorted(
        (frozenset(g) for g in groups.values()), key=lambda s: (len(s), min(s))
    )


def small_graphs(max_vertices):
    """Every S_{n,k}, C_m and K_m, and seeded random graphs, of at most `max_vertices` vertices."""
    from stardiag import build_complete, build_cycle, build_nk_star

    graphs = []
    for n in range(3, max_vertices + 1):
        size = 1
        for k in range(1, n):
            size *= n - k + 1
            if size > max_vertices:
                break
            graphs.append(build_nk_star(n, k))
    graphs += [build_cycle(m) for m in range(3, max_vertices + 1)]
    graphs += [build_complete(m) for m in range(3, min(10, max_vertices) + 1)]
    graphs += [
        random_graph(n, (0.3, 0.5)[seed % 2], seed)
        for n in (7, 9, 11, 13, 16)
        if n <= max_vertices
        for seed in range(4)
    ]
    return graphs
