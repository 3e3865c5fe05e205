"""The edge-list family builders as they stood before the mask builders, kept as a reference.

The builders below label both ends of every edge and hand the edge list to
the validating `TopologyGraph` constructor; the mask builders in
``stardiag.topologies`` must return the identical labels, neighbour masks
and descriptor.  `split_holds` is the verdict of the split check, read
vertex by vertex.
"""

from collections import Counter
from itertools import combinations, permutations

from stardiag.base import DomainError
from stardiag.graph import TopologyGraph
from stardiag.topologies import (
    DEFAULT_VERTEX_BUDGET,
    _check_nk,
    arrangement_label,
)


def build_star(n: int) -> TopologyGraph:
    """Star graph on all permutations of 1..n; edges swap position 1 with i."""
    if not 2 <= n <= 9:
        raise DomainError(f"n={n} out of range for a full star graph (need 2 <= n <= 9)")
    perms = list(permutations(range(1, n + 1)))
    if len(perms) > DEFAULT_VERTEX_BUDGET:
        raise DomainError(
            f"star graph on {len(perms)} vertices exceeds budget {DEFAULT_VERTEX_BUDGET}"
        )
    labels = [arrangement_label(p, n) for p in perms]
    edges = []
    for p in perms:
        lp = arrangement_label(p, n)
        for i in range(1, n):
            q = (p[i],) + p[1:i] + (p[0],) + p[i + 1 :]
            if q > p:
                edges.append((lp, arrangement_label(q, n)))
    return TopologyGraph(labels, edges, descriptor=f"star:{n}")


def build_nk_star(n: int, k: int) -> TopologyGraph:
    """(n,k)-star graph on k-arrangements of 1..n.

    Adjacency: swap the first symbol with the symbol at position i (2<=i<=k),
    or replace the first symbol by any symbol not already used.  The result
    is (n-1)-regular with n!/(n-k)! vertices; k=1 yields the complete graph.
    """
    _check_nk(n, k)
    verts = list(permutations(range(1, n + 1), k))
    labels = [arrangement_label(p, n) for p in verts]
    alphabet = set(range(1, n + 1))
    edges = []
    for p in verts:
        lp = arrangement_label(p, n)
        for i in range(1, k):  # swap rule
            q = (p[i],) + p[1:i] + (p[0],) + p[i + 1 :]
            if q > p:
                edges.append((lp, arrangement_label(q, n)))
        for s in alphabet - set(p):  # replace rule
            q = (s,) + p[1:]
            if q > p:
                edges.append((lp, arrangement_label(q, n)))
    return TopologyGraph(labels, edges, descriptor=f"nkstar:{n},{k}")


def build_complete(n: int) -> TopologyGraph:
    labels = [f"u{i}" for i in range(1, n + 1)]
    return TopologyGraph(labels, combinations(labels, 2), descriptor=f"complete:{n}")


def build_cycle(m: int) -> TopologyGraph:
    labels = [f"u{i}" for i in range(1, m + 1)]
    edges = [(labels[i], labels[(i + 1) % m]) for i in range(m)]
    return TopologyGraph(labels, edges, descriptor=f"cycle:{m}")


def split_holds(base: TopologyGraph, split: TopologyGraph, k: int, t: int) -> bool:
    """(i)-(iii) of `verify_split`, read vertex by vertex.

    True iff every fiber has t vertices and each split vertex's neighbours
    have distinct k-prefixes, which are exactly its base vertex's neighbours.
    """
    if Counter(lab[:k] for lab in split.labels) != dict.fromkeys(base.labels, t):
        return False
    for lab in split.labels:
        prefixes = [nb[:k] for nb in split.neighbors(lab)]
        if len(set(prefixes)) < len(prefixes) or set(prefixes) != base.neighbors(lab[:k]):
            return False
    return True
