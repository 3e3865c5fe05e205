"""Builders for the concrete graph families and the split-graph check.

Families: the star graph on all n-permutations, the (n,k)-star graph on
k-arrangements, complete graphs and cycles.  All builders produce
deterministic lexicographic vertex orderings.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .base import DomainError, VerificationError
from .graph import TopologyGraph, _iter_bits

#: default cap on generated vertices (7! keeps exhaustive checks tractable)
DEFAULT_VERTEX_BUDGET = 5040


def arrangement_label(symbols: tuple[int, ...], n: int) -> str:
    """Concatenated symbols for n <= 9, hyphen-delimited above that."""
    if n <= 9:
        return "".join(str(s) for s in symbols)
    return "-".join(str(s) for s in symbols)


def parse_arrangement(label: str, n: int) -> tuple[int, ...]:
    if n <= 9:
        return tuple(int(c) for c in label)
    return tuple(int(p) for p in label.split("-"))


def arrangements(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-arrangements of 1..n in lexicographic order."""
    return list(itertools.permutations(range(1, n + 1), k))


def canonical_vertex_enumeration(n: int, k: int) -> list[str]:
    """Labels of all k-arrangements of 1..n in the graph's index order.

    That order sorts the labels as strings, so for n >= 10 it is not the
    numeric order of the arrangements: "1-10" comes before "1-2".
    """
    _check_nk(n, k)
    return sorted(arrangement_label(p, n) for p in arrangements(n, k))


def _check_nk(n: int, k: int, max_vertices: int = DEFAULT_VERTEX_BUDGET):
    if n < 2:
        raise DomainError(f"n={n} out of range (need n >= 2)")
    if not 1 <= k <= n - 1:
        raise DomainError(f"k={k} out of range for n={n} (need 1 <= k <= n-1)")
    count = 1
    for i in range(n, n - k, -1):
        count *= i
    if count > max_vertices:
        raise DomainError(
            f"S_{{{n},{k}}} has {count} vertices, over the budget of {max_vertices}"
        )


def build_star(n: int, max_vertices: int = DEFAULT_VERTEX_BUDGET) -> TopologyGraph:
    """Star graph on all permutations of 1..n; edges swap position 1 with i."""
    if not 2 <= n <= 9:
        raise DomainError(f"n={n} out of range for a full star graph (need 2 <= n <= 9)")
    perms = arrangements(n, n)
    if len(perms) > max_vertices:
        raise DomainError(f"star graph on {len(perms)} vertices exceeds budget {max_vertices}")
    labels = [arrangement_label(p, n) for p in perms]
    edges = []
    for p in perms:
        lp = arrangement_label(p, n)
        for i in range(1, n):
            q = (p[i],) + p[1:i] + (p[0],) + p[i + 1 :]
            if q > p:
                edges.append((lp, arrangement_label(q, n)))
    return TopologyGraph(labels, edges, descriptor=f"star:{n}")


def build_nk_star(
    n: int, k: int, max_vertices: int = DEFAULT_VERTEX_BUDGET
) -> TopologyGraph:
    """(n,k)-star graph on k-arrangements of 1..n.

    Adjacency: swap the first symbol with the symbol at position i (2<=i<=k),
    or replace the first symbol by any symbol not already used.  The result
    is (n-1)-regular with n!/(n-k)! vertices; k=1 yields the complete graph.
    """
    _check_nk(n, k, max_vertices)
    verts = arrangements(n, k)
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


def build_complete(n: int, max_vertices: int = DEFAULT_VERTEX_BUDGET) -> TopologyGraph:
    if n < 1:
        raise DomainError("complete graph needs n >= 1")
    if n > max_vertices:
        raise DomainError(f"complete graph on {n} vertices exceeds budget {max_vertices}")
    labels = [f"u{i}" for i in range(1, n + 1)]
    edges = [(a, b) for a, b in itertools.combinations(labels, 2)]
    return TopologyGraph(labels, edges, descriptor=f"complete:{n}")


def build_cycle(m: int, max_vertices: int = DEFAULT_VERTEX_BUDGET) -> TopologyGraph:
    if m < 3:
        raise DomainError("cycle needs m >= 3")
    if m > max_vertices:
        raise DomainError(f"cycle on {m} vertices exceeds budget {max_vertices}")
    labels = [f"u{i}" for i in range(1, m + 1)]
    edges = [(labels[i], labels[(i + 1) % m]) for i in range(m)]
    return TopologyGraph(labels, edges, descriptor=f"cycle:{m}")


def from_descriptor(desc: str, max_vertices: int = DEFAULT_VERTEX_BUDGET) -> TopologyGraph:
    """Parse 'star:n', 'nkstar:n,k', 'complete:n', 'cycle:m' or 'file:<path>'."""
    kind, sep, arg = desc.partition(":")
    if not sep:
        raise DomainError(f"bad graph descriptor {desc!r}")
    try:
        if kind == "star":
            return build_star(int(arg), max_vertices)
        if kind == "nkstar":
            n_s, k_s = arg.split(",")
            return build_nk_star(int(n_s), int(k_s), max_vertices)
        if kind == "complete":
            return build_complete(int(arg), max_vertices)
        if kind == "cycle":
            return build_cycle(int(arg), max_vertices)
    except ValueError as exc:
        raise DomainError(f"bad graph descriptor {desc!r}: {exc}") from None
    if kind == "file":
        if not os.path.exists(arg):
            raise DomainError(f"graph file not found: {arg}")
        with open(arg) as fh:
            return TopologyGraph.from_edgelist_text(fh.read(), descriptor=desc)
    raise DomainError(f"unknown graph family {kind!r} in descriptor {desc!r}")


def descriptor_params(desc: str) -> tuple[int, int] | None:
    """(n, k) for descriptors naming a star-family graph, else None."""
    kind, _, arg = desc.partition(":")
    try:
        if kind == "nkstar":
            n_s, k_s = arg.split(",")
            return int(n_s), int(k_s)
        if kind == "star":
            return int(arg), int(arg) - 1
        if kind == "complete":
            return int(arg), 1
        if kind == "cycle" and int(arg) == 6:
            return 3, 2
    except ValueError:
        return None
    return None


@dataclass(frozen=True)
class SplitWitness:
    """Checked evidence that blowing up S_{n,k} by (n-k)! recovers S_n.

    `projection` maps each full-permutation label to its k-prefix label;
    the fibers of that map are the independent vertex classes and the
    prefix-extension matching realizes every base edge.
    """

    base: TopologyGraph
    split: TopologyGraph
    projection: dict[str, str]
    t: int

    @property
    def fiber_count(self) -> int:
        return self.base.vertex_count


def verify_split(
    n: int, k: int, max_vertices: int = DEFAULT_VERTEX_BUDGET
) -> SplitWitness:
    """Build S_n and S_{n,k} and verify the (n-k)!-split relationship.

    Checks, exhaustively: (i) every fiber has (n-k)! vertices and is
    independent in S_n; (ii) the S_n edges between the fibers of each
    S_{n,k} edge form a perfect matching; (iii) every S_n edge projects
    onto an S_{n,k} edge.  Any failure raises VerificationError.
    """
    if not 2 <= k <= n - 1:
        raise DomainError(f"verify_split needs 2 <= k <= n-1, got n={n}, k={k}")
    base = build_nk_star(n, k, max_vertices)
    split = build_star(n, max_vertices)
    t = 1
    for i in range(1, n - k + 1):
        t *= i

    projection: dict[str, str] = {}
    fibers: dict[str, int] = {lab: 0 for lab in base.labels}
    for lab in split.labels:
        perm = parse_arrangement(lab, n)
        pref = arrangement_label(perm[:k], n)
        projection[lab] = pref
        fibers[pref] |= 1 << split._index[lab]

    # (i) fiber sizes and independence
    for pref, fmask in fibers.items():
        if fmask.bit_count() != t:
            raise VerificationError(
                f"fiber {pref!r} has {fmask.bit_count()} vertices, expected {t}"
            )
        for i in _iter_bits(fmask):
            if split.nbr_masks[i] & fmask:
                raise VerificationError(f"fiber {pref!r} is not independent in the split graph")

    # (ii) perfect matchings across every base edge
    for x, y in base.edges():
        fx, fy = fibers[x], fibers[y]
        matched = 0
        for i in _iter_bits(fx):
            link = split.nbr_masks[i] & fy
            if link.bit_count() != 1:
                raise VerificationError(
                    f"vertex {split.labels[i]!r} has {link.bit_count()} links into "
                    f"fiber {y!r}; perfect matching violated for edge {x!r}-{y!r}"
                )
            matched |= link
        if matched != fy:
            raise VerificationError(f"matching for edge {x!r}-{y!r} misses part of fiber {y!r}")

    # (iii) every split edge projects onto a base edge
    for a, b in split.edges():
        pa, pb = projection[a], projection[b]
        ia, ib = base._index[pa], base._index[pb]
        if not (base.nbr_masks[ia] >> ib) & 1:
            raise VerificationError(
                f"split edge {a!r}-{b!r} projects to non-adjacent pair {pa!r},{pb!r}"
            )

    return SplitWitness(base=base, split=split, projection=projection, t=t)
