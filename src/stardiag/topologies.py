"""Builders for the concrete graph families and the split-graph check.

Families: the star graph on all n-permutations, the (n,k)-star graph on
k-arrangements, complete graphs and cycles.  All builders produce
deterministic lexicographic vertex orderings.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .base import DomainError, VerificationError
from .graph import TopologyGraph, _iter_bits

#: default cap on generated vertices (7! keeps exhaustive checks tractable)
DEFAULT_VERTEX_BUDGET = 5040


def arrangement_label(symbols: tuple[int, ...], n: int) -> str:
    """Concatenated symbols for n <= 9, hyphen-delimited above that."""
    if n <= 9:
        return "".join(map(str, symbols))
    return "-".join(map(str, symbols))


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


def _check_nk(n: int, k: int):
    if n < 2:
        raise DomainError(f"n={n} out of range (need n >= 2)")
    if not 1 <= k <= n - 1:
        raise DomainError(f"k={k} out of range for n={n} (need 1 <= k <= n-1)")
    count = math.perm(n, k)
    if count > DEFAULT_VERTEX_BUDGET:
        raise DomainError(
            f"S_{{{n},{k}}} has {count} vertices, over the budget of {DEFAULT_VERTEX_BUDGET}"
        )


def _swap_arrays(n: int, k: int) -> list[list[int]]:
    """[σ_1, ..., σ_{k-1}] as index arrays over A(n, k); see `_arrangement_graph`."""
    if k < 2:
        return []
    run = math.perm(n - 2, k - 2)
    block = (n - 1) * run  # the arrangements that share their first symbol
    s1 = []
    for a in range(n):
        for b in range(n):
            if b != a:  # the run that starts (a, b) onto the run that starts (b, a)
                start = b * block + (a - (a > b)) * run
                s1.extend(range(start, start + run))
    sigmas = [s1]
    for sub in _swap_arrays(n - 1, k - 1):  # sub is σ_{j-1} of A(n-1, k-1), tau is τ_j
        tau = [start + i for start in range(0, n * block, block) for i in sub]
        sigmas.append(list(map(s1.__getitem__, map(tau.__getitem__, s1))))
    return sigmas


def _unrotate(sigmas: list[list[int]], count: int) -> list[int]:
    """ρ⁻¹ = σ_{k-1} ∘ ... ∘ σ_1 as an index array: entry r is the arrangement ρ sends to r."""
    runs = list(range(count))
    for s in sigmas:  # σ_1 applied first: each σ_j is its own inverse
        runs = list(map(s.__getitem__, runs))
    return runs


@functools.cache
def _arrangement_graph(n: int, k: int, descriptor: str) -> TopologyGraph:
    """The graph on k-arrangements of 1..n, built straight into neighbour masks.

    A process builds each graph once and keeps it: the vertex cap holds a
    graph to about 3.6 MB, and `table --n-min 4 --n-max 7` builds 18.
    Callers share the returned object, so none may write to it (see
    `TopologyGraph.from_masks`).

    Two rules give the edges.  Swap: σ_j trades the symbols at positions 0
    and j (1 <= j < k).  Replace: the arrangements that share p[1:] form a
    clique, since each is the other with its first symbol replaced by an
    unused one.  With k = n no symbol is unused, only the swap rule applies,
    and the result is the star graph.  Either way each vertex has n - k
    replace neighbours and k - 1 swap neighbours, so the graph is
    (n - 1)-regular.  It is also vertex-transitive: renaming the symbols
    maps the graph onto itself and carries any arrangement to any other.

    No arrangement is built or hashed.  Let A(n, k) list the arrangements
    in lexicographic order and P(n, k) = n!/(n-k)! count them; each rule
    is an index array over that order, by four facts.

    1. σ_1 is a list of runs.  The arrangements that start (a, b) are the
       P(n-2, k-2) consecutive indices whose tails are the arrangements of
       [n] - {a, b} in order; so are those that start (b, a), whence σ_1
       maps the one run onto the other in order.
    2. σ_j = σ_1 ∘ τ_j ∘ σ_1 for 2 <= j < k, where τ_j swaps positions 1
       and j: σ_1 moves p[0] to position 1, τ_j trades it with p[j], and
       σ_1 brings p[j] to the front and p[1] back to position 1.  τ_j keeps
       the first symbol a, and inside a's block of P(n-1, k-1) indices it
       is σ_{j-1} of A(n-1, k-1) shifted by the block's start: renaming
       [n] - {a} onto [n-1] in order keeps lexicographic order and commutes
       with swapping positions.  So σ_j comes from the same arrays one
       size down.
    3. The replace cliques are runs after a rotation.  ρ(p) = p[1:] + p[:1]
       is σ_{k-1}, then σ_{k-2}, ..., then σ_1: σ_{k-1} parks p[0] at
       position k-1, and each later σ_j sets the front symbol p[j+1] down
       at position j and brings p[j] to the front.  The arrangements
       sharing p[1:] = q go to q + (x,) for the n - k + 1 unused x, one
       run.  Each clique mask is built once from its run; a vertex's mask
       is its clique mask with its own bit cleared, OR one bit per σ_j.
    4. For n >= 10 the graph's index order sorts the labels as strings,
       which is not their numeric order ("1-10" comes before "1-2").  It is
       the lexicographic order after renaming every symbol by the rank of
       its string: at the first position where two arrangements differ,
       their labels compare as those two symbol strings do, since a string
       that is a prefix of the other is followed by "-" or the end of its
       label, both below any digit.  Renaming the symbols is an
       automorphism, so the masks built over A(n, k) are already the masks
       of the sorted labels; only the labels need sorting.
    """
    # arrangement_label of each, joined from the symbols' strings in lexicographic order
    symbols = [str(s) for s in range(1, n + 1)]
    labels = list(map(("" if n <= 9 else "-").join, itertools.permutations(symbols, k)))
    count = len(labels)
    sigmas = _swap_arrays(n, k)
    runs = _unrotate(sigmas, count) if k < n else []
    if n >= 10:  # fact 4
        labels.sort()
    masks = [0] * count
    width = n - k + 1
    for r in range(0, len(runs), width):
        clique = runs[r : r + width]
        mask = sum(map((1).__lshift__, clique))
        for i in clique:
            masks[i] = mask ^ 1 << i
    for s in sigmas:  # in place: a second list of masks would double the peak memory
        for i, q in enumerate(s):
            masks[i] |= 1 << q
    return TopologyGraph.from_masks(
        labels, masks, descriptor, min_degree=n - 1, vertex_transitive=True, cell=(n, min(k, n - 1))
    )


def build_star(n: int) -> TopologyGraph:
    """Star graph on all permutations of 1..n; edges swap position 1 with i."""
    if not 2 <= n <= 9:
        raise DomainError(f"n={n} out of range for a full star graph (need 2 <= n <= 9)")
    count = math.factorial(n)
    if count > DEFAULT_VERTEX_BUDGET:
        raise DomainError(f"star graph on {count} vertices exceeds budget {DEFAULT_VERTEX_BUDGET}")
    return _arrangement_graph(n, n, f"star:{n}")


def build_nk_star(n: int, k: int) -> TopologyGraph:
    """(n,k)-star graph on k-arrangements of 1..n.

    Adjacency: swap the first symbol with the symbol at position i (2<=i<=k),
    or replace the first symbol by any symbol not already used.  The result
    is (n-1)-regular with n!/(n-k)! vertices; k=1 yields the complete graph.
    """
    _check_nk(n, k)
    return _arrangement_graph(n, k, f"nkstar:{n},{k}")


def build_complete(n: int) -> TopologyGraph:
    if n < 1:
        raise DomainError("complete graph needs n >= 1")
    if n > DEFAULT_VERTEX_BUDGET:
        raise DomainError(f"complete graph on {n} vertices exceeds budget {DEFAULT_VERTEX_BUDGET}")
    labels = sorted(f"u{i}" for i in range(1, n + 1))
    full = (1 << n) - 1
    masks = [full ^ 1 << i for i in range(n)]
    return TopologyGraph.from_masks(
        labels, masks, f"complete:{n}", min_degree=n - 1, vertex_transitive=True, cell=(n, 1)
    )


def build_cycle(m: int) -> TopologyGraph:
    if m < 3:
        raise DomainError("cycle needs m >= 3")
    if m > DEFAULT_VERTEX_BUDGET:
        raise DomainError(f"cycle on {m} vertices exceeds budget {DEFAULT_VERTEX_BUDGET}")
    labels = sorted(f"u{i}" for i in range(1, m + 1))
    at = {lab: i for i, lab in enumerate(labels)}
    ring = [at[f"u{i}"] for i in range(1, m + 1)]
    masks = [0] * m
    for a, b in zip(ring, ring[1:] + ring[:1]):
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    # rotations carry any vertex to any other
    return TopologyGraph.from_masks(
        labels, masks, f"cycle:{m}", min_degree=2, vertex_transitive=True,
        cell=(3, 2) if m == 6 else None,
    )


def from_descriptor(desc: str) -> TopologyGraph:
    """Parse 'star:n', 'nkstar:n,k', 'complete:n', 'cycle:m' or 'file:<path>'."""
    kind, sep, arg = desc.partition(":")
    if not sep:
        raise DomainError(f"bad graph descriptor {desc!r}")
    builders = {
        "star": build_star,
        "nkstar": build_nk_star,
        "complete": build_complete,
        "cycle": build_cycle,
    }
    if kind in builders:
        # only a parse failure reads as a bad descriptor; a builder's DomainError passes through
        try:
            if kind == "nkstar":
                n_s, k_s = arg.split(",")
                params = (int(n_s), int(k_s))
            else:
                params = (int(arg),)
        except ValueError as exc:
            raise DomainError(f"bad graph descriptor {desc!r}: {exc}") from None
        return builders[kind](*params)
    if kind == "file":
        try:
            with open(arg) as fh:
                text = fh.read()
        except FileNotFoundError:
            raise DomainError(f"graph file not found: {arg}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError(f"cannot read graph file {arg}: {exc}") from None
        return TopologyGraph.from_edgelist_text(text, descriptor=desc)
    raise DomainError(f"unknown graph family {kind!r} in descriptor {desc!r}")


@dataclass(frozen=True)
class SplitWitness:
    """Checked evidence that blowing up S_{n,k} by (n-k)! recovers S_n.

    `projection` maps each full-permutation label to its k-prefix label;
    the fibers of that map are the independent vertex classes and the
    prefix-extension matching realizes every base edge.
    """

    base: TopologyGraph
    split: TopologyGraph
    t: int

    @property
    def fiber_count(self) -> int:
        return self.base.vertex_count

    @property
    def projection(self) -> dict[str, str]:
        """Each split label mapped to its k-prefix, built anew on each read."""
        k = len(self.base.labels[0])  # n <= 9: one character per symbol
        return {lab: lab[:k] for lab in self.split.labels}


def verify_split(n: int, k: int) -> SplitWitness:
    """Build S_n and S_{n,k} and verify the (n-k)!-split relationship.

    Checks, exhaustively: (i) every fiber has (n-k)! vertices and is
    independent in S_n; (ii) the S_n edges between the fibers of each
    S_{n,k} edge form a perfect matching; (iii) every S_n edge projects
    onto an S_{n,k} edge.  Any failure raises VerificationError.

    The check runs on whole masks.  The labels are sorted, so their
    k-prefixes come out sorted too, and once every fiber has t = (n-k)!
    vertices fiber x is the index block [x*t, (x+1)*t).  Let E[x] be the
    union of the blocks of x's base neighbours.  Then (i)-(iii) hold iff
    the split masks of block x add up to E[x] for every x and their bit
    counts add up to t times the base masks' bit counts.  Adding masks
    carries wherever two of them overlap, so the sum has at most as many
    bits as its terms together, and exactly as many only when they are
    disjoint.  The bit counts therefore give sum |N(i)| >= sum |E[x]| =
    t * sum deg(x), and equality forces the masks of each fiber to be
    disjoint with union E[x].  Both graphs have symmetric, loop-free masks
    (`from_masks` trusts its builders for that, the edge-list constructor
    makes it so), whence:

    (i) E[x] misses block x, so each fiber is independent;
    (ii) for a base edge x-y, the fiber of x covers the block of y with
    disjoint neighbourhoods, so each vertex of y has exactly one neighbour
    in x; the same holds with x and y swapped, a perfect matching;
    (iii) every neighbour of a vertex in x lies in a block of E[x], a
    fiber next to x.

    Conversely (i)-(iii) give each vertex exactly one neighbour in each
    fiber next to its own and no other, so the sums and counts hold.  Only
    when they fail does the per-vertex walk run, to name the first fault; a
    walk that finds none disagrees with the sums, and that raises as well.
    """
    if not 2 <= k <= n - 1:
        raise DomainError(f"verify_split needs 2 <= k <= n-1, got n={n}, k={k}")
    base = build_nk_star(n, k)
    split = build_star(n)
    t = math.factorial(n - k)
    if not _block_sums_match(base, split, k, t):
        _walk_split(base, split, k, t)
        raise VerificationError(f"split n={n}, k={k}: the block sums fail, the vertex walk passes")
    return SplitWitness(base=base, split=split, t=t)


def _block_sums_match(base: TopologyGraph, split: TopologyGraph, k: int, t: int) -> bool:
    """The whole-mask test of `verify_split`: True iff (i)-(iii) hold."""
    # a star label has one character per symbol (n <= 9), so its k-prefix is a base label
    if [lab[:k] for lab in split.labels] != [x for x in base.labels for _ in range(t)]:
        return False  # some fiber is not its block
    if t == 1:  # E = B
        return split.nbr_masks == base.nbr_masks
    masks = split.nbr_masks
    if sum(map(int.bit_count, masks)) != t * sum(map(int.bit_count, base.nbr_masks)):
        return False
    block = (1 << t) - 1
    x = 0
    for nbrs in base.nbr_masks:
        union = 0
        while nbrs:
            low = nbrs & -nbrs
            union |= block << (low.bit_length() - 1) * t
            nbrs ^= low
        if sum(masks[x : x + t]) != union:
            return False
        x += t
    return True


def _walk_split(base: TopologyGraph, split: TopologyGraph, k: int, t: int):
    """Checks (i)-(iii) vertex by vertex; raises VerificationError at the first fault."""
    owner = [base._index.get(lab[:k]) for lab in split.labels]
    if None in owner:
        lab = split.labels[owner.index(None)]
        raise VerificationError(
            f"split vertex {lab!r} has prefix {lab[:k]!r}, which names no base vertex"
        )
    fibers = [0] * base.vertex_count
    for i, x in enumerate(owner):
        fibers[x] |= 1 << i

    # (i) fiber sizes and independence
    for x, fmask in enumerate(fibers):
        if fmask.bit_count() != t:
            raise VerificationError(
                f"fiber {base.labels[x]!r} has {fmask.bit_count()} vertices, expected {t}"
            )
        for i in _iter_bits(fmask):
            if split.nbr_masks[i] & fmask:
                raise VerificationError(
                    f"fiber {base.labels[x]!r} is not independent in the split graph"
                )

    # (ii) perfect matchings across every base edge
    for x, fx in enumerate(fibers):
        for y in _iter_bits(base.nbr_masks[x] >> (x + 1) << (x + 1)):  # each edge once, x < y
            fy = fibers[y]
            matched = 0
            for i in _iter_bits(fx):
                link = split.nbr_masks[i] & fy
                if link.bit_count() != 1:
                    raise VerificationError(
                        f"vertex {split.labels[i]!r} has {link.bit_count()} links into "
                        f"fiber {base.labels[y]!r}; perfect matching violated for edge "
                        f"{base.labels[x]!r}-{base.labels[y]!r}"
                    )
                matched |= link
            if matched != fy:
                raise VerificationError(
                    f"matching for edge {base.labels[x]!r}-{base.labels[y]!r} misses part "
                    f"of fiber {base.labels[y]!r}"
                )

    # (iii) every split edge projects onto a base edge.  After (i) and (ii) each
    # vertex has one neighbour in every fiber next to its own, so (iii) fails
    # exactly at the vertices of higher degree than their base vertex; the first
    # one and its lowest stray neighbour are the first offending edge in sorted order.
    for a, nbrs in enumerate(split.nbr_masks):
        x = owner[a]
        if nbrs.bit_count() != base.nbr_masks[x].bit_count():
            reach = 0
            for y in _iter_bits(base.nbr_masks[x]):
                reach |= fibers[y]
            stray = nbrs & ~reach
            b = (stray & -stray).bit_length() - 1
            raise VerificationError(
                f"split edge {split.labels[a]!r}-{split.labels[b]!r} projects to "
                f"non-adjacent pair {base.labels[x]!r},{base.labels[owner[b]]!r}"
            )
