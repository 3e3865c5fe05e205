"""Builders for the concrete graph families and the split-graph check.

Families: the star graph on all n-permutations, the (n,k)-star graph on
k-arrangements, complete graphs and cycles.  All builders produce
deterministic lexicographic vertex orderings.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
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


def _check_nk(n: int, k: int, name: str | None = None):
    if n < 2:
        raise DomainError(f"n={n} out of range (need n >= 2)")
    if not 1 <= k <= n - 1:
        raise DomainError(f"k={k} out of range for n={n} (need 1 <= k <= n-1)")
    _check_cap(name or f"S_{{{n},{k}}}", n, k)


def within_vertex_cap(n: int, k: int) -> bool:
    """True iff n!/(n-k)! <= DEFAULT_VERTEX_BUDGET (0 <= k <= n), in at most 13 multiplications."""
    count = 1
    for factor in range(n, n - k, -1):  # every factor but the last is >= 2
        if factor > DEFAULT_VERTEX_BUDGET // count:
            return False
        count *= factor
    return True


def _check_cap(name: str, n: int, k: int):
    if not within_vertex_cap(n, k):
        raise DomainError(f"{name} is over the cap of {DEFAULT_VERTEX_BUDGET} vertices")


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
def _arrangement_graph(n: int, k: int) -> TopologyGraph:
    """The graph on k-arrangements of 1..n, built straight into neighbour masks: S_n at k = n.

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
    descriptor = f"star:{n}" if k == n else f"nkstar:{n},{k}"
    return TopologyGraph.from_masks(
        labels, masks, descriptor, vertex_transitive=True, cell=(n, min(k, n - 1))
    )


def build_star(n: int) -> TopologyGraph:
    """Star graph on all permutations of 1..n; edges swap position 1 with i."""
    _check_nk(n, n - 1, f"S_{n}")  # S_n has the vertex count of its cell S_{n,n-1}
    return _arrangement_graph(n, n)


def build_nk_star(n: int, k: int) -> TopologyGraph:
    """(n,k)-star graph on k-arrangements of 1..n.

    Adjacency: swap the first symbol with the symbol at position i (2<=i<=k),
    or replace the first symbol by any symbol not already used.  The result
    is (n-1)-regular with n!/(n-k)! vertices; k=1 yields the complete graph.
    """
    _check_nk(n, k)
    return _arrangement_graph(n, k)


def build_complete(n: int) -> TopologyGraph:
    if n < 1:
        raise DomainError("complete graph needs n >= 1")
    _check_cap(f"K_{n}", n, 1)
    labels = sorted(f"u{i}" for i in range(1, n + 1))
    full = (1 << n) - 1
    masks = [full ^ 1 << i for i in range(n)]
    return TopologyGraph.from_masks(
        labels, masks, f"complete:{n}", vertex_transitive=True, cell=(n, 1)
    )


def build_cycle(m: int) -> TopologyGraph:
    if m < 3:
        raise DomainError("cycle needs m >= 3")
    _check_cap(f"C_{m}", m, 1)
    labels = sorted(f"u{i}" for i in range(1, m + 1))
    at = {lab: i for i, lab in enumerate(labels)}
    ring = [at[f"u{i}"] for i in range(1, m + 1)]
    masks = [0] * m
    for a, b in zip(ring, ring[1:] + ring[:1]):
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    # rotations carry any vertex to any other
    return TopologyGraph.from_masks(
        labels, masks, f"cycle:{m}", vertex_transitive=True, cell=(3, 2) if m == 6 else None
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
    """Checked evidence that blowing up S_{n,k} by t = (n-k)! recovers S_n; see `verify_split`."""

    base: TopologyGraph
    split: TopologyGraph
    t: int


def verify_split(n: int, k: int) -> SplitWitness:
    """Build S_n and S_{n,k} and verify the (n-k)!-split relationship.

    Checks, exhaustively: (i) every fiber has (n-k)! vertices and is
    independent in S_n; (ii) the S_n edges between the fibers of each
    S_{n,k} edge form a perfect matching; (iii) every S_n edge projects
    onto an S_{n,k} edge.  Any failure raises VerificationError.
    """
    if not 2 <= k <= n - 1:
        raise DomainError(f"verify_split needs 2 <= k <= n-1, got n={n}, k={k}")
    base = build_nk_star(n, k)
    split = build_star(n)
    t = math.factorial(n - k)
    _check_split(base, split, k, t)
    return SplitWitness(base=base, split=split, t=t)


def _check_split(base: TopologyGraph, split: TopologyGraph, k: int, t: int):
    """Check (i)-(iii) of `verify_split` fiber by fiber; VerificationError names the first fault.

    The labels are sorted, so once every fiber has t vertices fiber x is the
    index block [x*t, (x+1)*t).  Let E[x] be the union of the blocks of x's
    base neighbours.  Fiber x passes when the sum and the OR of its split
    masks both equal E[x]: as a + b = (a | b) + (a & b), masks add up to
    their OR only when they are disjoint.  Both graphs have symmetric,
    loop-free masks (`from_masks` trusts its builders for that, the
    edge-list constructor makes it so), so every fiber passes iff (i)-(iii)
    hold: E[x] misses block x; the disjoint masks of x cover each block y
    next to x once, so each vertex of y has one neighbour in x, and with x
    and y swapped that is a perfect matching; no edge leaves E[x].  And
    (i)-(iii) give each vertex one neighbour in each fiber next to its own
    and no other.  No count over the whole graph is needed.
    """
    # a star label has one character per symbol (n <= 7), so its k-prefix is a base label
    prefixes = [lab[:k] for lab in split.labels]
    if prefixes != [x for x in base.labels for _ in range(t)]:
        for lab, prefix in zip(split.labels, prefixes):
            if prefix not in base._index:
                raise VerificationError(
                    f"split vertex {lab!r} has prefix {prefix!r}, which names no base vertex"
                )
        sizes = Counter(prefixes)
        x = next(x for x in base.labels if sizes[x] != t)
        raise VerificationError(f"fiber {x!r} has {sizes[x]} vertices, expected {t}")
    masks = split.nbr_masks
    if t == 1 and masks == base.nbr_masks:  # each fiber one vertex, E[x] its base mask
        return
    block = (1 << t) - 1
    fibers = zip(*[iter(masks)] * t)  # one tuple of t masks per fiber, in index order
    for x, (nbrs, fiber) in enumerate(zip(base.nbr_masks, fibers)):
        reach = 0  # E[x]
        while nbrs:
            low = nbrs & -nbrs
            reach |= block << (low.bit_length() - 1) * t
            nbrs ^= low
        if sum(fiber) != reach or functools.reduce(operator.or_, fiber) != reach:
            raise VerificationError(next(_fiber_faults(base, split, x, t)))


def _fiber_faults(base: TopologyGraph, split: TopologyGraph, x: int, t: int):
    """The faults of fiber x, one that fails `_check_split`, in the order its vertices show them.

    At each vertex a of x: a neighbour in x; for each fiber y next to x, a
    link count other than 1 from a into y, or a link to a vertex of y that
    an earlier vertex of x links to as well; a neighbour in a fiber not next
    to x.  A failing fiber shows one: with none, each of the t vertices of x
    links once into each y, no two at the same vertex, and nowhere else, so
    the masks are disjoint with union E[x].
    """
    masks, labels, block = split.nbr_masks, base.labels, (1 << t) - 1
    own = block << x * t
    ys = list(_iter_bits(base.nbr_masks[x]))
    reach = sum(block << y * t for y in ys)
    seen = dict.fromkeys(ys, 0)

    def links(v: int, y: int, count: int) -> str:
        return (
            f"vertex {split.labels[v]!r} has {count} links into fiber {labels[y]!r}; "
            f"perfect matching violated for edge {labels[v // t]!r}-{labels[y]!r}"
        )

    for a in range(x * t, x * t + t):
        nbrs = masks[a]
        if nbrs & own:
            yield f"fiber {labels[x]!r} is not independent in the split graph"
        for y in ys:
            link = nbrs & block << y * t
            if link.bit_count() != 1:
                yield links(a, y, link.bit_count())
            elif link & seen[y]:  # a vertex of y with two links into x
                b = link.bit_length() - 1
                yield links(b, x, (masks[b] & own).bit_count())
            seen[y] |= link
        stray = nbrs & ~(reach | own)
        if stray:
            b = (stray & -stray).bit_length() - 1
            yield (
                f"split edge {split.labels[a]!r}-{split.labels[b]!r} projects to "
                f"non-adjacent pair {labels[x]!r},{labels[b // t]!r}"
            )
