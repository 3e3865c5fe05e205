"""Predicates and measures on faulty vertex sets.

Everything here is pure and reentrant.  The public functions take label
sets; the _mask variants are the hot paths shared with the brute-force
searches in the diagnosability module.
"""

from __future__ import annotations

import math
from itertools import combinations

from .base import BudgetError, DomainError, Model, VerificationError
from .graph import TopologyGraph, _iter_bits

#: default vertex cap for the exhaustive searches in this module
DEFAULT_SEARCH_BUDGET = 20


# -- g-good-neighbor predicates -----------------------------------------


def good_mask(graph: TopologyGraph, fmask: int, g: int) -> bool:
    """True iff every vertex outside `fmask` keeps >= g neighbors outside it.

    With g at most the minimum degree, a vertex with no neighbor in F keeps
    its full degree, so only N(F) - F is tested.  Above it every fault-free
    vertex is, since one far from F can already fall short.  So is every
    vertex when V - F is at most twice F: the walk over F that finds
    N(F) then costs about as much as the test it spares.  When V - F is
    wider than 64 bits both walks go through `_iter_bits`, which reads a
    dense mask in one pass; on narrower masks they stay inline peels,
    which spare the generator.
    """
    rest = graph.full_mask & ~fmask
    every = g > graph.min_degree() or rest.bit_count() <= 2 * fmask.bit_count()
    if rest >> 64:
        nbr = graph.nbr_masks
        for i in _iter_bits(rest if every else graph.neighborhood_mask(fmask)):
            if (nbr[i] & rest).bit_count() < g:
                return False
        return True
    if every:
        return has_min_degree(graph, rest, g)
    nbr = graph.nbr_masks
    near = 0
    m = fmask
    while m:
        low = m & -m
        m ^= low
        near |= nbr[low.bit_length() - 1]
    return has_min_degree(graph, near & rest, g, rest)


def has_min_degree(graph: TopologyGraph, mask: int, g: int, within: int | None = None) -> bool:
    """True iff every vertex of `mask` has >= g neighbors inside `within` (default `mask`)."""
    if within is None:
        within = mask
    m = mask
    while m:
        low = m & -m
        m ^= low
        if (graph.nbr_masks[low.bit_length() - 1] & within).bit_count() < g:
            return False
    return True


def g_core(graph: TopologyGraph, region: int, g: int) -> int:
    """Largest subset of `region` whose induced subgraph has min degree >= g.

    A worklist peel (Batagelj-Zaversnik 2003): a vertex left with fewer
    than g neighbors in the core is dropped, and its neighbors still in
    the core are queued to be looked at again.  The g-core is unique, so
    the order of the queue does not matter.
    """
    nbr = graph.nbr_masks
    core = todo = region
    while todo:
        low = todo & -todo
        todo ^= low
        v = low.bit_length() - 1
        if (nbr[v] & core).bit_count() < g:
            core ^= low
            todo |= nbr[v] & core
    return core


def is_g_good_neighbor(graph: TopologyGraph, fault_set, g: int) -> bool:
    """g-good-neighbor condition for a faulty set (vacuously true for F = V)."""
    if g < 0:
        raise DomainError("g must be nonnegative")
    return good_mask(graph, graph.mask_of(fault_set), g)


def is_g_good_neighbor_cut(graph: TopologyGraph, fault_set, g: int) -> bool:
    """True iff the set is g-good-neighbor and its removal disconnects the graph."""
    fmask = graph.mask_of(fault_set)
    if fmask == graph.full_mask:
        raise DomainError("a cut must be a proper subset of V")
    if not good_mask(graph, fmask, g):
        return False
    return len(graph.component_masks(graph.full_mask & ~fmask)) > 1


def good_faulty_sets(graph: TopologyGraph, g: int) -> list[int]:
    """Masks of all proper (!= V) g-good-neighbor faulty sets."""
    return [m for m in range(graph.full_mask) if good_mask(graph, m, g)]


# -- connectivity --------------------------------------------------------


def rg_connectivity_bruteforce(
    graph: TopologyGraph, g: int, budget: int = DEFAULT_SEARCH_BUDGET, stats: dict | None = None
) -> int | None:
    """Minimum size of a g-good-neighbor cut, or None when no cut exists.

    Enumerates candidate sets in increasing size, so the cost is governed
    by the answer rather than by 2^|V| whenever a cut exists.  Each of the
    >= 2 components a g-good-neighbor cut leaves induces min degree >= g,
    so has >= s = |`least_subgraph_mask`| vertices: sizes above
    |V| - 2s are not tried, and none at all when no such set exists.  On a
    vertex-transitive graph only sets through vertex 0 are tried: an
    automorphism carries any cut to one through 0.  A complete graph has
    no cut at all: whatever C is, V - C induces a complete graph, which is
    connected.  `stats`, when given, receives `cuts_tested`, the number of
    candidate sets tested, and the least-set search's `m_cap_sets`.
    """
    if g < 0:
        raise DomainError("g must be nonnegative")
    n = graph.vertex_count
    if n > budget:
        raise BudgetError(f"{n} vertices over the brute-force budget of {budget}")
    tested, found, search = 0, None, {"m_cap_sets": 0}
    smallest = least_subgraph_mask(graph, g, search).bit_count() if graph.min_degree() < n - 1 else 0
    for size in range(n - 2 * smallest + 1 if smallest else 0):
        combos = combinations(range(n), size)
        if graph.vertex_transitive and size:
            combos = ((0, *rest) for rest in combinations(range(1, n), size - 1))
        for combo in combos:
            tested += 1
            fmask = 0
            for i in combo:
                fmask |= 1 << i
            if not good_mask(graph, fmask, g):
                continue
            if len(graph.component_masks(graph.full_mask & ~fmask)) > 1:
                found = size
                break
        if found is not None:
            break
    if stats is not None:
        stats.update(search, cuts_tested=tested)
    return found


def high_band_count(n: int, k: int, g: int) -> int:
    """(g+1)!/(n-k)! for n-k <= g, exactly: t_g, κ_g and the witness sizes are multiples of it."""
    return math.perm(g + 1, g + 1 - (n - k))


def rg_connectivity_formula(n: int, k: int, g: int) -> int:
    """Closed-form R_g-connectivity of S_{n,k}: (g+1)!(n-g-1)/(n-k)!.

    Valid only for 2 <= k <= n-1 and n-k <= g <= n-2; anything else raises
    DomainError rather than extrapolating.
    """
    if not (2 <= k <= n - 1 and n - k <= g <= n - 2):
        raise DomainError(
            f"R_g-connectivity closed form needs 2<=k<=n-1 and n-k<=g<=n-2; "
            f"got n={n}, k={k}, g={g}"
        )
    return high_band_count(n, k, g) * (n - g - 1)


# -- distinguishability --------------------------------------------------


def indist_pmc_mask(graph: TopologyGraph, f1: int, f2: int) -> bool:
    """PMC-indistinguishable: no edge joins V-(F1|F2) to the symmetric difference."""
    outside = graph.full_mask & ~(f1 | f2)
    d = f1 ^ f2
    while d:
        low = d & -d
        d ^= low
        if graph.nbr_masks[low.bit_length() - 1] & outside:
            return False
    return True


def dist_mm_mask(graph: TopologyGraph, f1: int, f2: int) -> bool:
    """MM*-distinguishable: one of the three comparator conditions holds.

    Each condition needs a fault-free comparator with a neighbor in
    F1 ^ F2, so only the fault-free neighbors of the difference are looked
    at, each once.
    """
    nbr = graph.nbr_masks
    outside = graph.full_mask & ~(f1 | f2)
    only1 = f1 & ~f2
    only2 = f2 & ~f1
    unseen = outside
    d = f1 ^ f2
    while d:
        low = d & -d
        d ^= low
        c = nbr[low.bit_length() - 1] & unseen
        unseen ^= c
        while c:
            bit = c & -c
            c ^= bit
            nb = nbr[bit.bit_length() - 1]
            if nb & outside:
                return True  # fault-free vertex with a fault-free and a differing neighbor
            if (nb & only1).bit_count() >= 2:
                return True  # two F1-only vertices share a fault-free comparator
            if (nb & only2).bit_count() >= 2:
                return True
    return False


def indist_mask(graph: TopologyGraph, f1: int, f2: int, model: Model) -> bool:
    """Masks F1 and F2 are indistinguishable under `model`: the one place that picks its test."""
    if model is Model.PMC:
        return indist_pmc_mask(graph, f1, f2)
    return not dist_mm_mask(graph, f1, f2)


def distinguishable(graph: TopologyGraph, f1, f2, model: Model) -> bool:
    m1, m2 = graph.mask_of(f1), graph.mask_of(f2)
    if m1 == m2:
        raise DomainError("distinguishability needs two distinct sets")
    return not indist_mask(graph, m1, m2, model)


def distinguishable_pmc(graph: TopologyGraph, f1, f2) -> bool:
    return distinguishable(graph, f1, f2, Model.PMC)


def distinguishable_mm(graph: TopologyGraph, f1, f2) -> bool:
    return distinguishable(graph, f1, f2, Model.MM)


# -- minimum subgraph size oracle ----------------------------------------


def _connected_subsets(graph: TopologyGraph, region: int, size: int, anchored: bool = False):
    """Masks of connected vertex sets of exactly `size` inside `region`.

    Each set is produced once: sets are anchored at their lowest vertex and
    candidates already tried at a node are banned from its later branches.
    With `anchored`, only the sets through the lowest vertex of `region`.
    """
    if size <= 0:
        return
    nbr = graph.nbr_masks

    def grow(mask: int, frontier: int, allowed: int, remaining: int):
        if remaining == 0:
            yield mask
            return
        f = frontier
        while f:
            u_bit = f & -f
            f ^= u_bit
            allowed &= ~u_bit
            new_mask = mask | u_bit
            new_frontier = (frontier | nbr[u_bit.bit_length() - 1]) & allowed & ~new_mask
            yield from grow(new_mask, new_frontier, allowed, remaining - 1)

    r = region
    while r:
        v_bit = r & -r
        r ^= v_bit
        yield from grow(v_bit, nbr[v_bit.bit_length() - 1] & r, r, size - 1)
        if anchored:
            return


def least_subgraph_mask(graph: TopologyGraph, g: int, stats: dict | None = None) -> int:
    """The first least nonempty set inducing min degree >= g, as a mask; 0 when none exists.

    Any qualifying set lives inside the g-core and a least one is connected,
    so the search seeds on each core vertex and grows connected sets of
    increasing size.  On a vertex-transitive graph it seeds on vertex 0
    only: an automorphism carries a least set to one through 0, and 0 is
    seeded first anyway, so the set found is the same.  `stats`, when
    given, receives `m_cap_sets`, the number of sets tested.
    """
    if g < 0:
        raise DomainError("g must be nonnegative")
    tested = found = 0
    core = g_core(graph, graph.full_mask, g) if g else 0
    comps = graph.component_masks(core) if core else []
    if g == 0:
        found = 1  # vertex 0 alone
    elif all((graph.nbr_masks[i] & core).bit_count() == g for i in _iter_bits(core)):
        # in a g-regular core every qualifying set is a union of components
        found = min(comps, key=int.bit_count, default=0)
    else:
        top = min(c.bit_count() for c in comps)
        for size in range(g + 1, top + 1):
            for mask in _connected_subsets(graph, core, size, graph.vertex_transitive):
                tested += 1
                if has_min_degree(graph, mask, g):
                    found = mask
                    break
            if found:
                break
        else:
            raise VerificationError("g-core exists but no qualifying subset was found")
    if stats is not None:
        stats["m_cap_sets"] = tested
    return found


def min_subgraph_size_oracle(
    graph: TopologyGraph, g: int, budget: int = DEFAULT_SEARCH_BUDGET
) -> int | None:
    """Minimum |A| over nonempty A whose induced subgraph has min degree >= g.

    Returns None when no such set exists; `least_subgraph_mask` finds A.
    Graphs are capped at `budget` vertices.
    """
    if graph.vertex_count > budget:
        raise BudgetError(
            f"{graph.vertex_count} vertices over the brute-force budget of {budget}"
        )
    return least_subgraph_mask(graph, g).bit_count() or None
