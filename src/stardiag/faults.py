"""Predicates and measures on faulty vertex sets.

Everything here is pure and reentrant.  The public functions take label
sets; the _mask variants are the hot paths shared with the brute-force
searches in the diagnosability module.  `indist_mask` is the one test of
whether two faulty sets are indistinguishable, under either model.
"""

from __future__ import annotations

import math
from itertools import combinations

from .base import BudgetError, DomainError, Model, VerificationError
from .graph import TopologyGraph, _iter_bits

#: default vertex caps of the exhaustive searches: 16 for the t_g oracle keeps `table` fast,
#: 20 for the kappa and least-subgraph searches takes in S_{5,2}
DEFAULT_ORACLE_BUDGET = 16
DEFAULT_SEARCH_BUDGET = 20


def check_g(g: int):
    """Refuse a negative g: the one check of g for every predicate and search."""
    if g < 0:
        raise DomainError("g must be nonnegative")


def check_search(graph: TopologyGraph, g: int, budget: int):
    """Refuse an exhaustive search for a negative g or on more than `budget` vertices."""
    check_g(g)
    if graph.vertex_count > budget:
        raise BudgetError(f"{graph.vertex_count} vertices over the brute-force budget of {budget}")


# -- g-good-neighbor predicates -----------------------------------------


def good_mask(graph: TopologyGraph, fmask: int, g: int) -> bool:
    """True iff every vertex outside `fmask` keeps >= g neighbors outside it.

    A fault-free vertex of degree d falls short iff it has more than d - g
    neighbors in F, and d is at least the minimum degree, so only the
    vertices with at least min degree - g + 1 neighbors in F are tested
    (every one when g is above the minimum degree).  Every vertex is
    tested when V - F is at most twice F: the count over F then costs
    about as much as the test it spares.
    """
    rest = graph.full_mask & ~fmask
    tested = rest
    if rest.bit_count() > 2 * fmask.bit_count():
        tested &= graph.with_neighbors_in(fmask, graph.min_degree() - g + 1)
    nbr = graph.nbr_masks
    for i in _iter_bits(tested):
        if (nbr[i] & rest).bit_count() < g:
            return False
    return True


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
    check_g(g)
    return good_mask(graph, graph.mask_of(fault_set), g)


def is_g_good_neighbor_cut(graph: TopologyGraph, fault_set, g: int) -> bool:
    """True iff the set is g-good-neighbor and its removal disconnects the graph."""
    check_g(g)
    fmask = graph.mask_of(fault_set)
    if fmask == graph.full_mask:
        raise DomainError("a cut must be a proper subset of V")
    return good_cut_mask(graph, fmask, g)


def good_cut_mask(graph: TopologyGraph, fmask: int, g: int) -> bool:
    """True iff `fmask` is g-good-neighbor and V - F has more than one component."""
    return good_mask(graph, fmask, g) and len(graph.component_masks(graph.full_mask & ~fmask)) > 1


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
    check_search(graph, g, budget)
    n = graph.vertex_count
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
            if good_cut_mask(graph, fmask, g):
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


def indist_mask(graph: TopologyGraph, f1: int, f2: int, model: Model) -> bool:
    """Masks F1 and F2 are indistinguishable under `model`: the one test of both models.

    A bridge is a fault-free vertex with a neighbor in F1 ^ F2.  Under PMC
    the pair is indistinguishable iff it has no bridge (Dahbura-Masson
    1984).  Under MM* it is iff every bridge has no fault-free neighbor and
    at most one neighbor in each of F1 - F2 and F2 - F1 (Sengupta-Dahbura
    1992), so a PMC-indistinguishable pair is MM*-indistinguishable too.
    Each bridge is visited once, and under PMC the first one decides.
    """
    nbr = graph.nbr_masks
    outside = graph.full_mask & ~(f1 | f2)
    pmc = model == "pmc"  # a str compare: a Model.PMC lookup per call slows pair loops by 35-50%
    unseen = outside
    d = f1 ^ f2
    while d:
        low = d & -d
        d ^= low
        c = nbr[low.bit_length() - 1] & unseen  # the bridges not yet visited
        if not c:
            continue
        if pmc:
            return False
        unseen ^= c
        while c:
            bit = c & -c
            c ^= bit
            nb = nbr[bit.bit_length() - 1]
            if nb & outside or (nb & f1 & ~f2).bit_count() > 1 or (nb & f2 & ~f1).bit_count() > 1:
                return False
    return True


def distinguishable(graph: TopologyGraph, f1, f2, model: Model | str) -> bool:
    model = Model.parse(model)
    m1, m2 = graph.mask_of(f1), graph.mask_of(f2)
    if m1 == m2:
        raise DomainError("distinguishability needs two distinct sets")
    return not indist_mask(graph, m1, m2, model)


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
    check_g(g)
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
    check_search(graph, g, budget)
    return least_subgraph_mask(graph, g).bit_count() or None
