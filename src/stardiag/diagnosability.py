"""g-good-neighbor conditional diagnosability, three ways.

t_g is computed by an exhaustive oracle over faulty-set pairs, by a
piecewise closed-form evaluator covering the full (k, g, model) case
table, and bounded from above by explicit witness-pair constructions.
`run_methods` is the one check of a cell: it runs the selected methods
and records where they disagree; `crosscheck` runs it on a t_g cell under
each model.  `witness_for` is the one rule for which construction covers
a cell, and under which models.
"""

from __future__ import annotations

import functools
import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import combinations, permutations

from .base import BudgetError, DomainError, Model, VerificationError
from .faults import (
    DEFAULT_ORACLE_BUDGET,
    check_search,
    g_core,
    good_faulty_sets,
    good_mask,
    has_min_degree,
    high_band_count,
    indist_mask,
    least_subgraph_mask,
)
from .graph import LabelSet, TopologyGraph, _iter_bits
from .topologies import arrangement_label, build_cycle, build_nk_star


@dataclass(frozen=True)
class DiagnosabilityResult:
    """A t_g value with its provenance.

    value is None when the oracle finds no admissible faulty set (the
    `note` says why).
    """

    value: int | None
    model: Model
    method: str  # "formula" | "bruteforce"
    provenance: str
    note: str = ""
    pair: tuple[tuple[str, ...], tuple[str, ...]] | None = None
    stats: dict = field(default_factory=dict, compare=False)  # work counters and phase seconds


# -- exhaustive oracle ---------------------------------------------------


def _pair_scan(graph, g: int, model: Model):
    """Reference P by the direct O(M^2) scan over all admissible pairs.

    Returns (P, (F1, F2)) like `_pmc_sd_scan`: the admissible sets are
    taken by (size, mask), and the first set with an indistinguishable
    predecessor gives P and the pair.  It walks all 2^|V| masks, so only
    the tests call it, to cross-check the symmetric-difference scan.
    """
    good = sorted(good_faulty_sets(graph, g), key=lambda m: (m.bit_count(), m))
    for j, fj in enumerate(good):
        for fi in good[:j]:
            if indist_mask(graph, fi, fj, model):
                return fj.bit_count(), (fi, fj)
    return None, None


def tg_bruteforce(
    graph: TopologyGraph,
    g: int,
    model: Model | str,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> DiagnosabilityResult:
    """Exhaustive t_g over all proper g-good-neighbor faulty sets.

    t_g = P-1 where P <= M+1 is the smallest max(|F1|,|F2|) over
    indistinguishable distinct pairs, or M if all pairs are distinguishable;
    M is the largest admissible faulty-set size.
    M = |V| - min_subgraph_size_oracle(G, g), because the complements of
    the proper admissible sets are exactly the nonempty sets inducing min
    degree >= g.  Both models take P from the symmetric-difference scan;
    MM* with g <= 1 admits bridge vertices there, and for g >= 2 it is the
    PMC scan unchanged.  Both start from the one pair `_start_pair` builds
    on the least set.  Graphs are capped at `budget` vertices.
    """
    model = Model.parse(model)
    check_search(graph, g, budget)
    stats: dict = {}
    started = time.perf_counter()
    least = least_subgraph_mask(graph, g, stats=stats)
    stats["m_cap_s"] = round(time.perf_counter() - started, 6)
    bridges = model is Model.MM and g <= 1
    value = pair = None
    if not least:
        note = f"no admissible g-good-neighbor faulty set exists for g={g}"
    else:
        m_cap = graph.vertex_count - least.bit_count()
        started = time.perf_counter()
        start = _start_pair(graph, g, least)
        p_val, pair_masks = _pmc_sd_scan(graph, g, m_cap, stats, bridges, start)
        stats["scan_s"] = round(time.perf_counter() - started, 6)
        if p_val is None:
            value = m_cap
            note = f"all pairs distinguishable; capped by max admissible set size {m_cap}"
        else:
            value = p_val - 1  # P <= m_cap + 1 by facts (a) and (e) of `_pmc_sd_scan`
            note = f"minimal indistinguishable pair at max size {p_val}; max set size {m_cap}"
            pair = tuple(graph.sorted_labels_of(m) for m in pair_masks)
    return DiagnosabilityResult(
        value=value,
        model=model,
        method="bruteforce",
        provenance="exhaustive symmetric-difference scan"
        + (" with bridge sets" if bridges else ""),
        note=note,
        pair=pair,
        stats=stats,
    )


def _start_pair(graph, g: int, a_mask: int):
    """(N(A), N(A) | A) as masks when both sets are admissible, else None.

    Both sets must be g-good-neighbor and N(A) | A a proper subset of V.
    F1 ^ F2 = A and N(A) lies in F1, so no fault-free vertex is next to A:
    the pair is PMC-, hence MM*-indistinguishable.  The PMC check keeps the
    oracle independent of the closed form; its failure raises VerificationError.
    """
    f1 = graph.neighborhood_mask(a_mask)
    f2 = f1 | a_mask
    if f2 == graph.full_mask or not (good_mask(graph, f1, g) and good_mask(graph, f2, g)):
        return None
    if not indist_mask(graph, f1, f2, Model.PMC):
        raise VerificationError("the start pair (N(A), N(A) | A) is distinguishable")
    return f1, f2


def _sd_closure(graph, smask: int, g: int) -> int:
    """Smallest shared-fault set forced by symmetric difference `smask`.

    Everything outside S but the `g_core` of V - S - N(S): N(S) is shared
    by any indistinguishable pair with this symmetric difference, and so
    is every vertex the peel drops, since it cannot keep g fault-free
    neighbors.
    """
    outside = graph.full_mask & ~smask
    return outside & ~g_core(graph, outside & ~graph.neighborhood_mask(smask), g)


def _pmc_sd_scan(
    graph, g: int, m_cap: int, stats: dict | None = None, bridges: bool = False, start=None
):
    """Exact P via enumeration of candidate symmetric differences.

    Returns (P, (F1, F2)) for the first pair of smallest max size in the
    order below, or (None, None) when every admissible pair is
    distinguishable.  Write S1 = F1 - F2, S2 = F2 - F1, S = S1 | S2 and
    O = V - (F1 | F2).  B = O & N(S) is the bridge set, and `indist_mask`
    states the rule each model puts on it: B empty under PMC, and under
    MM* no bridge with a neighbor in O or two in one side.  F1 and F2 being
    g-good-neighbor, each b in B also has >= g neighbors in each side and
    each vertex of S_i has >= g neighbors in S_i | B.  MM* for g >= 2 also
    forces B empty, so bridges are admitted only with `bridges` (MM*,
    g <= 1).

    Each candidate U = S | B is taken in increasing size and, within a
    size, in `combinations` order.  With C = _sd_closure(U), all of V - U
    but the `g_core` of V - U - N(U), N(U) - U lies in C since B has no
    neighbor in O.  The one cut of U tries B largest first, independent and
    drawn from the vertices with exactly one neighbor per side (g = 1), or
    at most one (g = 0); without bridges B is empty.  For each B it takes
    the first side T = S2, from |T| = floor(s/2) down, that leaves S - T
    with >= g neighbors in S - T | B and gives each two-neighbor bridge one
    neighbor in T, and returns (C | (S - T), C | T); T empty gives
    (C | S, C).  Seven facts cut the work and leave the result unchanged:

    (a) Without `start`, P starts at the bound m_cap + 1: both sets of an
        admissible pair are admissible, so its max size is at most m_cap.
    (b) Only U inducing min degree >= g are generated: a vertex of S2 is
        fault-free under F1, so its >= g fault-free neighbors lie in U.  A
        branch is cut when a chosen vertex can no longer reach g chosen
        neighbors, or when |out| - min(|out & rest|, left) plus a lower
        bound on the larger side reaches P, with out = N(chosen) - chosen
        and `left` vertices still to come from those ahead, rest: the
        others of out lie in C, and every pair for U has max size >=
        |C| + max(|S1|, |S2|).  The larger side has
        >= ceil((|U| - |B|) / 2) vertices.  A bridge has no neighbor in O
        and at most one in each side, so its other >= deg(b) - 2 neighbors
        lie in C: deg(b) <= |C| + 2, and |B| is at most the number of
        vertices of degree <= |C| + 2.  Counting the edges from B into C
        also gives |B| <= maxdeg * |C| / (mindeg - 2) when mindeg > 2.
        Neither cap shrinks as |C| grows, so the generator takes
        |C| = P - 2, the largest common part that can still beat P.
    (c) T comes from the same generator restricted to S, with B counted
        toward each vertex's g, and the first admissible T of the largest
        size wins, since a larger side always gives a smaller max size.
        S's bits, in descending order under both models, only break ties
        within a size: the numerically largest T wins, as in the submask
        walk of tests/reference_scan.py.  So an MM* pair with B empty is
        the PMC pair: U comes in the same order under both models, MM* only
        adds bridged cuts and prunes less, so a first best cut with B
        empty is the PMC cut.
    (d) On a vertex-transitive graph only U through vertex 0 are tried.
        The best cut of U is invariant under automorphisms, and an
        automorphism carries the least vertex of any U to 0.  Every U
        through 0 comes before every U without it in `combinations` order,
        so the first U of the least size that reaches the least P goes
        through 0, and the value and pair are unchanged.
    (e) `start`, a checked indistinguishable admissible pair (F1, F2),
        starts P at max(|F1|, |F2|) + 1 instead.  That is still above the
        least P, and a bound only cuts what cannot beat it strictly, so
        the first U that reaches the least P and its first best cut are
        still found.  Finding no pair then is a broken invariant and
        raises VerificationError.
    (f) Without bridges a nonempty side has >= s_g = |V| - m_cap vertices:
        a vertex of S2 is fault-free under F1 and its >= g fault-free
        neighbors lie in S2, none being in O, so S2 induces min degree
        >= g.  For |U| < 2 s_g one side is therefore empty and the larger
        side is all of U.  The generator's bound and the test of each
        candidate use this; the stop rule of the size loop keeps the
        half-of-S bound, since both sides can be nonempty from 2 s_g on.
    (g) Without bridges no pair has max size below floor = min(kappa +
        s_g, ceil(|V| / 2)), so the scan stops once P reaches it.  With
        O nonempty, C = F1 & F2 separates S from O, and a nonempty side
        has >= s_g vertices by (f); with O empty, |F1| + |F2| >= |V|.
        kappa >= ceil(2 (delta + 1) / 3) on a connected vertex-transitive
        graph (Watkins 1970); a complete graph has O empty.  Any other
        graph gets floor 0.

    `stats`, when given, receives the work counters of the scan,
    `start_p`, the P it started from, and `floor_p`, the floor of (g).
    """
    n = graph.vertex_count
    nbr = graph.nbr_masks
    best_p = m_cap + 1 if start is None else max(m.bit_count() for m in start) + 1
    start_p = best_p
    best_pair = None
    s_g = n - m_cap  # the least nonempty set inducing min degree >= g, see (f)
    nodes = yielded = bound_cuts = splits = bridge_sets = 0
    by_degree = sorted(m.bit_count() for m in nbr)
    lo_deg, hi_deg = by_degree[0], by_degree[-1]
    floor = 0  # see (g)
    if not bridges and graph.vertex_transitive and graph.is_connected():
        floor = min(-(-2 * (lo_deg + 1) // 3) + s_g, (n + 1) // 2)
    least_s = 2 if g else 1  # |S| >= this whenever B is nonempty

    def bridge_cap(u_size, c_size):
        """Upper bound on |B| for |U| = u_size and |C| = c_size; 0 without bridges."""
        if not bridges:
            return 0
        # a bridge has degree <= |C| + 2, and by_degree counts the vertices that do
        cap = min(u_size - least_s, bisect_right(by_degree, c_size + 2))
        if lo_deg > 2:
            cap = min(cap, hi_deg * c_size // (lo_deg - 2))
        return max(0, cap)

    def half_side(u_size, c_size):
        """Lower bound on max(|S1|, |S2|) for |U| = u_size and |C| = c_size; grows with |U|."""
        return (u_size - bridge_cap(u_size, c_size) + 1) // 2

    def least_side(u_size, c_size):
        """`half_side`, or all of U where one side must be empty, see (f)."""
        return u_size if not bridges and u_size < 2 * s_g else half_side(u_size, c_size)

    def layout(order, support=0):
        """Per position j of `order`: the neighbor mask, the bit and order[j:] | support."""
        bits = [1 << u for u in order]
        after = [support] * (len(bits) + 1)
        for j in range(len(bits) - 1, -1, -1):
            after[j] = after[j + 1] | bits[j]
        return [nbr[u] for u in order], bits, after

    def subsets(tables, size, least, anchored=False):
        """Yield each `size`-subset of a `layout` inducing min degree >= g, in combinations order.

        With `anchored`, only the subsets through the first position.  A
        vertex's neighbors in the support count toward its g as well.  With
        `least`, branches are cut by the bound (b).
        """
        if not size:
            yield 0
            return
        nbrs, bits, after = tables
        width, support = len(bits), after[-1]
        bounded = least is not None

        def grow(i, chosen, reach, left):
            # reach: the union of the neighbor masks of chosen; positions
            # before i not in chosen are out for good
            nonlocal nodes, bound_cuts
            nodes += 1
            out = reach & ~chosen
            n_out = out.bit_count()
            stop = 1 if anchored and not chosen else width - left + 1
            for j in range(i, stop):
                rest = after[j + 1]
                pool = chosen | rest
                nu = nbrs[j]
                if (nu & pool).bit_count() >= g:
                    grown, wide = chosen | bits[j], reach | nu
                    # the bound (b) for grown; min() is spelled out here and below, since
                    # the two calls cost the scan about a third
                    rim = wide & ~grown
                    ahead = (rim & rest).bit_count()
                    forced = rim.bit_count() - (ahead if ahead < left - 1 else left - 1)
                    if bounded and forced + least >= best_p:
                        bound_cuts += 1
                    elif left > 1:
                        yield from grow(j + 1, grown, wide, left - 1)
                    elif has_min_degree(graph, grown, g, grown | support):
                        yield grown
                # j is out from here on: has_min_degree(graph, nu & chosen, g, pool), written
                # inline because the call costs the scan about 5%
                m = nu & chosen
                while m:
                    low = m & -m
                    m ^= low
                    if (nbr[low.bit_length() - 1] & pool).bit_count() < g:
                        return
                if bounded:
                    ahead = (out & rest).bit_count()
                    if n_out - (ahead if ahead < left else left) + least >= best_p:
                        bound_cuts += 1
                        return

        yield from grow(0, 0, 0, size)

    def cut(umask, c, base):
        """Best (S1, S2, B) cut of U that beats P, updating best_p and best_pair."""
        nonlocal best_p, best_pair, bridge_sets, splits
        u_size = umask.bit_count()
        in_u = {v: (nbr[v] & umask).bit_count() for v in _iter_bits(umask)} if bridges else {}
        # a bridge has one neighbor per side (g = 1), or at most one (g = 0)
        cands = [v for v, d in in_u.items() if d == 2 or (g == 0 and d == 1)]
        for b_size in range(min(len(cands), bridge_cap(u_size, base)), -1, -1):
            s_size = u_size - b_size
            if base + (s_size + 1) // 2 >= best_p:
                break
            for combo in combinations(cands, b_size):
                bmask = 0
                for b in combo:
                    bmask |= 1 << b
                if any(nbr[b] & bmask for b in combo):
                    continue  # B is independent
                bridge_sets += b_size > 0
                smask = umask ^ bmask
                pairs = [nbr[b] for b in combo if in_u[b] == 2]
                tables = layout(sorted(_iter_bits(smask), reverse=True), bmask)  # see (c)
                # a side of t vertices scores base + s - t; only scores below P matter
                for t_size in range(s_size // 2, max(-1, base + s_size - best_p), -1):
                    found = None
                    for t in subsets(tables, t_size, None):
                        splits += t > 0  # T empty splits nothing
                        if all((p & t).bit_count() == 1 for p in pairs) and has_min_degree(
                            graph, smask ^ t, g, (smask ^ t) | bmask
                        ):
                            found = t
                            break
                    if found is not None:
                        best_p = base + s_size - t_size
                        best_pair = (c | (smask ^ found), c | found)
                        break

    u_tables = layout(range(n))
    for s_size in range(1, n + 1):
        if best_p <= floor:
            break
        if min(c + half_side(s_size, c) for c in range(max(1, best_p - 1))) >= best_p:
            break
        least = least_side(s_size, best_p - 2)
        for umask in subsets(u_tables, s_size, least, graph.vertex_transitive):
            yielded += 1
            c = _sd_closure(graph, umask, g)
            base = c.bit_count()
            if base + least_side(s_size, base) < best_p:
                cut(umask, c, base)
                if best_p <= floor:
                    break
    if stats is not None:
        stats.update(
            search_nodes=nodes,
            candidates=yielded,
            bound_cuts=bound_cuts,
            splits=splits,
            start_p=start_p,
            floor_p=floor,
        )
        if bridges:
            stats["bridge_sets"] = bridge_sets
    if best_pair is None:
        if start is not None:
            raise VerificationError("the scan found no pair below its checked start pair")
        return None, None
    return best_p, best_pair


# -- closed forms --------------------------------------------------------


def tg_formula(n: int, k: int, g: int, model: Model | str) -> DiagnosabilityResult:
    """Piecewise t_g(S_{n,k}) over the full case table.

    Every theorem band that covers the parameters is evaluated.  Some band
    covers each cell of the domain and overlapping bands agree; either
    failure would be an internal error.
    """
    model = Model.parse(model)
    if n < 3 or not 1 <= k <= n - 1 or not 1 <= g <= n - 1:
        raise DomainError(
            f"t_g table needs n>=3, 1<=k<=n-1, 1<=g<=n-1; got n={n}, k={k}, g={g}"
        )
    entries: list[tuple[int, str]] = []
    if g == n - 1:
        entries.append((0, "regularity ceiling t_{n-1} = 0"))
    if k == 1:
        if n == 3 and g == 1:
            if model is Model.PMC:
                entries.append((1, "complete-graph special case t_1(S_{3,1}) [PMC]"))
            else:
                entries.append((0, "complete-graph special case t_1(S_{3,1}) [MM*]"))
        if n >= 4 and 1 <= g <= n // 2 - 1:
            entries.append((-(-n // 2) - 1, "low band ceil(n/2)-1 for complete graphs"))
        if n >= 4 and n // 2 <= g <= n - 2:
            entries.append((n - g - 1, "high band n-g-1 for complete graphs"))
    else:
        if model is Model.PMC and 1 <= g <= n - k:
            entries.append((n + g * (k - 1) - 1, "mid band n+g(k-1)-1 [PMC]"))
        if model is Model.MM:
            if g == 1 and 3 <= k <= n - 1 and n >= 4:
                entries.append((n + k - 2, "g=1 band n+k-2 [MM*]"))
            if 2 <= g <= n - k:
                entries.append((n + g * (k - 1) - 1, "mid band n+g(k-1)-1 [MM*]"))
        if k == 2 and g == 1 and model is Model.MM:
            if n >= 4:
                entries.append((n - 1, "t_1(S_{n,2}) = n-1 [MM*]"))
            else:
                entries.append((1, "six-cycle special case t_1(S_{3,2}) = 1 [MM*]"))
        if n >= 4 and n - k <= g <= n - 2:
            high = high_band_count(n, k, g) * (n - g) - 1
            entries.append((high, "high band (g+1)!(n-g)/(n-k)!-1"))
        if k == n - 1 and n >= 4 and 1 <= g <= n - 2:
            entries.append(((n - g) * math.factorial(g + 1) - 1, "star-graph band (n-g)(g+1)!-1"))
    values = {v for v, _ in entries}
    if len(values) != 1:
        raise VerificationError(
            f"the formula bands for n={n}, k={k}, g={g}, {model.value} give {len(values)} "
            f"values, not one: none covers the cell, or overlapping bands disagree: {entries}"
        )
    return DiagnosabilityResult(
        value=entries[0][0],
        model=model,
        method="formula",
        provenance="; ".join(tag for _, tag in entries),
    )


# -- witness constructions -----------------------------------------------


@dataclass(frozen=True)
class WitnessReport:
    """An explicitly constructed indistinguishable pair, built and verified by `build_witness`.

    The pair is kept as masks on `graph`; the label sets `f1` and `f2` are
    built on first use, for a report that prints them.  checks
    records the re-derivable facts about the stored pair; any check
    required by the construction raises VerificationError instead of being
    recorded false.
    """

    construction: str
    graph: TopologyGraph
    a_mask: int
    m1: int
    m2: int
    checks: dict[str, bool]

    @functools.cached_property
    def f1(self) -> LabelSet:
        return self.graph.labels_of(self.m1)

    @functools.cached_property
    def f2(self) -> LabelSet:
        return self.graph.labels_of(self.m2)

    @property
    def sizes(self) -> dict[str, int]:
        return {"A": self.a_mask.bit_count(), "F1": self.m1.bit_count(), "F2": self.m2.bit_count()}

    @property
    def upper_bound(self) -> int:
        """t_g <= max(|F1|, |F2|) - 1 for the model(s) the pair certifies."""
        return max(self.m1.bit_count(), self.m2.bit_count()) - 1


def _require(ok: bool, what: str):
    if not ok:
        raise VerificationError(f"witness self-check failed: {what}")


def witness_general(n: int, k: int, g: int):
    """(graph, A, F1, F2) for S_{n,k} in the range 2<=k<=n-1, n-k<=g<=n-2, as masks.

    A is the set of vertices whose trailing n-g-1 coordinates are literally
    1..n-g-1 and whose leading coordinates come from the top g+1 symbols;
    F1 = N(A) and F2 = F1 | A.  `build_witness` certifies the pair.
    """
    graph = build_nk_star(n, k)
    tail = tuple(range(1, n - g))  # the n-g-1 fixed trailing symbols
    lead = k - (n - g - 1)
    a_mask = graph.mask_of(
        arrangement_label(head + tail, n) for head in permutations(range(n - g, n + 1), lead)
    )
    f1 = graph.neighborhood_mask(a_mask)
    f2 = f1 | a_mask

    size_a = high_band_count(n, k, g)  # one vertex per head, as lead = g+1-(n-k)
    n_a, n_f1, n_f2 = a_mask.bit_count(), f1.bit_count(), f2.bit_count()
    _require(n_a == size_a, f"|A|={n_a}, expected {size_a}")
    _require(n_f1 == size_a * (n - g - 1), f"|F1|={n_f1}, expected {size_a * (n - g - 1)}")
    _require(n_f2 == size_a * (n - g), f"|F2|={n_f2}, expected {size_a * (n - g)}")
    return graph, a_mask, f1, f2


def witness_snk2_mm(n: int):
    """(graph, A, F1, F2) for S_{n,2}, n>=4, under MM*: A = N({12,32,42}), F_i = A + one seed."""
    graph = build_nk_star(n, 2)
    s12, s32, s42 = (graph.mask_of([arrangement_label(p, n)]) for p in ((1, 2), (3, 2), (4, 2)))
    a_mask = graph.neighborhood_mask(s12 | s32 | s42)
    f1, f2 = a_mask | s12, a_mask | s32
    _require(a_mask.bit_count() == n - 1, f"|A|={a_mask.bit_count()}, expected {n - 1}")
    _require(f1.bit_count() == n and f2.bit_count() == n, "|F1| or |F2| != n")
    return graph, a_mask, f1, f2


def witness_cycle6():
    """(graph, A, F1, F2) for the six-cycle MM* pair {u1,u2} vs {u4,u5}, with A empty."""
    c6 = build_cycle(6)
    return c6, 0, c6.mask_of(("u1", "u2")), c6.mask_of(("u4", "u5"))


def witness_for(n: int, k: int, g: int) -> tuple[str, tuple[Model, ...]] | None:
    """(construction, models it certifies) for cell (n, k, g), or None when none covers it.

    The three constructions cover disjoint cells, so at most one applies:
    `general` covers n >= 4, 2 <= k <= n-1, n-k <= g <= n-2 under both
    models; `snk2-mm` covers S_{n,2} with n >= 4 and g = 1, and `cycle6`
    covers S_{3,2} with g = 1, both under MM* only.
    """
    if n >= 4 and 2 <= k <= n - 1 and n - k <= g <= n - 2:
        return "general", tuple(Model)
    if k == 2 and g == 1 and n >= 3:
        return "snk2-mm" if n >= 4 else "cycle6", (Model.MM,)
    return None


def build_witness(n: int, k: int, g: int) -> WitnessReport:
    """The checked report of the construction that `witness_for` names for cell (n, k, g).

    The only way to a `WitnessReport`: both sets must be g-good-neighbor
    and the pair indistinguishable under each model `witness_for` names.
    The other model's status and whether max(|F1|, |F2|) - 1 equals the
    closed form are recorded only.
    """
    construction, claims = witness_for(n, k, g) or (None, ())
    if construction == "general":
        graph, a_mask, m1, m2 = witness_general(n, k, g)
    elif construction == "snk2-mm":
        graph, a_mask, m1, m2 = witness_snk2_mm(n)
    elif construction == "cycle6":
        graph, a_mask, m1, m2 = witness_cycle6()
    else:
        raise DomainError(f"no witness construction covers n, k, g = {(n, k, g)}")
    _require(good_mask(graph, m1, g), f"F1 not {g}-good-neighbor")
    _require(good_mask(graph, m2, g), f"F2 not {g}-good-neighbor")
    indist = {model: indist_mask(graph, m1, m2, model) for model in Model}
    for model in claims:
        _require(indist[model], f"pair distinguishable under {model.value}")
    formula = tg_formula(n, k, g, claims[0]).value
    return WitnessReport(
        construction=construction,
        graph=graph,
        a_mask=a_mask,
        m1=m1,
        m2=m2,
        checks={
            "f1_good": True,
            "f2_good": True,
            "indistinguishable_pmc": indist[Model.PMC],
            "indistinguishable_mm": indist[Model.MM],
            "sizes_match_formula": max(m1.bit_count(), m2.bit_count()) - 1 == formula,
        },
    )


# -- crosscheck ----------------------------------------------------------

#: the `method` values that `run_methods`, and through it `crosscheck`, accept
METHODS = ("formula", "brute", "all")


def run_methods(method: str, cell, formula, oracle, bounds=None) -> dict:
    """Run the methods that `method` selects on one cell and compare their values.

    The one rule for checking a cell, under `tg` (through `crosscheck`) and
    `kappa` alike.  `method` is one of `METHODS`; any other raises DomainError.
    `formula(n, k)` returns the closed form's entry fields on `cell`; off
    its domain, or with no cell, it is recorded as None with a
    `formula_note`.  `oracle()` returns the oracle's fields; under "all"
    its BudgetError is recorded as `bruteforce_skipped`, under "brute" it
    propagates.  `bounds`, when given, maps each witness construction to
    its upper bound, compared but never a method: alone it checks nothing.
    Only integer values are compared: a `formula` or `bruteforce` that is
    None or "no cut" is not.  Returns the entry; when the compared values
    differ it records them as `disagreement`.
    """
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r} (expected one of {', '.join(METHODS)})")
    entry: dict = {}
    if method in ("formula", "all"):
        try:
            if cell is None:
                raise DomainError("formula needs a star-family graph descriptor")
            entry.update(formula(*cell))
        except DomainError as exc:
            entry.update(formula=None, formula_note=str(exc))
    if method in ("brute", "all"):
        try:
            entry.update(oracle())
        except BudgetError as exc:
            if method == "brute":
                raise
            entry.update(bruteforce=None, bruteforce_skipped=str(exc))
    values = {key: entry[key] for key in ("formula", "bruteforce") if type(entry.get(key)) is int}
    if bounds:
        entry["witness_upper_bounds"] = bounds
        values.update((f"witness:{name}", bound) for name, bound in bounds.items())
    if len(set(values.values())) > 1:
        entry["disagreement"] = values
    return entry


def crosscheck(
    graph: TopologyGraph,
    g: int,
    models: tuple[Model | str, ...] = tuple(Model),
    method: str = "all",
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> tuple[bool, dict[str, dict]]:
    """Check the t_g cell of `graph` under each model through `run_methods`.

    Returns (ok, results), where results maps each model's value to its
    entry: the closed form and its provenance; the oracle's value, note,
    counters and refuting pair, capped at `budget` vertices; and, under
    "all", the bound of the witness that `witness_for` names under each
    model it certifies.  That witness is built at most once, and only when
    it serves a requested model.  No model, or a `method` not in
    `METHODS`, raises DomainError before any method runs.
    """
    models = [Model.parse(model) for model in models]
    if not models:
        raise DomainError("crosscheck needs at least one model")
    covered = graph.cell and method == "all" and witness_for(*graph.cell, g)
    name, certified = covered or (None, ())
    wit = build_witness(*graph.cell, g) if set(certified) & set(models) else None
    results = {}
    for model in models:

        def formula(n, k):
            res = tg_formula(n, k, g, model)
            return {"formula": res.value, "formula_provenance": res.provenance}

        def oracle():
            res = tg_bruteforce(graph, g, model, budget)
            fields = {"bruteforce": res.value, "bruteforce_note": res.note}
            fields["bruteforce_stats"] = res.stats
            if res.pair:
                fields["bruteforce_pair"] = [list(p) for p in res.pair]
            return fields

        bounds = {name: wit.upper_bound} if model in certified else None
        results[model.value] = run_methods(method, graph.cell, formula, oracle, bounds)
    return not any("disagreement" in entry for entry in results.values()), results
