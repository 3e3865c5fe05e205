"""g-good-neighbor conditional diagnosability, three ways.

t_g is computed by an exhaustive oracle over faulty-set pairs, by a
piecewise closed-form evaluator covering the full (k, g, model) case
table, and bounded from above by explicit witness-pair constructions.
The crosscheck entry point runs every applicable method and compares;
`witness_for` is the one rule for which construction covers a cell.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import combinations, permutations

from .base import BudgetError, DomainError, Model, VerificationError
from .faults import (
    dist_mm_mask,
    g_core,
    good_faulty_sets,
    has_min_degree,
    indist_mask,  # noqa: F401  not called here; perfbench/spans.py wraps it by name
    indist_pmc_mask,
    is_g_good_neighbor,
    min_subgraph_size_oracle,
)
from .graph import LabelSet, TopologyGraph, _iter_bits
from .topologies import (
    DEFAULT_VERTEX_BUDGET,
    arrangement_label,
    build_cycle,
    build_nk_star,
)

#: default vertex cap of the exhaustive oracle, under either model
DEFAULT_ORACLE_BUDGET = 16


@dataclass(frozen=True)
class DiagnosabilityResult:
    """A t_g value with its provenance.

    value is None when the requested parameters fall outside every case of
    the theory (the `note` says why).
    """

    value: int | None
    model: Model
    method: str  # "formula" | "bruteforce" | "witness-upper-bound"
    provenance: str
    note: str = ""
    pair: tuple[tuple[str, ...], tuple[str, ...]] | None = None
    stats: dict = field(default_factory=dict, compare=False)  # work counters and phase seconds

    @property
    def applicable(self) -> bool:
        return self.value is not None


# -- exhaustive oracle ---------------------------------------------------


def _pair_scan(graph, g: int, model: Model):
    """Reference P by the direct O(M^2) scan over all admissible pairs.

    Returns (P, (F1, F2)) like `_pmc_sd_scan`: the admissible sets are
    taken by (size, mask), and the first set with an indistinguishable
    predecessor gives P and the pair.  It walks all 2^|V| masks, so only
    the tests call it, to cross-check the symmetric-difference scan.
    """
    good = sorted(good_faulty_sets(graph, g), key=lambda m: (m.bit_count(), m))
    pmc = model is Model.PMC
    for j, fj in enumerate(good):
        for i in range(j):
            fi = good[i]
            if indist_pmc_mask(graph, fi, fj) if pmc else not dist_mm_mask(graph, fi, fj):
                return fj.bit_count(), (fi, fj)
    return None, None


def tg_bruteforce(
    graph: TopologyGraph,
    g: int,
    model: Model,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> DiagnosabilityResult:
    """Exhaustive t_g over all proper g-good-neighbor faulty sets.

    t_g = min(P-1, M) where P is the smallest max(|F1|,|F2|) over
    indistinguishable distinct pairs (infinity if all pairs are
    distinguishable) and M is the largest admissible faulty-set size.
    M = |V| - min_subgraph_size_oracle(G, g), because the complements of
    the proper admissible sets are exactly the nonempty sets inducing min
    degree >= g.  Both models take P from the symmetric-difference scan;
    MM* with g <= 1 admits bridge vertices there, and for g >= 2 it is the
    PMC scan unchanged.  Graphs are capped at `budget` vertices.
    """
    if g < 0:
        raise DomainError("g must be nonnegative")
    n = graph.vertex_count
    if n > budget:
        raise BudgetError(f"{n} vertices over the brute-force budget of {budget}")
    stats: dict = {}
    started = time.perf_counter()
    smallest = min_subgraph_size_oracle(graph, g, budget=n)
    stats["m_cap_s"] = round(time.perf_counter() - started, 6)
    if smallest is None:
        return DiagnosabilityResult(
            value=None,
            model=model,
            method="bruteforce",
            provenance="exhaustive symmetric-difference scan",
            note=f"no admissible g-good-neighbor faulty set exists for g={g}",
            stats=stats,
        )
    m_cap = n - smallest

    started = time.perf_counter()
    bridges = model is Model.MM and g <= 1
    p_val, pair_masks = _pmc_sd_scan(graph, g, m_cap, stats, bridges=bridges)
    stats["scan_s"] = round(time.perf_counter() - started, 6)

    if p_val is None:
        value = m_cap
        note = f"all pairs distinguishable; capped by max admissible set size {m_cap}"
        pair = None
    else:
        value = max(0, min(p_val - 1, m_cap))
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


def _sd_closure(graph, smask: int, g: int) -> int:
    """Smallest shared-fault set forced by symmetric difference `smask`.

    Everything outside S but the `g_core` of V - S - N(S): N(S) is shared
    by any indistinguishable pair with this symmetric difference, and so
    is every vertex the peel drops, since it cannot keep g fault-free
    neighbors.
    """
    outside = graph.full_mask & ~smask
    return outside & ~g_core(graph, outside & ~graph.neighborhood_mask(smask), g)


def _pmc_sd_scan(graph, g: int, m_cap: int, stats: dict | None = None, bridges: bool = False):
    """Exact P via enumeration of candidate symmetric differences.

    Returns (P, (F1, F2)) for the first pair of smallest max size in the
    order below, or (None, None) when every admissible pair is
    distinguishable.  Each candidate symmetric difference S is taken in
    increasing size and, within a size, in `combinations` order; with
    C = _sd_closure(S), all of V - S but the `g_core` of V - S - N(S), the
    best pair for S is (C | (S - T), C | T) for the largest admissible
    side T of at most s/2 vertices (the numerically largest on ties), else
    (C | S, C).  Three facts cut the work and leave the result unchanged:

    (a) P starts at the bound m_cap + 1: both sets of an admissible pair
        are admissible, so its max size is at most m_cap.
    (b) Only S inducing min degree >= g are generated: a vertex of F2 - F1
        is fault-free under F1, and by Dahbura-Masson none of its >= g
        fault-free neighbors lies outside F1 | F2, so each side of S, and
        hence S, induces min degree >= g.  A branch is cut when a chosen
        vertex can no longer reach g chosen neighbors, or when the
        neighbors of the chosen set that cannot all join it (those passed
        over, and those ahead beyond the slots left) plus ceil(s/2) reach
        P: they lie in N(S) - S, inside C, so every pair for S has max
        size >= |C| + ceil(s/2) >= P.
    (c) T comes from the same generator restricted to S, over the bits of
        S in descending order and for |T| from s/2 down: its first
        admissible T is the one the descending walk over all submasks of
        S would keep, since a larger side always gives a smaller max size.

    With `bridges` (MM*, g <= 1) the scan also admits bridge vertices.
    Write S1 = F1 - F2, S2 = F2 - F1 and O = V - (F1 | F2).  By
    Sengupta-Dahbura a pair is MM*-indistinguishable iff every vertex b of
    the bridge set B = O & N(S) has no neighbor in O and at most one in
    each of S1 and S2; F1 and F2 being g-good-neighbor, each b also has
    >= g neighbors in each side and each vertex of S_i has >= g neighbors
    in S_i | B.  So B is empty for g >= 2 (MM* is PMC there), and the scan
    enumerates U = S | B, which again induces min degree >= g, with
    C = _sd_closure(U): N(U) - U lies in C because B has no neighbor in O.
    Each U is then cut into (S1, S2, B) with B independent and every b
    with exactly one neighbor per side (g = 1), or at most one (g = 0),
    largest B first.  In (b), ceil(s/2) gives way to a lower bound on the
    larger side that allows for B: each b keeps >= deg(b) - 2 neighbors
    in C, so |B| <= maxdeg * |C| / (mindeg - 2) when mindeg > 2, and the
    larger side has >= ceil((|U| - |B|) / 2) vertices; the generator takes
    |C| = P - 2, the largest common part that can still beat P.

    `stats`, when given, receives the work counters of the scan.
    """
    n = graph.vertex_count
    full = graph.full_mask
    nbr = graph.nbr_masks
    best_p = m_cap + 1
    best_pair = None
    nodes = yielded = bound_cuts = closures = splits = bridge_sets = 0
    degrees = [m.bit_count() for m in nbr]
    lo_deg, hi_deg = min(degrees), max(degrees)
    least_s = 2 if g else 1  # |S| >= this whenever B is nonempty

    def least_side(u_size, c_size):
        """Lower bound on max(|S1|, |S2|) for |U| = u_size and |C| = c_size."""
        if not bridges:
            return (u_size + 1) // 2
        b_max = u_size - least_s
        if lo_deg > 2:
            b_max = min(b_max, hi_deg * c_size // (lo_deg - 2))
        return (u_size - max(0, b_max) + 1) // 2

    def subsets(order, size, least):
        """Yield each `size`-subset of `order` inducing min degree >= g, in combinations order."""
        after = [0] * (len(order) + 1)  # after[j]: the vertices order[j:]
        for j in range(len(order) - 1, -1, -1):
            after[j] = after[j + 1] | 1 << order[j]

        def over_bound(chosen, reach, rest, left):
            # every S grown from `chosen` by `left` vertices of `rest` misses the
            # passed neighbors and all but `left` of those ahead; N(S) - S lies in C
            nonlocal bound_cuts
            if least is None:
                return False
            out = reach & ~chosen
            forced = (out & ~rest).bit_count() + max(0, (out & rest).bit_count() - left)
            if forced + least >= best_p:
                bound_cuts += 1
                return True
            return False

        def grow(i, chosen, reach, left):
            # reach: the union of the neighbor masks of chosen; order[:i]
            # minus chosen is out for good
            nonlocal nodes
            nodes += 1
            for j in range(i, len(order) - left + 1):
                u = order[j]
                rest = after[j + 1]
                nu = nbr[u]
                grown = chosen | 1 << u
                if (nu & (chosen | rest)).bit_count() >= g and not over_bound(
                    grown, reach | nu, rest, left - 1
                ):
                    if left > 1:
                        yield from grow(j + 1, grown, reach | nu, left - 1)
                    elif has_min_degree(graph, grown, g):
                        yield grown
                # u is out from here on: has_min_degree(graph, nu & chosen, g, chosen | rest),
                # written inline because the call costs the scan about 5%
                m = nu & chosen
                while m:
                    low = m & -m
                    m ^= low
                    if (nbr[low.bit_length() - 1] & (chosen | rest)).bit_count() < g:
                        return
                if over_bound(chosen, reach, rest, left):
                    return

        yield from grow(0, 0, 0, size)

    def bridge_cut(umask, c, base):
        """Best (S1, S2, B) cut of U that beats P, updating best_p and best_pair."""
        nonlocal best_p, best_pair, bridge_sets, splits
        u_size = umask.bit_count()
        in_u = {v: (nbr[v] & umask).bit_count() for v in _iter_bits(umask)}
        # a bridge has one neighbor per side (g = 1), or at most one (g = 0)
        cands = [v for v, d in in_u.items() if d == 2 or (g == 0 and d == 1)]
        b_top = min(len(cands), u_size - least_s)
        if lo_deg > 2:
            b_top = min(b_top, hi_deg * base // (lo_deg - 2))
        for b_size in range(max(0, b_top), -1, -1):
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
                s_bits = list(_iter_bits(smask))
                for t_size in range(s_size // 2, max(-1, base + s_size - best_p), -1):
                    if t_size == 0 and pairs:
                        break  # a bridge with two neighbors needs one on each side
                    found = None
                    for tc in combinations(s_bits, t_size):
                        splits += 1
                        t = 0
                        for v in tc:
                            t |= 1 << v
                        # each vertex of a side keeps >= g neighbors in its side and B
                        if all((p & t).bit_count() == 1 for p in pairs) and all(
                            has_min_degree(graph, side, g, side | bmask) for side in (smask ^ t, t)
                        ):
                            found = t
                            break
                    if found is not None:
                        best_p = base + s_size - t_size
                        best_pair = (c | (smask ^ found), c | found)
                        break

    for s_size in range(1, n + 1):
        if min(c + least_side(s_size, c) for c in range(max(1, best_p - 1))) >= best_p:
            break
        least = least_side(s_size, best_p - 2)
        for smask in subsets(range(n), s_size, least):
            yielded += 1
            closures += 1
            c = _sd_closure(graph, smask, g)
            base = c.bit_count()
            if base + least_side(s_size, base) >= best_p:
                continue
            if bridges:
                bridge_cut(smask, c, base)
                continue
            cand_pair = None
            # a side of t vertices scores base + s - t; only scores below P matter
            descending = sorted(_iter_bits(smask), reverse=True)
            for t_size in range(s_size // 2, max(0, base + s_size - best_p), -1):
                for t in subsets(descending, t_size, None):
                    splits += 1
                    if has_min_degree(graph, smask ^ t, g):
                        cand = base + s_size - t_size
                        cand_pair = (c | (smask ^ t), c | t)
                        break
                if cand_pair is not None:
                    break
            if cand_pair is None and base + s_size < best_p and (c | smask) != full:
                cand = base + s_size
                cand_pair = (c | smask, c)
            if cand_pair is not None:
                best_p = cand
                best_pair = cand_pair
    if stats is not None:
        stats.update(
            search_nodes=nodes,
            candidates=yielded,
            bound_cuts=bound_cuts,
            closures=closures,
            splits=splits,
        )
        if bridges:
            stats["bridge_sets"] = bridge_sets
    if best_pair is None:
        return None, None
    return best_p, best_pair


# -- closed forms --------------------------------------------------------


def tg_formula(n: int, k: int, g: int, model: Model) -> DiagnosabilityResult:
    """Piecewise t_g(S_{n,k}) over the full case table.

    Every theorem band that covers the parameters is evaluated; overlapping
    bands must agree (a disagreement would be an internal error).
    """
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
            num = math.factorial(g + 1) * (n - g)
            den = math.factorial(n - k)
            if num % den:
                raise VerificationError(f"(g+1)!(n-g) = {num} is not a multiple of (n-k)! = {den}")
            entries.append((num // den - 1, "high band (g+1)!(n-g)/(n-k)!-1"))
        if k == n - 1 and n >= 4 and 1 <= g <= n - 2:
            entries.append(((n - g) * math.factorial(g + 1) - 1, "star-graph band (n-g)(g+1)!-1"))
    if not entries:
        return DiagnosabilityResult(
            value=None,
            model=model,
            method="formula",
            provenance="case table",
            note=f"no case of the table covers n={n}, k={k}, g={g} ({model.value})",
        )
    values = {v for v, _ in entries}
    if len(values) != 1:
        raise VerificationError(
            f"overlapping formula bands disagree for n={n}, k={k}, g={g}, "
            f"{model.value}: {entries}"
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
    """An explicitly constructed indistinguishable pair, verified on build.

    checks records the re-derivable facts about the stored pair; any check
    required by the construction raises VerificationError instead of being
    recorded false.
    """

    construction: str
    descriptor: str
    a_set: LabelSet
    f1: LabelSet
    f2: LabelSet
    sizes: dict[str, int]
    checks: dict[str, bool]

    @property
    def upper_bound(self) -> int:
        """t_g <= max(|F1|, |F2|) - 1 for the model(s) the pair certifies."""
        return max(len(self.f1), len(self.f2)) - 1


def _require(ok: bool, what: str):
    if not ok:
        raise VerificationError(f"witness self-check failed: {what}")


def _nk_star(n: int, k: int, graph: TopologyGraph | None) -> TopologyGraph:
    """The S_{n,k} a caller already holds, checked against its descriptor, else a new build."""
    if graph is None:
        return build_nk_star(n, k)
    if graph.descriptor != f"nkstar:{n},{k}":
        raise DomainError(f"expected the graph nkstar:{n},{k}, got {graph.descriptor}")
    return graph


def witness_general(n: int, k: int, g: int, graph: TopologyGraph | None = None) -> WitnessReport:
    """Upper-bound pair for S_{n,k} in the range 2<=k<=n-1, n-k<=g<=n-2.

    A is the set of vertices whose trailing n-g-1 coordinates are literally
    1..n-g-1 and whose leading coordinates come from the top g+1 symbols;
    F1 = N(A) and F2 = F1 | A.  |F2| exceeds t_g by exactly one.  `graph`
    is S_{n,k} when the caller holds it; otherwise it is built here.
    """
    if n < 4 or not 2 <= k <= n - 1 or not n - k <= g <= n - 2:
        raise DomainError(
            f"general witness needs n>=4, 2<=k<=n-1, n-k<=g<=n-2; got n={n}, k={k}, g={g}"
        )
    graph = _nk_star(n, k, graph)
    tail = tuple(range(1, n - g))  # the n-g-1 fixed trailing symbols
    lead = k - (n - g - 1)
    a_set = frozenset(
        arrangement_label(head + tail, n) for head in permutations(range(n - g, n + 1), lead)
    )
    f1 = graph.neighborhood_of_set(a_set)
    f2 = f1 | a_set

    size_a = math.factorial(g + 1) // math.factorial(n - k)
    _require(len(a_set) == size_a, f"|A|={len(a_set)}, expected {size_a}")
    _require(len(f1) == size_a * (n - g - 1), f"|F1|={len(f1)}, expected {size_a * (n - g - 1)}")
    _require(len(f2) == size_a * (n - g), f"|F2|={len(f2)}, expected {size_a * (n - g)}")
    _require(is_g_good_neighbor(graph, f1, g), "F1 not g-good-neighbor")
    _require(is_g_good_neighbor(graph, f2, g), "F2 not g-good-neighbor")
    m1, m2 = graph.mask_of(f1), graph.mask_of(f2)
    _require(indist_pmc_mask(graph, m1, m2), "pair distinguishable under PMC")
    _require(not dist_mm_mask(graph, m1, m2), "pair distinguishable under MM*")
    formula = tg_formula(n, k, g, Model.PMC).value
    _require(len(f2) - 1 == formula, f"|F2|-1={len(f2) - 1} != formula {formula}")
    return WitnessReport(
        construction="general",
        descriptor=graph.descriptor,
        a_set=a_set,
        f1=f1,
        f2=f2,
        sizes={"A": len(a_set), "F1": len(f1), "F2": len(f2)},
        checks={
            "f1_good": True,
            "f2_good": True,
            "indistinguishable_pmc": True,
            "indistinguishable_mm": True,
            "sizes_match_formula": True,
        },
    )


def witness_snk2_mm(n: int, graph: TopologyGraph | None = None) -> WitnessReport:
    """MM* upper-bound pair for S_{n,2}, n>=4: A = N({12,32,42}), F_i = A + one seed.

    `graph` is S_{n,2} when the caller holds it; otherwise it is built here.
    """
    if n < 4:
        raise DomainError(f"S_{{n,2}} MM* witness needs n >= 4, got n={n}")
    graph = _nk_star(n, 2, graph)
    seeds = frozenset(
        arrangement_label(p, n) for p in ((1, 2), (3, 2), (4, 2))
    )
    a_set = graph.neighborhood_of_set(seeds)
    f1 = a_set | {arrangement_label((1, 2), n)}
    f2 = a_set | {arrangement_label((3, 2), n)}
    _require(len(a_set) == n - 1, f"|A|={len(a_set)}, expected {n - 1}")
    _require(len(f1) == n and len(f2) == n, "|F1| or |F2| != n")
    _require(is_g_good_neighbor(graph, f1, 1), "F1 not 1-good-neighbor")
    _require(is_g_good_neighbor(graph, f2, 1), "F2 not 1-good-neighbor")
    m1, m2 = graph.mask_of(f1), graph.mask_of(f2)
    _require(not dist_mm_mask(graph, m1, m2), "pair distinguishable under MM*")
    # no PMC claim is made for this pair; its status is recorded only
    pmc_indist = indist_pmc_mask(graph, m1, m2)
    formula = tg_formula(n, 2, 1, Model.MM).value
    return WitnessReport(
        construction="snk2-mm",
        descriptor=graph.descriptor,
        a_set=a_set,
        f1=f1,
        f2=f2,
        sizes={"A": len(a_set), "F1": len(f1), "F2": len(f2)},
        checks={
            "f1_good": True,
            "f2_good": True,
            "indistinguishable_pmc": pmc_indist,
            "indistinguishable_mm": True,
            "sizes_match_formula": max(len(f1), len(f2)) - 1 == formula,
        },
    )


def witness_cycle6() -> WitnessReport:
    """The six-cycle MM* pair {u1,u2} vs {u4,u5}, certifying t_1 <= 1."""
    graph = build_cycle(6)
    f1 = frozenset({"u1", "u2"})
    f2 = frozenset({"u4", "u5"})
    _require(is_g_good_neighbor(graph, f1, 1), "F1 not 1-good-neighbor")
    _require(is_g_good_neighbor(graph, f2, 1), "F2 not 1-good-neighbor")
    m1, m2 = graph.mask_of(f1), graph.mask_of(f2)
    _require(not dist_mm_mask(graph, m1, m2), "pair distinguishable under MM*")
    pmc_indist = indist_pmc_mask(graph, m1, m2)
    formula = tg_formula(3, 2, 1, Model.MM).value
    return WitnessReport(
        construction="cycle6",
        descriptor=graph.descriptor,
        a_set=frozenset(),
        f1=f1,
        f2=f2,
        sizes={"A": 0, "F1": 2, "F2": 2},
        checks={
            "f1_good": True,
            "f2_good": True,
            "indistinguishable_pmc": pmc_indist,
            "indistinguishable_mm": True,
            "sizes_match_formula": max(len(f1), len(f2)) - 1 == formula,
        },
    )


def witness_for(n: int, k: int, g: int, model: Model) -> str | None:
    """The witness construction that covers cell (n, k, g) under `model`, or None.

    The three constructions cover disjoint cells, so at most one applies:
    `general` covers n >= 4, 2 <= k <= n-1, n-k <= g <= n-2 under both
    models; `snk2-mm` covers S_{n,2} with n >= 4 and g = 1, and `cycle6`
    covers S_{3,2} with g = 1, both under MM* only.
    """
    if n >= 4 and 2 <= k <= n - 1 and n - k <= g <= n - 2:
        return "general"
    if model is Model.MM and k == 2 and g == 1:
        if n >= 4:
            return "snk2-mm"
        if n == 3:
            return "cycle6"
    return None


def build_witness(
    name: str, n: int, k: int, g: int, graph: TopologyGraph | None = None
) -> WitnessReport:
    """Build the construction `name` that `witness_for` picked for cell (n, k, g).

    `graph`, when given, is the S_{n,k} the caller holds; `cycle6` lives on
    its own six-cycle and ignores it.
    """
    if name == "general":
        return witness_general(n, k, g, graph)
    if name == "snk2-mm":
        return witness_snk2_mm(n, graph)
    if name == "cycle6":
        return witness_cycle6()
    raise DomainError(f"unknown witness construction {name!r}")


# -- crosscheck ----------------------------------------------------------


@dataclass
class CrosscheckReport:
    """Per-model agreement between formula, brute force, and witnesses."""

    n: int
    k: int
    g: int
    results: dict[str, dict] = field(default_factory=dict)
    ok: bool = True
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "g": self.g,
            "ok": self.ok,
            "results": self.results,
            "notes": self.notes,
        }


def crosscheck(
    n: int, k: int, g: int, budget: int = DEFAULT_ORACLE_BUDGET, graph: TopologyGraph | None = None
) -> CrosscheckReport:
    """Run every applicable t_g method for both models and compare.

    `graph` is the S_{n,k} the caller holds, if any, so that a row of the
    table builds it once; without it, S_{n,k} is built when the oracle's
    `budget` admits it or a witness needs it.  The witness that covers the
    cell is built once, whichever models it serves.  Every construction
    lives on S_{n,k}, so a witness over `build_nk_star`'s vertex cap is
    skipped and recorded as `witness_skipped`.  Each model's entry records
    `ok`: its brute-force value and witness bound both match its formula.
    """
    report = CrosscheckReport(n=n, k=k, g=g)
    formulas = {model: tg_formula(n, k, g, model) for model in Model}
    in_budget = math.perm(n, k) <= budget
    if graph is not None or in_budget:
        graph = _nk_star(n, k, graph)
    witnesses: dict[str, WitnessReport] = {}
    for model, formula in formulas.items():
        entry: dict = {
            "formula": formula.value,
            "formula_provenance": formula.provenance or formula.note,
        }
        mismatches = []
        if not in_budget:
            entry["bruteforce"] = None
            entry["bruteforce_skipped"] = "over budget"
        else:
            brute = tg_bruteforce(graph, g, model, budget)
            entry["bruteforce"] = brute.value
            if brute.pair:
                entry["bruteforce_pair"] = [list(p) for p in brute.pair]
            if formula.applicable and brute.value != formula.value:
                mismatches.append(f"brute force {brute.value}")
        name = witness_for(n, k, g, model)
        if name is not None and math.perm(n, k) > DEFAULT_VERTEX_BUDGET:
            entry["witness_skipped"] = "over budget"
        elif name is not None:
            if name not in witnesses:
                witnesses[name] = build_witness(name, n, k, g, graph)
            bound = witnesses[name].upper_bound
            entry.update(witness=name, witness_upper_bound=bound)
            if bound != formula.value:
                mismatches.append(f"{name} witness bound {bound}")
        entry["ok"] = not mismatches
        report.notes += [f"{model.value}: {m} != formula {formula.value}" for m in mismatches]
        report.results[model.value] = entry
    report.ok = not report.notes
    report.results["witnesses"] = {
        name: {"sizes": w.sizes, "upper_bound": w.upper_bound, "checks": w.checks}
        for name, w in witnesses.items()
    }
    return report
