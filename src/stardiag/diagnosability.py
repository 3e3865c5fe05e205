"""g-good-neighbor conditional diagnosability, three ways.

t_g is computed by an exhaustive oracle over faulty-set pairs, by a
piecewise closed-form evaluator covering the full (k, g, model) case
table, and bounded from above by explicit witness-pair constructions.
The crosscheck entry point runs every applicable method and compares.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .base import BudgetError, DomainError, Model, VerificationError
from .faults import (
    dist_mm_mask,
    good_faulty_sets,
    has_min_degree,
    indist_mask,
    indist_pmc_mask,
    is_g_good_neighbor,
    min_subgraph_size_oracle,
)
from .graph import LabelSet, TopologyGraph, _iter_bits
from .topologies import arrangement_label, build_cycle, build_nk_star, parse_arrangement

#: default vertex caps for the exhaustive strategies
DEFAULT_PAIR_BUDGET = 12
DEFAULT_SD_BUDGET = 16


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


def _scan_chunk(args):
    """Pair-scan worker: best indistinguishable pair within a j-index chunk."""
    graph, sets_sorted, sizes, model, lo, hi = args
    best = None  # (max_size, j, i)
    for j in range(max(lo, 1), hi):
        if best is not None and sizes[j] >= best[0]:
            break
        fj = sets_sorted[j]
        for i in range(j):
            if indist_mask(graph, sets_sorted[i], fj, model):
                best = (sizes[j], j, i)
                break
    return best


def _pair_scan(graph, sets_sorted, sizes, model, workers):
    if workers <= 1 or len(sets_sorted) < 64:
        return _scan_chunk((graph, sets_sorted, sizes, model, 1, len(sets_sorted)))
    bounds = []
    step = max(1, (len(sets_sorted) + workers - 1) // workers)
    for lo in range(1, len(sets_sorted), step):
        bounds.append((graph, sets_sorted, sizes, model, lo, min(lo + step, len(sets_sorted))))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = [r for r in pool.map(_scan_chunk, bounds) if r is not None]
    return min(results) if results else None


def tg_bruteforce(
    graph: TopologyGraph,
    g: int,
    model: Model,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    sd_budget: int = DEFAULT_SD_BUDGET,
    workers: int = 1,
) -> DiagnosabilityResult:
    """Exhaustive t_g over all proper g-good-neighbor faulty sets.

    t_g = min(P-1, M) where P is the smallest max(|F1|,|F2|) over
    indistinguishable distinct pairs (infinity if all pairs are
    distinguishable) and M is the largest admissible faulty-set size.
    PMC instances between the pair budget and the symmetric-difference
    budget use the factored scan over candidate symmetric differences; it
    takes M = |V| - min_subgraph_size_oracle(G, g), because the complements
    of the proper admissible sets are exactly the nonempty sets inducing
    min degree >= g.
    """
    if g < 0:
        raise DomainError("g must be nonnegative")
    n = graph.vertex_count
    if n > (sd_budget if model is Model.PMC else pair_budget):
        raise BudgetError(
            f"{n} vertices over the {model.value} brute-force budget"
        )
    stats: dict = {}
    started = time.perf_counter()
    sd_path = model is Model.PMC and n > pair_budget
    if sd_path:
        smallest = min_subgraph_size_oracle(graph, g, budget=n)
        m_cap = None if smallest is None else n - smallest
    else:
        good = good_faulty_sets(graph, g)
        sizes_all = [m.bit_count() for m in good]
        m_cap = max(sizes_all) if good else None
    stats["m_cap_s"] = round(time.perf_counter() - started, 6)
    if m_cap is None:
        return DiagnosabilityResult(
            value=None,
            model=model,
            method="bruteforce",
            provenance="exhaustive pair scan",
            note=f"no admissible g-good-neighbor faulty set exists for g={g}",
            stats=stats,
        )

    started = time.perf_counter()
    if sd_path:
        p_val, pair_masks = _pmc_sd_scan(graph, g, m_cap, stats)
        method_note = "symmetric-difference scan"
    else:
        order = sorted(range(len(good)), key=lambda i: (sizes_all[i], good[i]))
        sets_sorted = [good[i] for i in order]
        sizes = [sizes_all[i] for i in order]
        best = _pair_scan(graph, sets_sorted, sizes, model, workers)
        if best is None:
            p_val, pair_masks = None, None
        else:
            p_val = best[0]
            pair_masks = (sets_sorted[best[2]], sets_sorted[best[1]])
        method_note = "pair scan"
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
        provenance=f"exhaustive {method_note}",
        note=note,
        pair=pair,
        stats=stats,
    )


def _sd_closure(graph, smask: int, g: int) -> int:
    """Smallest shared-fault set forced by symmetric difference `smask`.

    Starts from N(S) and repeatedly absorbs any remaining vertex with
    fewer than g remaining neighbors; every absorbed vertex is forced into
    F1 & F2 for any indistinguishable pair with this symmetric difference.
    """
    c = graph.neighborhood_mask(smask)
    region = graph.full_mask & ~c & ~smask
    changed = True
    while changed:
        changed = False
        r = region
        while r:
            low = r & -r
            r ^= low
            if (graph.nbr_masks[low.bit_length() - 1] & region).bit_count() < g:
                region ^= low
                c |= low
                changed = True
    return c


def _pmc_sd_scan(graph, g: int, m_cap: int, stats: dict | None = None):
    """Exact P for PMC via enumeration of candidate symmetric differences.

    Returns (P, (F1, F2)) for the first pair of smallest max size in the
    order below, or (None, None) when every admissible pair is
    distinguishable.  Each candidate symmetric difference S is taken in
    increasing size and, within a size, in `combinations` order; with
    C = _sd_closure(S) the best pair for S is (C | (S - T), C | T) for the
    largest admissible side T of at most s/2 vertices (the numerically
    largest on ties), else (C | S, C).  Three facts cut the work and leave
    the result unchanged:

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

    `stats`, when given, receives the work counters of the scan.
    """
    n = graph.vertex_count
    full = graph.full_mask
    nbr = graph.nbr_masks
    best_p = m_cap + 1
    best_pair = None
    nodes = yielded = bound_cuts = closures = splits = 0

    def subsets(order, size, bounded):
        """Yield each `size`-subset of `order` inducing min degree >= g, in combinations order."""
        after = [0] * (len(order) + 1)  # after[j]: the vertices order[j:]
        for j in range(len(order) - 1, -1, -1):
            after[j] = after[j + 1] | 1 << order[j]
        half = (size + 1) // 2

        def over_bound(chosen, reach, rest, left):
            # every S grown from `chosen` by `left` vertices of `rest` misses the
            # passed neighbors and all but `left` of those ahead; N(S) - S lies in C
            nonlocal bound_cuts
            if not bounded:
                return False
            out = reach & ~chosen
            forced = (out & ~rest).bit_count() + max(0, (out & rest).bit_count() - left)
            if forced + half >= best_p:
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
                # u is out from here on
                m = nu & chosen
                while m:
                    low = m & -m
                    m ^= low
                    if (nbr[low.bit_length() - 1] & (chosen | rest)).bit_count() < g:
                        return
                if over_bound(chosen, reach, rest, left):
                    return

        yield from grow(0, 0, 0, size)

    for s_size in range(1, n + 1):
        half = (s_size + 1) // 2
        if half >= best_p:
            break
        for smask in subsets(range(n), s_size, True):
            yielded += 1
            closures += 1
            c = _sd_closure(graph, smask, g)
            base = c.bit_count()
            if base + half >= best_p:
                continue
            cand_pair = None
            # a side of t vertices scores base + s - t; only scores below P matter
            descending = sorted(_iter_bits(smask), reverse=True)
            for t_size in range(s_size // 2, max(0, base + s_size - best_p), -1):
                for t in subsets(descending, t_size, False):
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
            assert num % den == 0
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
        raise AssertionError(
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


def witness_general(n: int, k: int, g: int) -> WitnessReport:
    """Upper-bound pair for S_{n,k} in the range 2<=k<=n-1, n-k<=g<=n-2.

    A is the set of vertices whose trailing n-g-1 coordinates are literally
    1..n-g-1 and whose leading coordinates come from the top g+1 symbols;
    F1 = N(A) and F2 = F1 | A.  |F2| exceeds t_g by exactly one.
    """
    if n < 4 or not 2 <= k <= n - 1 or not n - k <= g <= n - 2:
        raise DomainError(
            f"general witness needs n>=4, 2<=k<=n-1, n-k<=g<=n-2; got n={n}, k={k}, g={g}"
        )
    graph = build_nk_star(n, k)
    tail = tuple(range(1, n - g))  # the n-g-1 fixed trailing symbols
    lead = k - (n - g - 1)
    a_labels = set()
    for p in map(lambda lab: parse_arrangement(lab, n), graph.labels):
        if p[lead:] == tail and all(s > n - g - 1 for s in p[:lead]):
            a_labels.add(arrangement_label(p, n))
    a_set = frozenset(a_labels)
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


def witness_snk2_mm(n: int) -> WitnessReport:
    """MM* upper-bound pair for S_{n,2}, n>=4: A = N({12,32,42}), F_i = A + one seed."""
    if n < 4:
        raise DomainError(f"S_{{n,2}} MM* witness needs n >= 4, got n={n}")
    graph = build_nk_star(n, 2)
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
            "sizes_match_formula": True,
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
            "sizes_match_formula": True,
        },
    )


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
    n: int,
    k: int,
    g: int,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    sd_budget: int = DEFAULT_SD_BUDGET,
    workers: int = 1,
) -> CrosscheckReport:
    """Run every applicable t_g method for both models and compare."""
    report = CrosscheckReport(n=n, k=k, g=g)
    graph = build_nk_star(n, k)
    for model in (Model.PMC, Model.MM):
        entry: dict = {}
        formula = tg_formula(n, k, g, model)
        entry["formula"] = formula.value
        entry["formula_provenance"] = formula.provenance or formula.note
        budget = sd_budget if model is Model.PMC else pair_budget
        if graph.vertex_count <= budget:
            brute = tg_bruteforce(
                graph, g, model, pair_budget=pair_budget, sd_budget=sd_budget, workers=workers
            )
            entry["bruteforce"] = brute.value
            if brute.pair:
                entry["bruteforce_pair"] = [list(p) for p in brute.pair]
            if formula.applicable and brute.value != formula.value:
                report.ok = False
                report.notes.append(
                    f"{model.value}: brute force {brute.value} != formula {formula.value}"
                )
        else:
            entry["bruteforce"] = None
            entry["bruteforce_skipped"] = "over budget"
        report.results[model.value] = entry

    witnesses = {}
    if n >= 4 and 2 <= k <= n - 1 and n - k <= g <= n - 2:
        wit = witness_general(n, k, g)
        witnesses["general"] = wit
        expected = tg_formula(n, k, g, Model.PMC).value
        if wit.upper_bound != expected:
            report.ok = False
            report.notes.append(
                f"general witness bound {wit.upper_bound} != formula {expected}"
            )
    if k == 2 and g == 1 and n >= 4:
        wit = witness_snk2_mm(n)
        witnesses["snk2-mm"] = wit
        expected = tg_formula(n, k, g, Model.MM).value
        if wit.upper_bound != expected:
            report.ok = False
            report.notes.append(
                f"S_{{n,2}} MM* witness bound {wit.upper_bound} != formula {expected}"
            )
    if (n, k, g) == (3, 2, 1):
        wit = witness_cycle6()
        witnesses["cycle6"] = wit
        expected = tg_formula(n, k, g, Model.MM).value
        if wit.upper_bound != expected:
            report.ok = False
            report.notes.append(
                f"six-cycle witness bound {wit.upper_bound} != formula {expected}"
            )
    report.results["witnesses"] = {
        name: {"sizes": w.sizes, "upper_bound": w.upper_bound, "checks": w.checks}
        for name, w in witnesses.items()
    }
    return report
