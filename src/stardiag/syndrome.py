"""Test execution, syndrome generation, and consistency-based diagnosis.

PMC units are ordered adjacent pairs (tester, testee); MM* units are
comparator triples (u, v; w) with w adjacent to both compared vertices.
Outcomes controlled by a faulty tester/comparator follow a strategy:
seeded-random, all-zeros, or all-ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from .base import DomainError, Model, VerificationError
# good_mask is not called here; perfbench/spans.py wraps syndrome.good_mask by name
from .faults import check_g, good_mask, has_min_degree  # noqa: F401
from .graph import TopologyGraph, _iter_bits

STRATEGIES = ("random", "zeros", "ones")


@dataclass(frozen=True)
class TestAssignment:
    """Complete unit set of a diagnosis model on a graph.

    PMC: every ordered adjacent pair as (u, v, None), 2|E| units.
    MM*: every (u, v, w) with w adjacent to both and u < v, sum of
    C(deg(w), 2) units.  Units are index triples in lexicographic order,
    which is label order: labels are sorted at construction.
    """

    graph: TopologyGraph
    model: Model
    units: tuple[tuple[int, int, int | None], ...]
    rules: tuple[tuple[int, int], ...] = field(compare=False, repr=False)
    """Per unit, in unit order: (controller bit, mask of the watched vertices).

    A PMC unit (u, v, None) is (1<<u, 1<<v): tester u watches testee v.  An
    MM* unit (u, v, w) is (1<<w, 1<<u | 1<<v): comparator w watches u and v.
    The outcome rule of both models: a fault-free controller reports 1
    exactly when a vertex it watches is faulty; a faulty one may report
    anything.
    """

    def expected(self, fmask: int) -> list[int | None]:
        """Per unit, what `rules` expects under faulty set `fmask`; None at a faulty controller."""
        return [
            None if controller & fmask else (1 if watched & fmask else 0)
            for controller, watched in self.rules
        ]


def build_assignment(graph: TopologyGraph, model: Model | str) -> TestAssignment:
    model = Model.parse(model)
    nbr = graph.nbr_masks
    if model is Model.PMC:
        units = [(u, v, None) for u in range(graph.vertex_count) for v in _iter_bits(nbr[u])]
        rules = [(1 << u, 1 << v) for u, v, _ in units]
    else:
        units = sorted(
            (u, v, w)
            for w in range(graph.vertex_count)
            for u, v in combinations(_iter_bits(nbr[w]), 2)
        )
        rules = [(1 << w, 1 << u | 1 << v) for u, v, w in units]
    return TestAssignment(graph=graph, model=model, units=tuple(units), rules=tuple(rules))


@dataclass(frozen=True)
class Syndrome:
    """One outcome, 0 or 1, per unit of an assignment.

    `strategy` says where the outcomes came from: one of `STRATEGIES`,
    "given" or "ambiguity".
    """

    assignment: TestAssignment
    outcomes: tuple[int, ...]
    strategy: str = "given"
    seed: int = 0

    def __post_init__(self):
        if len(self.outcomes) != len(self.assignment.units):
            raise DomainError("syndrome must carry exactly one bit per unit")
        if not set(self.outcomes) <= {0, 1}:
            raise DomainError("every syndrome outcome must be 0 or 1")
        if self.strategy not in (*STRATEGIES, "given", "ambiguity"):
            raise DomainError(f"unknown syndrome strategy {self.strategy!r}")


def generate_syndrome(
    assignment: TestAssignment, fault_set, strategy: str = "random", seed: int = 0
) -> Syndrome:
    """Syndrome produced by ground truth `fault_set`.

    Units whose controller is fault-free report what `rules` expects; units
    controlled by a faulty vertex follow `strategy`, drawn in unit order.
    """
    if strategy not in STRATEGIES:
        raise DomainError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    rng = random.Random(seed)
    forced = {"zeros": 0, "ones": 1}.get(strategy)
    bits = assignment.expected(assignment.graph.mask_of(fault_set))
    for i, bit in enumerate(bits):
        if bit is None:
            bits[i] = rng.getrandbits(1) if forced is None else forced
    return Syndrome(assignment=assignment, outcomes=tuple(bits), strategy=strategy, seed=seed)


def consistent_mask(syndrome: Syndrome, fmask: int) -> bool:
    expected = syndrome.assignment.expected(fmask)
    return all(want is None or want == bit for want, bit in zip(expected, syndrome.outcomes))


def is_consistent(fault_set, syndrome: Syndrome) -> bool:
    """True iff `fault_set` could have produced the syndrome."""
    return consistent_mask(syndrome, syndrome.assignment.graph.mask_of(fault_set))


def ambiguity_syndrome(assignment: TestAssignment, f1, f2) -> Syndrome:
    """A syndrome consistent with both hypotheses.

    Each unit reports the outcome its controller expects under each
    hypothesis that leaves it fault-free, or 0 when neither does.  That
    exists exactly when the pair is indistinguishable under the
    assignment's model; a distinguishable pair raises VerificationError.
    """
    graph = assignment.graph
    m1, m2 = graph.mask_of(f1), graph.mask_of(f2)
    if m1 == m2:
        raise DomainError("ambiguity syndrome needs two distinct sets")
    bits = []
    for (controller, watched), want1, want2 in zip(
        assignment.rules, assignment.expected(m1), assignment.expected(m2)
    ):
        if want1 is None:  # F1 holds the controller, so only F2 binds it
            bits.append(want2 or 0)
        elif want2 is None or want1 == want2:
            bits.append(want1)
        else:
            raise VerificationError(
                f"pair is distinguishable: {graph.labels[controller.bit_length() - 1]} watching "
                f"{graph.sorted_labels_of(watched)} expects a different outcome under each set"
            )
    return Syndrome(assignment=assignment, outcomes=tuple(bits), strategy="ambiguity")


def diagnose(syndrome: Syndrome, t: int, g: int, stats: dict | None = None) -> list[frozenset]:
    """All proper g-good-neighbor hypotheses of size <= t consistent with the syndrome.

    Hypotheses come in increasing size then lexicographic label order.
    An empty result means the true fault count exceeded t.

    A depth-first search assigns each vertex a status, faulty or
    fault-free, and after every step closes the assignment under the
    syndrome's clauses, each read off a unit whose controller is
    fault-free:

    - PMC (u->v, b): u fault-free forces v to status b, and v taking the
      other status forces u faulty.
    - MM* (u, v; w, 0): w fault-free forces u and v fault-free, and a
      faulty u or v forces w faulty.
    - MM* (u, v; w, 1): w fault-free needs u or v faulty, so u, v and w
      are never all fault-free: once two of them are, the third is forced
      faulty.

    A branch is cut when two clauses force a vertex both ways, when more
    than min(t, |V|-1) vertices are faulty, or when a fault-free vertex
    has fewer than g neighbors outside the faulty set.  Once min(t, |V|-1)
    vertices are faulty every other vertex is fault-free.  A full
    assignment satisfies every clause, so it is consistent with the
    syndrome; it is kept when every fault-free vertex has >= g fault-free
    neighbors, which is `good_mask`.

    `stats`, when given, receives the work counters of the search:
    search nodes, assignments forced by the clauses, and full assignments.
    """
    check_g(g)
    graph = syndrome.assignment.graph
    n = graph.vertex_count
    limit = min(t, n - 1)
    full = graph.full_mask
    # per vertex x: x faulty forces these faulty; x fault-free forces these
    # faulty, or these fault-free; x and a fault-free force b faulty, per (a, b)
    faulty_faulty = [0] * n
    free_faulty = [0] * n
    free_free = [0] * n
    triples: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v, w), bit in zip(syndrome.assignment.units, syndrome.outcomes):
        bu, bv = 1 << u, 1 << v
        if w is None:
            if bit:
                free_faulty[u] |= bv
                free_faulty[v] |= bu
            else:
                free_free[u] |= bv
                faulty_faulty[v] |= bu
        elif bit:
            bw = 1 << w
            triples[u].append((bv, bw))
            triples[v].append((bu, bw))
            triples[w].append((bu, bv))
        else:
            free_free[w] |= bu | bv
            faulty_faulty[u] |= 1 << w
            faulty_faulty[v] |= 1 << w
    nodes = forced = leaves = 0

    def settle(faulty, free, new_faulty, new_free):
        """Close (faulty, free) under the clauses, from the newly assigned vertices.

        Returns the closed pair, or None on a conflict or too many faults.
        """
        nonlocal forced
        while new_faulty or new_free:
            want_faulty = want_free = 0
            m = new_faulty
            while m:
                low = m & -m
                m ^= low
                want_faulty |= faulty_faulty[low.bit_length() - 1]
            m = new_free
            while m:
                low = m & -m
                m ^= low
                x = low.bit_length() - 1
                want_faulty |= free_faulty[x]
                want_free |= free_free[x]
                for a, b in triples[x]:
                    if a & free:
                        want_faulty |= b
                    if b & free:
                        want_faulty |= a
            if want_faulty & (free | want_free) or want_free & faulty:
                return None
            new_faulty = want_faulty & ~faulty
            new_free = want_free & ~free
            faulty |= new_faulty
            free |= new_free
            forced += new_faulty.bit_count() + new_free.bit_count()
            if faulty.bit_count() > limit:
                return None
        return faulty, free

    found = []
    stack = [(0, 0)] if limit >= 0 else []
    while stack:
        faulty, free = stack.pop()
        nodes += 1
        rest = full & ~faulty
        if not has_min_degree(graph, free, g, rest):
            continue
        open_ = rest & ~free
        if open_ and faulty.bit_count() == limit:
            if settle(faulty, free | open_, 0, open_) is None:
                continue
            leaves += 1
            # only the vertices just freed are new to the degree test above
            if has_min_degree(graph, open_, g, rest):
                found.append(faulty)
            continue
        if not open_:
            # free == rest, so the degree test above has decided good_mask(faulty)
            leaves += 1
            found.append(faulty)
            continue
        x = open_ & -open_
        for state in (settle(faulty | x, free, x, 0), settle(faulty, free | x, 0, x)):
            if state is not None:
                stack.append(state)
    if stats is not None:
        stats.update(search_nodes=nodes, forced=forced, leaves=leaves)
    found.sort(key=lambda fmask: (fmask.bit_count(), tuple(_iter_bits(fmask))))
    return [graph.labels_of(fmask) for fmask in found]


# -- syndrome file format ------------------------------------------------


def _unit_text(graph: TopologyGraph, unit) -> str:
    """A unit as its line names it, before ' -> b': 'u v' (PMC) or 'u v | w' (MM*)."""
    u, v, w = unit
    pair = f"{graph.labels[u]} {graph.labels[v]}"
    return pair if w is None else f"{pair} | {graph.labels[w]}"


def syndrome_to_text(syndrome: Syndrome) -> str:
    """Header 'model n k seed strategy', n k the graph's `cell` or 0 0, then one line per unit."""
    assignment = syndrome.assignment
    graph = assignment.graph
    n, k = graph.cell or (0, 0)
    units = zip(assignment.units, syndrome.outcomes)
    lines = sorted(f"{_unit_text(graph, unit)} -> {bit}" for unit, bit in units)
    header = f"{assignment.model.value} {n} {k} {syndrome.seed} {syndrome.strategy}"
    return header + "\n" + "\n".join(lines) + "\n"


def syndrome_from_text(graph: TopologyGraph, text: str) -> Syndrome:
    """Unit lines are 'u v -> b' or 'u v | w -> b', split on whitespace, which no label holds."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DomainError("empty syndrome text")
    head = lines[0].split()
    if len(head) != 5:
        raise DomainError(f"bad syndrome header {lines[0]!r}")
    model = Model.parse(head[0])
    if head[1:3] != [str(x) for x in graph.cell or (0, 0)]:
        raise DomainError(
            f"syndrome header n k = {' '.join(head[1:3])} does not match {graph.descriptor}"
        )
    try:
        seed = int(head[3])
    except ValueError:
        raise DomainError(f"bad syndrome seed {head[3]!r}") from None
    strategy = head[4]
    assignment = build_assignment(graph, model)
    at = {unit: i for i, unit in enumerate(assignment.units)}
    outcomes: list[int | None] = [None] * len(at)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) == 4 and parts[2] == "->":
            u_s, v_s, _, bit_s = parts
            w_s = None
        elif len(parts) == 6 and parts[2] == "|" and parts[4] == "->":
            u_s, v_s, _, w_s, _, bit_s = parts
        else:
            raise DomainError(f"bad syndrome line {ln!r}")
        if bit_s not in ("0", "1"):
            raise DomainError(f"syndrome outcome must be 0 or 1 in {ln!r}")
        key = (graph._lookup(u_s), graph._lookup(v_s), None if w_s is None else graph._lookup(w_s))
        if key not in at:
            raise DomainError(f"syndrome text carries units not in the assignment: {ln!r}")
        if outcomes[at[key]] is not None:
            raise DomainError(f"duplicate syndrome unit {' '.join(parts[:-2])!r}")
        outcomes[at[key]] = int(bit_s)
    if None in outcomes:
        missing = _unit_text(graph, assignment.units[outcomes.index(None)])
        raise DomainError(f"syndrome text is missing unit {missing!r}")
    return Syndrome(assignment=assignment, outcomes=tuple(outcomes), strategy=strategy, seed=seed)
