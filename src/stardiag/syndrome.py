"""Test execution, syndrome generation, and consistency-based diagnosis.

PMC units are ordered adjacent pairs (tester, testee); MM* units are
comparator triples (u, v; w) with w adjacent to both compared vertices.
Outcomes controlled by a faulty tester/comparator follow a strategy:
seeded-random, all-zeros, or all-ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .base import DomainError, Model, VerificationError
# good_mask is not called here; perfbench/spans.py wraps syndrome.good_mask by name
from .faults import good_mask, has_min_degree  # noqa: F401
from .graph import TopologyGraph, _iter_bits
from .topologies import descriptor_params

STRATEGIES = ("random", "zeros", "ones")


@dataclass(frozen=True)
class TestAssignment:
    """Complete unit set of a diagnosis model on a graph.

    PMC: every ordered adjacent pair as (u, v, None), 2|E| units.
    MM*: every (u, v, w) with w adjacent to both and u < v, sum of
    C(deg(w), 2) units.  Units are index triples, lexicographic by label.
    """

    graph: TopologyGraph
    model: Model
    units: tuple[tuple[int, int, int | None], ...]


def build_assignment(graph: TopologyGraph, model: Model) -> TestAssignment:
    units = []
    if model is Model.PMC:
        for u in range(graph.vertex_count):
            for v in _iter_bits(graph.nbr_masks[u]):
                units.append((u, v, None))
    else:
        for w in range(graph.vertex_count):
            for u, v in combinations(sorted(_iter_bits(graph.nbr_masks[w])), 2):
                units.append((u, v, w))
    units.sort(key=lambda t: tuple(graph.labels[i] for i in t if i is not None))
    return TestAssignment(graph=graph, model=model, units=tuple(units))


@dataclass(frozen=True)
class Syndrome:
    """One outcome bit per unit of an assignment."""

    assignment: TestAssignment
    outcomes: tuple[int, ...]
    strategy: str = "given"
    seed: int = 0

    def __post_init__(self):
        if len(self.outcomes) != len(self.assignment.units):
            raise DomainError("syndrome must carry exactly one bit per unit")


def generate_syndrome(
    assignment: TestAssignment, fault_set, strategy: str = "random", seed: int = 0
) -> Syndrome:
    """Syndrome produced by ground truth `fault_set`.

    Units whose tester/comparator is fault-free follow the outcome tables
    exactly; units controlled by a faulty vertex follow `strategy`.
    """
    if strategy not in STRATEGIES:
        raise DomainError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    graph = assignment.graph
    fmask = graph.mask_of(fault_set)
    rng = random.Random(seed)
    bits = []
    for u, v, w in assignment.units:
        controller = u if w is None else w
        if (fmask >> controller) & 1:
            if strategy == "zeros":
                bits.append(0)
            elif strategy == "ones":
                bits.append(1)
            else:
                bits.append(rng.getrandbits(1))
        elif w is None:
            bits.append((fmask >> v) & 1)
        else:
            bits.append(1 if ((fmask >> u) | (fmask >> v)) & 1 else 0)
    return Syndrome(assignment=assignment, outcomes=tuple(bits), strategy=strategy, seed=seed)


def consistent_mask(assignment: TestAssignment, outcomes, fmask: int) -> bool:
    for (u, v, w), bit in zip(assignment.units, outcomes):
        controller = u if w is None else w
        if (fmask >> controller) & 1:
            continue  # a faulty controller may report anything
        if w is None:
            expected = (fmask >> v) & 1
        else:
            expected = 1 if ((fmask >> u) | (fmask >> v)) & 1 else 0
        if bit != expected:
            return False
    return True


def is_consistent(fault_set, syndrome: Syndrome) -> bool:
    """True iff `fault_set` could have produced the syndrome."""
    graph = syndrome.assignment.graph
    return consistent_mask(syndrome.assignment, syndrome.outcomes, graph.mask_of(fault_set))


def ambiguity_syndrome(assignment: TestAssignment, f1, f2) -> Syndrome:
    """A syndrome consistent with both hypotheses.

    Exists exactly when the pair is indistinguishable under the
    assignment's model; a distinguishable pair raises VerificationError.
    """
    graph = assignment.graph
    m1, m2 = graph.mask_of(f1), graph.mask_of(f2)
    if m1 == m2:
        raise DomainError("ambiguity syndrome needs two distinct sets")
    bits = []
    for u, v, w in assignment.units:
        controller = u if w is None else w
        in1 = (m1 >> controller) & 1
        in2 = (m2 >> controller) & 1
        if w is None:
            want1, want2 = (m1 >> v) & 1, (m2 >> v) & 1
        else:
            want1 = 1 if ((m1 >> u) | (m1 >> v)) & 1 else 0
            want2 = 1 if ((m2 >> u) | (m2 >> v)) & 1 else 0
        if in1 and in2:
            bits.append(0)
        elif in1:
            bits.append(want2)
        elif in2:
            bits.append(want1)
        elif want1 == want2:
            bits.append(want1)
        else:
            unit = tuple(graph.labels[i] for i in (u, v, w) if i is not None)
            raise VerificationError(
                f"pair is distinguishable: unit {unit} forces conflicting outcomes"
            )
    return Syndrome(assignment=assignment, outcomes=tuple(bits), strategy="ambiguity")


def diagnose(
    graph: TopologyGraph,
    syndrome: Syndrome,
    t: int,
    g: int,
    first_two: bool = False,
    stats: dict | None = None,
) -> list[frozenset]:
    """All proper g-good-neighbor hypotheses of size <= t consistent with the syndrome.

    Hypotheses come in increasing size then lexicographic label order;
    with first_two=True only the first two are returned.  An empty result
    means the true fault count exceeded t.

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
    n = graph.vertex_count
    if syndrome.assignment.graph is not graph and syndrome.assignment.graph != graph:
        raise DomainError("syndrome is bound to a different graph")
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
    if first_two:
        found = found[:2]
    return [graph.labels_of(fmask) for fmask in found]


# -- syndrome file format ------------------------------------------------


def syndrome_to_text(syndrome: Syndrome) -> str:
    """Header 'model n k seed strategy', then one sorted line per unit."""
    assignment = syndrome.assignment
    graph = assignment.graph
    params = descriptor_params(graph.descriptor) or (0, 0)
    lines = []
    for (u, v, w), bit in zip(assignment.units, syndrome.outcomes):
        if w is None:
            lines.append(f"{graph.labels[u]} {graph.labels[v]} -> {bit}")
        else:
            lines.append(f"{graph.labels[u]} {graph.labels[v]} | {graph.labels[w]} -> {bit}")
    lines.sort()
    header = (
        f"{assignment.model.value} {params[0]} {params[1]} "
        f"{syndrome.seed} {syndrome.strategy}"
    )
    return header + "\n" + "\n".join(lines) + "\n"


def syndrome_from_text(graph: TopologyGraph, text: str) -> Syndrome:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DomainError("empty syndrome text")
    head = lines[0].split()
    if len(head) != 5:
        raise DomainError(f"bad syndrome header {lines[0]!r}")
    model = Model.parse(head[0])
    params = descriptor_params(graph.descriptor) or (0, 0)
    if head[1:3] != [str(params[0]), str(params[1])]:
        raise DomainError(
            f"syndrome header n k = {' '.join(head[1:3])} does not match {graph.descriptor}"
        )
    try:
        seed = int(head[3])
    except ValueError:
        raise DomainError(f"bad syndrome seed {head[3]!r}") from None
    strategy = head[4]
    assignment = build_assignment(graph, model)
    outcome_map = {}
    for ln in lines[1:]:
        left, _, bit_s = ln.rpartition("->")
        if not _:
            raise DomainError(f"bad syndrome line {ln!r}")
        if bit_s.strip() not in ("0", "1"):
            raise DomainError(f"syndrome outcome must be 0 or 1 in {ln!r}")
        bit = int(bit_s)
        try:
            if "|" in left:
                pair_s, _, w_s = left.partition("|")
                u_s, v_s = pair_s.split()
                key = (graph._lookup(u_s), graph._lookup(v_s), graph._lookup(w_s.strip()))
            else:
                u_s, v_s = left.split()
                key = (graph._lookup(u_s), graph._lookup(v_s), None)
        except ValueError:
            raise DomainError(f"bad syndrome line {ln!r}") from None
        if key in outcome_map:
            raise DomainError(f"duplicate syndrome unit {left.strip()!r}")
        outcome_map[key] = bit
    try:
        outcomes = tuple(outcome_map[unit] for unit in assignment.units)
    except KeyError as missing:
        raise DomainError(f"syndrome text is missing unit {missing}") from None
    if len(outcome_map) != len(assignment.units):
        raise DomainError("syndrome text carries units not in the assignment")
    return Syndrome(assignment=assignment, outcomes=outcomes, strategy=strategy, seed=seed)
