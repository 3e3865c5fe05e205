"""Diagnosis by exhaustive enumeration, as it stood before the search, kept as a reference.

`diagnose` below tests every subset of size <= t; the branch-and-propagate
search in ``stardiag.syndrome`` must return the identical list, in the same
order, on every case small enough to run this one.
"""

from itertools import combinations

from stardiag.base import BudgetError, DomainError
from stardiag.faults import good_mask
from stardiag.syndrome import consistent_mask

#: vertex cap of the 2^N enumeration below
DEFAULT_DIAGNOSIS_BUDGET = 16


def diagnose(
    graph,
    syndrome,
    t: int,
    g: int,
    first_two: bool = False,
    budget: int = DEFAULT_DIAGNOSIS_BUDGET,
) -> list[frozenset]:
    """All proper g-good-neighbor hypotheses of size <= t consistent with the syndrome.

    Hypotheses are enumerated in increasing size then lexicographic label
    order; with first_two=True the scan stops as soon as ambiguity is
    established.  An empty result means the true fault count exceeded t.
    """
    n = graph.vertex_count
    if n > budget:
        raise BudgetError(f"{n} vertices over the diagnosis budget of {budget}")
    if syndrome.assignment.graph is not graph and syndrome.assignment.graph != graph:
        raise DomainError("syndrome is bound to a different graph")
    found = []
    for size in range(min(t, n - 1) + 1):
        for combo in combinations(range(n), size):
            fmask = 0
            for i in combo:
                fmask |= 1 << i
            if not good_mask(graph, fmask, g):
                continue
            if consistent_mask(syndrome, fmask):
                found.append(graph.labels_of(fmask))
                if first_two and len(found) >= 2:
                    return found
    return found
