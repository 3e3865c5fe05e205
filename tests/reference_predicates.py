"""One indistinguishability loop per model over every fault-free vertex, kept as a reference.

``stardiag.faults.indist_mask`` looks only at the fault-free neighbors of
F1 ^ F2 and decides both models in one walk; the loops below look at
every fault-free vertex, and the two must give the same answer on every
pair.
"""


def indist_pmc_mask(graph, f1: int, f2: int) -> bool:
    """PMC-indistinguishable: no fault-free vertex has a neighbor in F1 ^ F2."""
    outside = graph.full_mask & ~(f1 | f2)
    delta = f1 ^ f2
    o = outside
    while o:
        low = o & -o
        o ^= low
        if graph.nbr_masks[low.bit_length() - 1] & delta:
            return False  # a fault-free tester of a vertex faulty in one set only
    return True


def dist_mm_mask(graph, f1: int, f2: int) -> bool:
    """MM*-distinguishable: one of the three comparator conditions holds."""
    outside = graph.full_mask & ~(f1 | f2)
    delta = f1 ^ f2
    only1 = f1 & ~f2
    only2 = f2 & ~f1
    o = outside
    while o:
        low = o & -o
        o ^= low
        nb = graph.nbr_masks[low.bit_length() - 1]
        if (nb & outside) and (nb & delta):
            return True  # fault-free vertex with a fault-free and a differing neighbor
        if (nb & only1).bit_count() >= 2:
            return True  # two F1-only vertices share a fault-free comparator
        if (nb & only2).bit_count() >= 2:
            return True
    return False


def indist(graph, f1: int, f2: int, model) -> bool:
    """The reference verdict under `model`, a `Model` or its name."""
    if model == "pmc":
        return indist_pmc_mask(graph, f1, f2)
    return not dist_mm_mask(graph, f1, f2)
