"""The MM* comparator test as it stood before it looked only next to F1 ^ F2, kept as a reference.

`dist_mm_mask` below walks every fault-free vertex; the one in
``stardiag.faults`` must give the same answer on every pair.
"""


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
