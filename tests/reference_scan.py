"""The symmetric-difference scan as it stood before pruning, kept as a reference.

`_pmc_sd_scan` below walks every subset S of V and every submask of S with
no bound; the pruned scan in ``stardiag.diagnosability`` must return the
identical ``(p, pair)`` on every graph small enough to run this one.
"""

from itertools import combinations


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


def _pmc_sd_scan(graph, g: int, m_cap: int):
    """Exact P for PMC via enumeration of candidate symmetric differences."""
    n = graph.vertex_count
    full = graph.full_mask
    best_p = None
    best_pair = None

    def mindeg_ok(mask):
        m = mask
        while m:
            low = m & -m
            m ^= low
            if (graph.nbr_masks[low.bit_length() - 1] & mask).bit_count() < g:
                return False
        return True

    for s_size in range(1, n + 1):
        if best_p is not None and (s_size + 1) // 2 >= best_p:
            break
        for combo in combinations(range(n), s_size):
            smask = 0
            for i in combo:
                smask |= 1 << i
            c = _sd_closure(graph, smask, g)
            base = c.bit_count()
            if best_p is not None and base + (s_size + 1) // 2 >= best_p:
                continue
            cand = None
            cand_pair = None
            if mindeg_ok(smask) and (c | smask) != full:
                cand = base + s_size
                cand_pair = (c | smask, c)
            # balanced two-sided partitions of the symmetric difference
            t = (smask - 1) & smask
            while t:
                tsize = t.bit_count()
                if 0 < tsize <= s_size // 2:
                    other = smask ^ t
                    score = base + s_size - tsize
                    if (cand is None or score < cand) and mindeg_ok(t) and mindeg_ok(other):
                        cand = score
                        cand_pair = (c | other, c | t)
                t = (t - 1) & smask
            if cand is not None and (best_p is None or cand < best_p):
                best_p = cand
                best_pair = cand_pair
    return best_p, best_pair
