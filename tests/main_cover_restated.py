"""The Gray-code walk of `perfectposet.main_cover`, restated as the reference
for the bit-algebra body it has at depth <= `cantor.TABLE_DEPTH`.

This is the body `main_cover` had before its depth <= 4 members were read
off one int per height.  It walks every union of c's parts at a level, one
XOR per step, and sorts each into its family.  It reads only the bit kernel
and builds plain conditions; it does not validate its inputs, so pass dense
conditions of one depth and k <= depth.  `main_cover` must return the same
(n, mask) list, in the same order.
"""

from __future__ import annotations

from clopenforce.cantor import ClopenSet, densities, positions, projections
from clopenforce.perfectposet import PCondition


def _node_parts(mask: int, depth: int, level: int) -> list[int]:
    """The part of mask below each of its level-`level` nodes."""
    shift = depth - level
    block = (1 << (1 << shift)) - 1
    return [mask & block << (j << shift) for j in positions(projections(depth)[level][mask])]


def main_cover(b: PCondition, c: PCondition, k: int) -> list[PCondition]:
    depth = b.B.depth
    n, m = b.n, c.n
    bmask, cmask = b.B.mask, c.B.mask
    P, D = projections(depth), densities(depth)
    at_m = P[m]
    trace_b_n, trace_c_m = P[n][bmask], at_m[cmask]
    found: set[tuple[int, int]] = set()

    for ell in range(m, k + 1):
        s, fine = min(ell, n), max(ell, n)
        at_s, at_fine, dense = P[s], P[fine], D[ell]
        trace_b_s = at_s[bmask]
        # the level-fine nodes below which c has mass outside b
        has_special = at_fine[cmask & ~bmask]
        shift = depth - fine
        block = (1 << (1 << shift)) - 1
        for level in (ell,) if ell >= n else (n, ell):
            parts = _node_parts(cmask, depth, level)
            u = 0
            for i in range(1, 1 << len(parts)):
                # step i flips the part of i's lowest set bit
                u ^= parts[(i & -i).bit_length() - 1]
                if at_m[u] != trace_c_m:
                    continue
                if at_s[u] != trace_b_s:
                    # family A: the trace at s disagrees with b's
                    if level == ell and dense[u]:
                        found.add((ell, u))
                    continue
                if level != fine:
                    continue
                # family B: the trace at s agrees; miss a committed node or cut it
                nodes = at_fine[u]
                committed = trace_b_n if ell < n else nodes
                if nodes & committed != committed:
                    if dense[u]:
                        found.add((ell, u))
                    continue
                for t in positions(committed & has_special):
                    cyl = block << (t << shift)
                    cand = (u & ~cyl) | (cmask & cyl & ~bmask)
                    if dense[cand]:
                        found.add((ell, cand))
    return [PCondition(ClopenSet(depth, mask), ell) for ell, mask in sorted(found)]
