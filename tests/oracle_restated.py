"""The naive cover oracle, restated as the normative reference for
`perfectposet.cover_oracle`.

This is the body `perfectposet.cover_oracle` had before it became
table-driven.  It walks every submask e of c's set, re-projects e
to every level and re-runs the density predicate for every height, then
scans the members of the matching (level, trace) buckets one by one.  It
shares only the bit kernel and the closed forms of order and compatibility
with the table-driven oracle, which must return an equal `OracleReport`:
the same bad members, the same uncovered conditions in the same order (e
descending, then height ascending) and the same checked count.

One rule was added to the old body: a good member must also be a
dense-part condition of height at most k (`in_pprime(q) and q.n <= k`).
"""

from __future__ import annotations

from typing import Sequence

from clopenforce.cantor import ClopenSet, dense_mask, levelset_mask, projections
from clopenforce.perfectposet import (
    OracleReport,
    PCondition,
    _compat_masks,
    _same_depth,
    in_pprime,
    p_compatible,
    p_leq,
)


def cover_oracle(
    b: PCondition, c: PCondition, k: int, members: Sequence[PCondition]
) -> OracleReport:
    """Exhaustively audit a claimed cover.

    Every dense-part condition below c that is incompatible with b and of
    height <= k must extend some member, and every member must itself sit
    below c and be incompatible with b.  Enumerates all submasks of c's
    set, so desk scale only.
    """
    depth = _same_depth(b, c)
    bad_members = tuple(
        q for q in members
        if not (in_pprime(q) and q.n <= k and p_leq(q, c) and not p_compatible(q, b))
    )
    kk = min(k, depth)
    m = c.n
    cmask = c.B.mask
    if cmask.bit_count() > 24:
        raise ValueError("oracle restricted to sets of <= 24 nodes")
    lv_c_m = levelset_mask(cmask, depth, m)
    buckets: dict[tuple[int, int], list[int]] = {}
    for q in members:
        key = (q.n, levelset_mask(q.B.mask, depth, q.n))
        buckets.setdefault(key, []).append(q.B.mask)
    bmask, n = b.B.mask, b.n
    uncovered: list[PCondition] = []
    checked = 0
    e = cmask
    while True:
        if e and levelset_mask(e, depth, m) == lv_c_m:
            lv_e = [levelset_mask(e, depth, lv) for lv in range(depth + 1)]
            for ell in range(m, kk + 1):
                if not dense_mask(e, depth, ell):
                    continue
                if _compat_masks(e, ell, bmask, n, projections(depth)):
                    continue
                checked += 1
                if not any(
                    e & ~mem == 0
                    for lp in range(m, ell + 1)
                    for mem in buckets.get((lp, lv_e[lp]), ())
                ):
                    uncovered.append(PCondition(ClopenSet(depth, e), ell))
        if e == 0:
            break
        e = (e - 1) & cmask
    return OracleReport(bad_members, tuple(uncovered), checked)
