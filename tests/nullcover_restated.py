"""The former trap half of `nullcover`, restated over strings as the
normative reference for `kn_set`, `block_tree_branches`, `avoidance_check`
and `select_sparse`.

`kn_set` here splices and flips strings; the library's XORs integer
segments.  `block_tree_branches` here lists every branch as an int and
ORs one bit per branch; the library's builds the mask by shifts, from the
last block up.  `avoidance_check` here converts traps, K sets and r's
segments into parallel lists; the library's makes one pass over the
intervals.  `select_sparse` here stops at the first blocked partition.
Each must give the same frozenset, `LevelSet`, `AvoidanceReport` or list
on every valid input.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from clopenforce.cantor import LevelSet, node_bits, positions
from clopenforce.errors import SelectionExhausted
from clopenforce.nullcover import AvoidanceReport, BlockTree, IntervalPartition


def select_sparse(
    S: Iterable[int],
    parts: Sequence[IntervalPartition],
    count: int | None = None,
) -> list[int]:
    """Greedy left-to-right thinning: keep a point only when no kept point
    already sits in its interval, for every listed partition."""
    chosen: list[int] = []
    used: set[tuple[int, int]] = set()
    for x in sorted(set(S)):
        if x < 0:
            raise ValueError("points must be nonnegative")
        keys = []
        blocked = False
        for pi, part in enumerate(parts):
            idx = part.interval_index(x)
            if idx is not None:
                if (pi, idx) in used:
                    blocked = True
                    break
                keys.append((pi, idx))
        if not blocked:
            chosen.append(x)
            used.update(keys)
    if count is not None and len(chosen) < count:
        raise SelectionExhausted(f"kept {len(chosen)} of {count} requested points")
    return chosen


def _flip(s: str) -> str:
    return "".join("1" if ch == "0" else "0" for ch in s)


def kn_set(J: Iterable[str], interval: tuple[int, int], i_point: int) -> frozenset[str]:
    """Four-way splice closure of a trap set at the split point.

    A string lands in K when it, its flip, or either of its two splices at
    i_point (flip one side only) lands in J.  The four maps are
    involutions, so K is the union of the four images of J.
    """
    lo, hi = interval
    if not lo <= i_point < hi:
        raise ValueError("split point must lie inside the interval")
    cut = i_point - lo
    width = hi - lo
    out: set[str] = set()
    for s in J:
        if len(s) != width or any(ch not in "01" for ch in s):
            raise ValueError(f"trap {s!r} does not index [{lo}, {hi})")
        out.add(s)
        out.add(_flip(s))
        out.add(s[:cut] + _flip(s[cut:]))
        out.add(_flip(s[:cut]) + s[cut:])
    return frozenset(out)


def block_tree_branches(tree: BlockTree) -> LevelSet:
    """All strings matching r or its flip blockwise: 2^#blocks branches."""
    branches = [0]
    for lo, hi in tree.blocks():
        w = hi - lo
        rblock = int(tree.r[lo:hi], 2)
        fblock = rblock ^ ((1 << w) - 1)
        branches = [b << w | rblock for b in branches] + [
            b << w | fblock for b in branches
        ]
    mask = 0
    for b in branches:
        mask |= 1 << b
    return LevelSet(tree.depth, mask)


def avoidance_check(
    tree: BlockTree,
    part: IntervalPartition,
    K: Sequence[Iterable[str]],
    sparse_points: Sequence[int],
) -> AvoidanceReport:
    """Whenever a branch falls into a trap on an interval, the base real's
    splice closure must register it.

    This is what makes trap avoidance transfer from the base real to every
    branch: block flips inside an interval happen only at its sparse point,
    so a branch restricted to the interval is one of the four splice images.
    Intervals cut by an off-point boundary are reported as misaligned.
    """
    if not len(part.intervals) == len(K) == len(sparse_points):
        raise ValueError("need one K set and one split point per interval")
    active = [
        (idx, lo, hi)
        for idx, (lo, hi) in enumerate(part.intervals)
        if hi <= tree.depth
    ]
    for idx, lo, hi in active:
        if not lo <= sparse_points[idx] < hi:
            raise ValueError(f"split point for interval {idx} outside [{lo}, {hi})")
    traps_int = [{int(s, 2) for s in J} if J else set() for J in part.traps]
    k_int = [{int(s, 2) for s in ks} for ks in K]
    r_int = [
        int(tree.r[lo:hi], 2) for idx, lo, hi in active
    ]
    misaligned = tuple(
        idx
        for idx, lo, hi in active
        if any(lo < b < hi and b != sparse_points[idx] for b in tree.d)
    )
    counterexamples: list[tuple[str, int]] = []
    hits = 0
    branch_mask = block_tree_branches(tree).mask
    for branch in positions(branch_mask):
        for pos, (idx, lo, hi) in enumerate(active):
            seg = (branch >> (tree.depth - hi)) & ((1 << (hi - lo)) - 1)
            if seg in traps_int[idx]:
                hits += 1
                if r_int[pos] not in k_int[idx]:
                    counterexamples.append((node_bits(branch, tree.depth), idx))
    return AvoidanceReport(
        tuple(counterexamples),
        misaligned,
        branch_mask.bit_count(),
        hits,
    )
