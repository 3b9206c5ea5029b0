"""Summable level covers and the splice-trap avoidance combinatorics.

A level cover lists (n_m, Z_m) with Z_m a set of level-n_m nodes; the
covered null set is "hit Z_m at infinitely many m", finitized here to
explicit index sets plus an exact tail budget.  The second half implements
interval partitions with trap sets, sparse point selection, the four-way
splice closure of a trap set, and the branch-versus-trap avoidance check
for block trees.  It works on integer segments: each trap string is checked
and read once, by `_segments`, splices are XORs and the branches of a block
tree are one mask built by shifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Sequence

from .cantor import LevelSet, check_depth, lift_mask, node_bits, positions
from .errors import SelectionExhausted

__all__ = [
    "AvoidanceReport",
    "BlockTree",
    "BudgetReport",
    "IntervalPartition",
    "LevelCover",
    "avoidance_check",
    "block_tree_branches",
    "budget",
    "kn_set",
    "select_sparse",
    "union_measure",
    "union_scope",
]


@dataclass(frozen=True)
class LevelCover:
    entries: tuple[tuple[int, LevelSet], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            return
        n0, z0 = self.entries[0]
        if n0 != 0 or z0.level != 0 or z0.mask != 0:
            raise ValueError("a cover starts with level 0 and an empty set")
        prev = -1
        for n, z in self.entries:
            if n <= prev:
                raise ValueError("levels must increase strictly")
            if z.level != n:
                raise ValueError(f"set at index {n} lives at the wrong level")
            prev = n


@dataclass(frozen=True)
class BudgetReport:
    total: Fraction
    sizes_ok: tuple[bool, ...]

    @property
    def ok(self) -> bool:
        return all(self.sizes_ok)


def budget(cover: LevelCover) -> BudgetReport:
    """Exact tail sum of |Z_m| / 2^(n_m), plus the per-index size checks
    |Z_m| <= 2^(n_m - m) that make the sum dominated by a geometric tail.

    The sum is taken in integers over 2^(deepest level) and made one
    `Fraction` at the end."""
    top = max((n for n, _ in cover.entries), default=0)
    sizes = [(n, z.mask.bit_count()) for n, z in cover.entries]
    total = sum(size << top - n for n, size in sizes)
    ok = tuple(size << m <= 1 << n for m, (n, size) in enumerate(sizes))
    return BudgetReport(Fraction(total, 1 << top), ok)


def union_scope(cover: LevelCover, S: Iterable[int]) -> tuple[list[int], int]:
    """The distinct indices of S, ascending, and the level union_measure
    works at: the deepest of their entries (0 for none).  An index off the
    cover is a ValueError."""
    ms = sorted(set(S))
    if any(not 0 <= m < len(cover.entries) for m in ms):
        raise ValueError("index set off the cover")
    return ms, max((cover.entries[m][0] for m in ms), default=0)


def union_measure(cover: LevelCover, S: Iterable[int]) -> Fraction:
    """Measure of "hit Z_m for some m in S", by inclusion-exclusion over
    the lifted cylinder sets at the deepest participating level.

    The index subsets are walked depth-first: each term is its parent's
    intersection ANDed with one more lifted set, and the signed leaf counts
    are summed as ints, made one `Fraction` at the end.  An empty
    intersection empties every term below it, so its subtree is skipped;
    a null cover's small sets make most deep terms empty."""
    ms, depth = union_scope(cover, S)
    if not ms:
        return Fraction(0)
    if len(ms) > 20:
        raise ValueError("inclusion-exclusion restricted to <= 20 indices")
    lifted = [
        lift_mask(cover.entries[m][1].mask, cover.entries[m][0], depth) for m in ms
    ]

    def terms(inter: int, start: int) -> int:
        """Signed leaf counts of inter ANDed with each nonempty set of the
        lifted masks from start on, + for odd sizes, - for even."""
        total = 0
        for j in range(start, len(lifted)):
            term = inter & lifted[j]
            if term:
                total += term.bit_count() - terms(term, j + 1)
        return total

    return Fraction(terms(-1, 0), 1 << depth)  # -1: every bit set


def _segments(strings: Iterable[str], lo: int, hi: int) -> set[int]:
    """The trap strings indexing [lo, hi), as (hi - lo)-bit integers."""
    out = set()
    for s in strings:
        if len(s) != hi - lo or any(ch not in "01" for ch in s):
            raise ValueError(f"trap {s!r} does not index [{lo}, {hi})")
        out.add(int(s, 2))
    return out


@dataclass(frozen=True)
class IntervalPartition:
    """Consecutive finite intervals [lo, hi) tiling an initial segment,
    each carrying a trap set of strings indexed by the interval."""

    intervals: tuple[tuple[int, int], ...]
    traps: tuple[Collection[str], ...]

    def __post_init__(self) -> None:
        if len(self.intervals) != len(self.traps):
            raise ValueError("one trap set per interval")
        expected_lo = 0
        for (lo, hi), J in zip(self.intervals, self.traps):
            if lo != expected_lo or hi <= lo:
                raise ValueError(f"bad interval [{lo}, {hi})")
            expected_lo = hi
            _segments(J, lo, hi)

    def summability(self) -> Fraction:
        """Sum of |J| / 2^(hi - lo), in integers over 2^(widest interval)."""
        top = max((hi - lo for lo, hi in self.intervals), default=0)
        total = sum(
            len(J) << top - (hi - lo) for (lo, hi), J in zip(self.intervals, self.traps)
        )
        return Fraction(total, 1 << top)

    def interval_index(self, x: int) -> int | None:
        for idx, (lo, hi) in enumerate(self.intervals):
            if lo <= x < hi:
                return idx
        return None


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
        keys = [(pi, idx) for pi, part in enumerate(parts)
                if (idx := part.interval_index(x)) is not None]
        if used.isdisjoint(keys):
            chosen.append(x)
            used.update(keys)
    if count is not None and len(chosen) < count:
        raise SelectionExhausted(f"kept {len(chosen)} of {count} requested points")
    return chosen


def kn_set(J: Iterable[str], interval: tuple[int, int], i_point: int) -> frozenset[str]:
    """Four-way splice closure of a trap set at the split point.

    A string lands in K when it, its flip, or either of its two splices at
    i_point (flip one side only) lands in J.  The four maps are
    involutions, so K is the union of the four images of J: a segment XORed
    with nothing, with all ones, with the ones after the cut and with the
    ones up to it.
    """
    lo, hi = interval
    if not lo <= i_point < hi:
        raise ValueError("split point must lie inside the interval")
    segments = _segments(J, lo, hi)
    if not segments:  # then no checked string bounds hi - lo, the masks' width
        return frozenset()
    ones, after = (1 << hi - lo) - 1, (1 << hi - i_point) - 1
    spec = f"0{hi - lo}b"  # node_bits' format, built once rather than per image
    return frozenset([format(y, spec) for x in segments
                      for y in (x, x ^ ones, x ^ after, x ^ ones ^ after)])


@dataclass(frozen=True)
class BlockTree:
    """Finite tree of reals agreeing with r or its flip on each block cut
    by the boundary list d (d[0] = 0; depth must be a boundary)."""

    r: str
    d: tuple[int, ...]
    depth: int

    def __post_init__(self) -> None:
        if any(ch not in "01" for ch in self.r):
            raise ValueError("r must be a binary string")
        if not self.d or self.d[0] != 0:
            raise ValueError("boundaries must start at 0")
        if any(b <= a for a, b in zip(self.d, self.d[1:])):
            raise ValueError("boundaries must increase strictly")
        if self.depth > len(self.r):
            raise ValueError("depth exceeds the provided prefix of r")
        if self.depth not in self.d:
            raise ValueError("depth not aligned to a block boundary")
        check_depth(self.depth, "level")

    def blocks(self) -> list[tuple[int, int]]:
        return [
            (a, b)
            for a, b in zip(self.d, self.d[1:])
            if b <= self.depth
        ]


def block_tree_branches(tree: BlockTree) -> LevelSet:
    """All strings matching r or its flip blockwise: 2^#blocks branches,
    one mask built from the last block up (putting a block's value a in
    front of every `width`-bit suffix shifts the mask by a << width)."""
    mask, width = 1, 0
    for lo, hi in reversed(tree.blocks()):
        a = int(tree.r[lo:hi], 2)
        flip = a ^ ((1 << hi - lo) - 1)
        mask = mask << (a << width) | mask << (flip << width)
        width += hi - lo
    return LevelSet(tree.depth, mask)


@dataclass(frozen=True)
class AvoidanceReport:
    counterexamples: tuple[tuple[str, int], ...]
    misaligned_intervals: tuple[int, ...]
    branches: int
    trap_hits: int

    @property
    def ok(self) -> bool:
        return not self.counterexamples


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
    # per interval inside the tree: (idx, shift, width mask, traps, whether
    # K registers r's segment)
    active = []
    misaligned = []
    for idx, (lo, hi) in enumerate(part.intervals):
        k_segments = _segments(K[idx], lo, hi)
        if hi > tree.depth:
            continue
        point = sparse_points[idx]
        if not lo <= point < hi:
            raise ValueError(f"split point for interval {idx} outside [{lo}, {hi})")
        if any(lo < b < hi and b != point for b in tree.d):
            misaligned.append(idx)
        active.append((idx, tree.depth - hi, (1 << hi - lo) - 1,
                       _segments(part.traps[idx], lo, hi),
                       int(tree.r[lo:hi], 2) in k_segments))
    counterexamples: list[tuple[str, int]] = []
    hits = 0
    branch_mask = block_tree_branches(tree).mask
    for branch in positions(branch_mask):
        for idx, shift, width_mask, traps, registered in active:
            if (branch >> shift & width_mask) in traps:
                hits += 1
                if not registered:
                    counterexamples.append((node_bits(branch, tree.depth), idx))
    return AvoidanceReport(
        tuple(counterexamples),
        tuple(misaligned),
        branch_mask.bit_count(),
        hits,
    )
