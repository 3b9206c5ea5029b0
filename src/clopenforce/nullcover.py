"""Summable level covers and the splice-trap avoidance combinatorics.

A level cover lists (n_m, Z_m) with Z_m a set of level-n_m nodes; the
covered null set is "hit Z_m at infinitely many m", finitized here to
explicit index sets plus an exact tail budget.  The second half implements
interval partitions with trap sets, sparse point selection, the four-way
splice closure of a trap set, and the branch-versus-trap avoidance check
for block trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .cantor import LevelSet, lift_mask, node_bits, positions
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
    |Z_m| <= 2^(n_m - m) that make the sum dominated by a geometric tail."""
    total = Fraction(0)
    ok = []
    for m, (n, z) in enumerate(cover.entries):
        size = z.mask.bit_count()
        total += Fraction(size, 1 << n)
        ok.append(size << m <= 1 << n)
    return BudgetReport(total, tuple(ok))


def union_measure(cover: LevelCover, S: Iterable[int]) -> Fraction:
    """Measure of "hit Z_m for some m in S", by inclusion-exclusion over
    the lifted cylinder sets at the deepest participating level."""
    ms = sorted(set(S))
    if not ms:
        return Fraction(0)
    if any(not 0 <= m < len(cover.entries) for m in ms):
        raise ValueError("index set off the cover")
    if len(ms) > 20:
        raise ValueError("inclusion-exclusion restricted to <= 20 indices")
    depth = max(cover.entries[m][0] for m in ms)
    lifted = [
        lift_mask(cover.entries[m][1].mask, cover.entries[m][0], depth) for m in ms
    ]
    total = Fraction(0)
    for bits in range(1, 1 << len(ms)):
        inter = (1 << (1 << depth)) - 1
        for j in range(len(ms)):
            if bits >> j & 1:
                inter &= lifted[j]
        term = Fraction(inter.bit_count(), 1 << depth)
        total += term if bits.bit_count() % 2 else -term
    return total


@dataclass(frozen=True)
class IntervalPartition:
    """Consecutive finite intervals [lo, hi) tiling an initial segment,
    each carrying a trap set of strings indexed by the interval."""

    intervals: tuple[tuple[int, int], ...]
    traps: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        if len(self.intervals) != len(self.traps):
            raise ValueError("one trap set per interval")
        expected_lo = 0
        for (lo, hi), J in zip(self.intervals, self.traps):
            if lo != expected_lo or hi <= lo:
                raise ValueError(f"bad interval [{lo}, {hi})")
            expected_lo = hi
            for s in J:
                if len(s) != hi - lo or any(ch not in "01" for ch in s):
                    raise ValueError(f"trap {s!r} does not index [{lo}, {hi})")

    def summability(self) -> Fraction:
        return sum(
            (
                Fraction(len(J), 1 << (hi - lo))
                for (lo, hi), J in zip(self.intervals, self.traps)
            ),
            Fraction(0),
        )

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

    def blocks(self) -> list[tuple[int, int]]:
        return [
            (a, b)
            for a, b in zip(self.d, self.d[1:])
            if b <= self.depth
        ]


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
