"""Single halving of a hit set and its m-fold iteration.

A weight family puts nonnegative rational masses on subsets T of one node
level, each meeting the current hit set Z in at least k nodes.  One
halving round finds Z' of at most half the size keeping all but an
eps(k, k') fraction of the mass hitting k' deep; iterating down a schedule
of k's shrinks Z geometrically while keeping nonempty intersection for
almost all mass.  Searches are exhaustive with a fixed order, so results
are reproducible across runs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .cantor import LevelSet, positions
from .errors import InsufficientK, LemmaViolated
from .numerics import epsilon, min_k_for

__all__ = [
    "MAX_HIT_NODES",
    "MAX_WEIGHTED_SETS",
    "WeightFamily",
    "halve_once",
    "schedule",
    "shrink",
    "split_goodness",
]


# A halving walks the subsets of Z up to half its size in (size, value)
# order and tests each against every weighted set.  The worst family built
# for these ceilings: two disjoint 11-node blocks of mass 1 (k = 11) and 62
# sets of mass 1/10^6 that each hold the first block and one node of the
# second.  At k' = 4 the search walks 284,912 candidates to its 8-node
# winner: `cover halve` takes 1.3 s cold (2-core Xeon VM, Python 3.11),
# 2.5 s with a 12-node second block and 2.9 s with 94 light sets.  Two
# 12-node blocks (k = 12, k' = 5) walk 2.6 million candidates.
MAX_HIT_NODES = 22
MAX_WEIGHTED_SETS = 64


def _gosper(width: int, size: int):
    """All width-bit masks of the given popcount, in ascending value."""
    if size == 0:
        yield 0
        return
    v = (1 << size) - 1
    top = 1 << width
    while v < top:
        yield v
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r


@dataclass(frozen=True)
class WeightFamily:
    """Masses on subsets T of level n, each T meeting Z in >= k nodes.

    A weight is an int or a `Fraction` (any `numbers.Rational`), never a
    float: the halving search reads each one's numerator and denominator.
    """

    n: int
    k: int
    Z: LevelSet
    weights: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("level must be nonnegative")
        if not 1 <= self.k <= (1 << self.n):
            raise ValueError("need 1 <= k <= 2^n")
        if self.Z.level != self.n:
            raise ValueError("hit set must live at the family's level")
        seen, width = set(), 1 << self.n
        for T, a in self.weights:
            if T < 0 or T.bit_length() > width:
                raise ValueError("weighted set out of range")
            if T in seen:
                raise ValueError("duplicate weighted set")
            seen.add(T)
            if not isinstance(a, numbers.Rational):
                raise ValueError(f"weight {a!r} is not an int or Fraction")
            if a < 0:
                raise ValueError("weights must be nonnegative")
            if (T & self.Z.mask).bit_count() < self.k:
                raise ValueError("every weighted set must meet Z in >= k nodes")

    def total(self) -> Fraction:
        return sum((a for _, a in self.weights), Fraction(0))


def hit_weight(W: WeightFamily, zmask: int, k_prime: int) -> Fraction:
    """Mass of the sets meeting zmask in at least k' nodes."""
    return sum(
        (a for T, a in W.weights if (T & zmask).bit_count() >= k_prime), Fraction(0)
    )


def _packed(mask: int, pos: list[int]) -> int:
    """mask's trace on the nodes pos lists, bit i for the node pos[i]."""
    return sum(1 << i for i, p in enumerate(pos) if mask >> p & 1)


def halve_once(W: WeightFamily, k_prime: int) -> LevelSet:
    """Smallest (then numerically least) Z' of size <= |Z|/2 keeping mass
    (1 - eps(k, k')) * total on sets still hit k' deep.

    A Z' of fewer than k' nodes hits no set k' deep, so its mass is 0 and
    it can win only when the target is at most 0.  The search therefore
    starts at size k' when the target is positive (and at size 0, where
    the empty set wins, otherwise); the sizes it skips hold no winner, so
    the result is the same as a search from size 0.

    The search is in integers.  Every weight is put over one denominator
    (the `math.lcm` of theirs), and with eps = p/q a candidate wins when
    its integer hit mass times q reaches (q - p) times the integer total.
    A candidate is a mask over Z's positions (bit i for Z's i-th node),
    and so is each weighted set's trace on Z, so a candidate's hits are
    popcounts of one AND each; only the winner is mapped back to nodes.

    A Z of more than MAX_HIT_NODES nodes or a family of more than
    MAX_WEIGHTED_SETS sets is a ValueError, raised before any candidate is
    tried.
    """
    nodes = W.Z.mask.bit_count()
    if nodes > MAX_HIT_NODES:
        raise ValueError(f"{nodes} hit-set nodes: halving stops at {MAX_HIT_NODES}")
    if len(W.weights) > MAX_WEIGHTED_SETS:
        raise ValueError(f"{len(W.weights)} weighted sets: halving stops at "
                         f"{MAX_WEIGHTED_SETS}")
    if not 1 <= k_prime <= W.k:
        raise ValueError("need 1 <= k' <= k")
    eps = epsilon(W.k, k_prime)
    p, q = eps.numerator, eps.denominator
    denom = math.lcm(*(a.denominator for _, a in W.weights))
    pos = positions(W.Z.mask)
    traces = [
        (_packed(T, pos), a.numerator * (denom // a.denominator))
        for T, a in W.weights
        if a  # a zero mass adds nothing to any candidate
    ]
    need = (q - p) * sum(c for _, c in traces)
    for size in range(k_prime if need > 0 else 0, len(pos) // 2 + 1):
        for cand in _gosper(len(pos), size):
            hit = 0
            for t, c in traces:
                if (t & cand).bit_count() >= k_prime:
                    hit += c
            if q * hit >= need:
                return LevelSet(W.n, sum(1 << pos[i] for i in positions(cand)))
    raise LemmaViolated(f"no half-size subset of Z keeps {1 - eps} of the mass")


def split_goodness(Z: LevelSet, T: int | LevelSet, k_prime: int) -> Fraction:
    """Exact fraction of subsets Z' of Z with both Z' and Z \\ Z' meeting T
    in at least k' nodes, the counting heart of the halving argument."""
    tmask = T.mask if isinstance(T, LevelSet) else T
    if k_prime < 0:
        raise ValueError("k' must be nonnegative")
    if k_prime == 0:
        return Fraction(1)
    if (tmask & Z.mask).bit_count() < k_prime:
        raise ValueError("T must meet Z in at least k' nodes")
    zmask = Z.mask
    if zmask.bit_count() > 20:
        raise ValueError("exhaustive count restricted to |Z| <= 20")
    good = 0
    sub = zmask
    while True:
        if (sub & tmask).bit_count() >= k_prime and (
            (zmask ^ sub) & tmask
        ).bit_count() >= k_prime:
            good += 1
        if sub == 0:
            break
        sub = (sub - 1) & zmask
    return Fraction(good, 1 << zmask.bit_count())


def schedule(eps_budget: Fraction, m: int) -> list[int]:
    """Thresholds k_0=1 < k_1 < ... < k_m with per-round loss <= eps/m.

    The product of the survival factors is checked exactly before
    returning; the per-round budget makes it at least 1 - eps.
    """
    eps_budget = Fraction(eps_budget)
    if not 0 < eps_budget < 1:
        raise ValueError("need 0 < eps < 1")
    if m < 1:
        raise ValueError("m must be positive")
    per_round = eps_budget / m
    ks = [1]
    for _ in range(m):
        ks.append(min_k_for(ks[-1], per_round))
    product = Fraction(1)
    for i in range(m):
        product *= 1 - epsilon(ks[i + 1], ks[i])
    if product < 1 - eps_budget:
        raise LemmaViolated(
            f"survival product {product} below 1 - eps = {1 - eps_budget}"
        )
    return ks


def shrink(W: WeightFamily, eps_budget: Fraction, m: int) -> LevelSet:
    """Halve the full node level m times down the schedule, ending with a
    set of at most 2^(n-m) nodes that still meets all but an eps fraction
    of the mass."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    full = (1 << (1 << W.n)) - 1
    if W.Z.mask != full:
        raise ValueError("shrink starts from the full level")
    if m == 0:
        return LevelSet(W.n, full)
    ks = schedule(eps_budget, m)
    if W.k < ks[m]:
        raise InsufficientK(f"family k={W.k} below required k_m={ks[m]}")
    zcur = full
    weights = W.weights
    for i in range(m, 0, -1):
        active = tuple(
            (T, a) for T, a in weights if (T & zcur).bit_count() >= ks[i]
        )
        step = WeightFamily(W.n, ks[i], LevelSet(W.n, zcur), active)
        zcur = halve_once(step, ks[i - 1]).mask
        weights = active
    return LevelSet(W.n, zcur)
