"""Shared test helpers: tree-automorphism orbit reduction for exhaustive
sweeps, by a canonical form built bottom-up from the two halves' (no group
or per-automorphism table, so depth 4 costs as little per mask as depth 3),
seeded random generators for posets, weight families, and trap instances,
a table check for validated-input failures, and a counter of condition
constructions."""

from __future__ import annotations

import contextlib
import functools
import random
from collections import Counter
from fractions import Fraction

import pytest

from clopenforce import perfectposet
from clopenforce.cantor import ClopenSet, LevelSet, density_ok
from clopenforce.coverlemmas import WeightFamily
from clopenforce.nullcover import BlockTree, IntervalPartition
from clopenforce.perfectposet import PCondition
from clopenforce.soft import FinitePoset

import nullcover_restated


# ------------------------------------------------------- tree automorphisms


def canon_sweep():
    """A canonical form for pairs of masks, with a cache of its own: take one
    per sweep, and the cache goes when the sweep drops it (the depth-3 pair
    sweep fills 65,301 entries, which a module-wide cache would keep for the
    whole session).

    canon(depth, first, second) is the least (first, second) image under
    simultaneous tree automorphisms: each half's least image, the smaller on
    top, as a mask compares by its high half first (the tree-isomorphism
    codes of Aho, Hopcroft and Ullman)."""

    @functools.cache
    def canon(depth: int, first: int, second: int) -> tuple[int, int]:
        if depth == 0:
            return first, second
        half = 1 << depth - 1
        (f1, f0), (s1, s0) = divmod(first, 1 << half), divmod(second, 1 << half)
        high, low = sorted((canon(depth - 1, f0, s0), canon(depth - 1, f1, s1)))
        return low[0] | high[0] << half, low[1] | high[1] << half

    return canon


def automorphism(mask: int, depth: int, g: int) -> int:
    """mask under the tree automorphism swapping the subtrees of the internal
    nodes set in g: bit 0 the root, then the low subtree's, then the high's."""
    if depth == 0:
        return mask
    half = 1 << depth - 1
    high, low = divmod(mask, 1 << half)
    high_g, low_g = divmod(g >> 1, 1 << half - 1)  # half - 1 nodes per subtree
    low, high = automorphism(low, depth - 1, low_g), automorphism(high, depth - 1, high_g)
    if g & 1:
        low, high = high, low
    return low | high << half


def pair_orbits(conds: list[PCondition]) -> dict[tuple, tuple]:
    """Each orbit of ordered pairs of conds (levels are fixed by every
    automorphism), keyed by its canonical form, to its first (b, c)."""
    reps: dict[tuple, tuple] = {}
    canon = canon_sweep()
    for b in conds:
        for c in conds:
            key = (b.n, c.n, *canon(b.B.depth, b.B.mask, c.B.mask))
            reps.setdefault(key, (b, c))
    return reps


# ------------------------------------------------------------- generators


def random_poset(rng: random.Random, max_elems: int = 6) -> FinitePoset:
    n = rng.randint(1, max_elems)
    ids = [f"e{i}" for i in range(n)] + ["top"]
    order = ids[:-1]
    rng.shuffle(order)
    pairs = []
    for i, low in enumerate(order):
        for high in order[i + 1 :]:
            if rng.random() < 0.4:
                pairs.append((low, high))
    # transitive closure over the random ranking
    closed = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(closed):
            for c, d in list(closed):
                if b == c and (a, d) not in closed and a != d:
                    closed.add((a, d))
                    changed = True
    return FinitePoset(ids, closed, "top")


def chain_heights(poset: FinitePoset, rng: random.Random | None = None) -> dict:
    """Longest-chain-to-top heights, optionally rescaled; order-reversing."""
    h = {poset.top: 0}
    remaining = [e for e in poset.elements if e != poset.top]
    while remaining:
        for e in list(remaining):
            uppers = [
                u for u in poset.elements if u != e and poset.leq(e, u)
            ]
            if all(u in h for u in uppers):
                h[e] = 1 + max((h[u] for u in uppers), default=-1)
                remaining.remove(e)
    if rng is not None:
        scale = rng.randint(1, 3)
        offset = rng.randint(0, 2)
        h = {e: scale * v + offset for e, v in h.items()}
    return h


def greedy_max_antichain(poset, rng: random.Random) -> list:
    """Elements in a seeded random order, each kept when it is incompatible
    with all kept so far (read off the poset's compatibility rows)."""
    order = list(range(len(poset.elements)))
    rng.shuffle(order)
    rows = poset.compat_rows()
    chosen, reach = [], 0
    for i in order:
        if not reach >> i & 1:
            chosen.append(poset.elements[i])
            reach |= rows[i]
    return chosen


def random_weight_family(
    rng: random.Random,
    n_max: int = 3,
    k_max: int = 4,
    sets_max: int = 8,
) -> WeightFamily:
    n = rng.randint(1, n_max)
    width = 1 << n
    k = rng.randint(1, min(k_max, width))
    # hit set of at least k nodes
    zsize = rng.randint(k, width)
    znodes = rng.sample(range(width), zsize)
    zmask = 0
    for j in znodes:
        zmask |= 1 << j
    weights = {}
    for _ in range(rng.randint(0, sets_max)):
        core = rng.sample(znodes, k)
        tmask = 0
        for j in core:
            tmask |= 1 << j
        for j in range(width):
            if rng.random() < 0.3:
                tmask |= 1 << j
        weights[tmask] = Fraction(rng.randint(0, 12), rng.randint(1, 9))
    return WeightFamily(n, k, LevelSet(n, zmask), tuple(weights.items()))


def random_shrink_family(rng: random.Random, n: int, k: int) -> WeightFamily:
    """Family on the full level with every weighted set of size >= k."""
    width = 1 << n
    full = (1 << width) - 1
    weights = {}
    for _ in range(rng.randint(1, 8)):
        core = rng.sample(range(width), k)
        tmask = 0
        for j in core:
            tmask |= 1 << j
        for j in range(width):
            if rng.random() < 0.2:
                tmask |= 1 << j
        weights[tmask] = Fraction(rng.randint(1, 12), rng.randint(1, 9))
    return WeightFamily(n, k, LevelSet(n, full), tuple(weights.items()))


def random_pprime_condition(
    rng: random.Random, depth: int, max_leaves: int = 12
) -> PCondition:
    while True:
        mask = 0
        for _ in range(rng.randint(1, max_leaves)):
            mask |= 1 << rng.randrange(1 << depth)
        n = rng.randint(0, depth)
        B = ClopenSet(depth, mask)
        if density_ok(B, n):
            return PCondition(B, n)


def random_bits(rng: random.Random, width: int) -> str:
    return "".join(rng.choice("01") for _ in range(width))


def random_block_tree(rng: random.Random, max_depth: int = 12) -> BlockTree:
    """A tree over a random r whose boundaries may run past its depth."""
    r = random_bits(rng, rng.randint(1, max_depth))
    cuts = rng.sample(range(1, len(r) + 4), rng.randint(0, min(6, len(r) + 3)))
    d = sorted({0, len(r), *cuts})
    inside = [b for b in d if b <= len(r)]
    depth = len(r) if rng.random() < 0.7 else rng.choice(inside)
    return BlockTree(r, tuple(d), depth)


def random_trap_instance(rng: random.Random, depth: int):
    """An avoidance instance shaped like the acceptance criterion's, then
    varied so every report field moves: the tree may end before the last
    interval, split points may move off the tree's cuts (misaligned
    intervals), traps may be empty, and each K is the splice closure
    thinned at random (counterexamples).  Built from the restated
    functions, so the instance does not depend on the code under test.
    Returns (tree, partition, K, points)."""
    cuts = sorted(rng.sample(range(1, depth), rng.randint(1, min(4, depth - 1))))
    bounds = [0, *cuts, depth]
    intervals = tuple(zip(bounds, bounds[1:]))
    points = [rng.randrange(lo, hi) for lo, hi in intervals]
    end = depth if rng.random() < 0.7 else rng.choice(bounds)
    d = sorted({0, end, *(p for p in points if 0 < p < end)})
    tree = BlockTree(random_bits(rng, depth), tuple(d), end)
    branches = nullcover_restated.block_tree_branches(tree).nodes()
    points = [p if rng.random() < 0.8 else rng.randrange(lo, hi)
              for p, (lo, hi) in zip(points, intervals)]
    traps = []
    for lo, hi in intervals:
        trap = {random_bits(rng, hi - lo) for _ in range(rng.randint(0, 2))}
        if hi <= end and rng.random() < 0.6:
            trap.add(rng.choice(branches)[lo:hi])  # a real hit
        traps.append(frozenset(trap))
    K = []
    for trap, interval, p in zip(traps, intervals, points):
        closure = nullcover_restated.kn_set(trap, interval, p)
        keep = 1.0 if rng.random() < 0.5 else rng.random()
        K.append(frozenset(s for s in closure if rng.random() < keep))
    return tree, IntervalPartition(intervals, tuple(traps)), K, points


# ------------------------------------------------------- input validation


def assert_value_errors(cases) -> None:
    """Each (call, message) pair: call() raises a plain ValueError whose
    text is exactly message."""
    for make, message in cases:
        with pytest.raises(ValueError) as raised:
            make()
        assert type(raised.value) is ValueError, message
        assert str(raised.value) == message


# ---------------------------------------------------- construction counts


@contextlib.contextmanager
def counting_builds():
    """While the block runs, count the conditions built, before they are
    validated, in the yielded Counter keyed by depth: one per
    `PCondition.__init__` call and one per member of a batch built by
    `perfectposet._conditions`."""
    builds = Counter()
    init, batch = PCondition.__init__, perfectposet._conditions

    def counted(self, B, n):
        builds[B.depth] += 1
        init(self, B, n)

    def counted_batch(sets, n):
        if sets:
            builds[sets[0].depth] += len(sets)
        return batch(sets, n)

    PCondition.__init__, perfectposet._conditions = counted, counted_batch
    try:
        yield builds
    finally:
        PCondition.__init__, perfectposet._conditions = init, batch
