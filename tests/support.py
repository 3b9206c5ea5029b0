"""Shared test helpers: tree-automorphism orbit reduction for exhaustive
depth-3 sweeps, and seeded random generators for posets, weight families,
and trap instances."""

from __future__ import annotations

import random
from fractions import Fraction

from clopenforce.cantor import ClopenSet, LevelSet, density_ok
from clopenforce.coverlemmas import WeightFamily
from clopenforce.perfectposet import PCondition
from clopenforce.soft import FinitePoset


# ------------------------------------------------------- tree automorphisms


def tree_perms(depth: int) -> list[tuple[int, ...]]:
    """All leaf permutations induced by automorphisms of the full binary
    tree: optionally swap the subtrees, then act inside each."""
    if depth == 0:
        return [(0,)]
    sub = tree_perms(depth - 1)
    half = 1 << (depth - 1)
    out = []
    for g0 in sub:
        for g1 in sub:
            for s in (0, 1):
                perm = [0] * (2 * half)
                for b0 in (0, 1):
                    g = g0 if b0 == 0 else g1
                    for r in range(half):
                        perm[b0 * half + r] = ((b0 ^ s) * half) + g[r]
                out.append(tuple(perm))
    return out


def mask_tables(depth: int) -> list[list[int]]:
    """Per automorphism, the action on every mask (lookup tables)."""
    size = 1 << (1 << depth)
    tables = []
    for perm in tree_perms(depth):
        bit = [1 << perm[i] for i in range(len(perm))]
        table = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            table[mask] = table[mask & (mask - 1)] | bit[low.bit_length() - 1]
        tables.append(table)
    return tables


class PairOrbits:
    """Canonical forms of ordered mask pairs under simultaneous tree
    automorphisms; levels are fixed by every automorphism."""

    def __init__(self, depth: int):
        self.tables = mask_tables(depth)
        self._canon: dict[int, tuple[int, tuple[int, ...]]] = {}

    def canon_mask(self, mask: int) -> tuple[int, tuple[int, ...]]:
        cached = self._canon.get(mask)
        if cached is None:
            images = [t[mask] for t in self.tables]
            best = min(images)
            movers = tuple(g for g, img in enumerate(images) if img == best)
            cached = (best, movers)
            self._canon[mask] = cached
        return cached

    def canon_pair(self, first: int, second: int) -> tuple[int, int]:
        best, movers = self.canon_mask(first)
        return best, min(self.tables[g][second] for g in movers)

    def apply(self, g: int, cond: PCondition) -> PCondition:
        return PCondition(
            ClopenSet(cond.B.depth, self.tables[g][cond.B.mask]), cond.n
        )


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
