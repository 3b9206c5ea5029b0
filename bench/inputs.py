"""Seeded input generators for the benchmark workloads.

Everything here depends only on the seed string it is given and on the
condition lists the library enumerates, never on the test suite's helpers,
so a refactor of `tests/` cannot move the benchmark's inputs.  Generation
runs outside every timed region.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from clopenforce.cantor import ClopenSet, LevelSet
from clopenforce.coverlemmas import WeightFamily
from clopenforce.diagonal import ParamSchedule
from clopenforce.nullcover import BlockTree, IntervalPartition, LevelCover
from clopenforce.perfectposet import PCondition


def rng_for(*parts) -> random.Random:
    """A generator keyed by a string, so the stream is stable across runs."""
    return random.Random(":".join(str(p) for p in parts))


# ------------------------------------------------------- tree automorphisms


def leaf_permutations(depth: int) -> list[tuple[int, ...]]:
    """Leaf permutations induced by the automorphisms of the full binary
    tree of this depth: swap the two subtrees or not, then act inside each."""
    if depth == 0:
        return [(0,)]
    inner = leaf_permutations(depth - 1)
    half = 1 << (depth - 1)
    out = []
    for left in inner:
        for right in inner:
            for swap in (0, 1):
                out.append(
                    tuple(
                        ((side ^ swap) * half) + (right if side else left)[r]
                        for side in (0, 1)
                        for r in range(half)
                    )
                )
    return out


def mask_actions(depth: int) -> list[list[int]]:
    """Per automorphism, its action on every leaf mask as a lookup table."""
    size = 1 << (1 << depth)
    tables = []
    for perm in leaf_permutations(depth):
        table = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            table[mask] = table[mask ^ low] | (1 << perm[low.bit_length() - 1])
        tables.append(table)
    return tables


def pair_orbits(conds, tables) -> list[tuple[int, int, int, int]]:
    """One canonical (b.n, c.n, b mask, c mask) per orbit of ordered pairs
    under simultaneous tree automorphisms (levels are fixed by all of them)."""
    canon: dict[int, tuple[int, list[int]]] = {}
    for mask in {c.B.mask for c in conds}:
        images = [t[mask] for t in tables]
        best = min(images)
        canon[mask] = (best, [t for t, img in zip(tables, images) if img == best])
    keys = set()
    for b in conds:
        best, movers = canon[b.B.mask]
        for c in conds:
            keys.add((b.n, c.n, best, min(t[c.B.mask] for t in movers)))
    return sorted(keys)


def orbit_pass(orbits, tables, depth: int, rng: random.Random):
    """Every orbit once, each through a seeded automorphism image, shuffled."""
    pairs = []
    for bn, cn, bm, cm in orbits:
        t = rng.choice(tables)
        pairs.append(
            (PCondition(ClopenSet(depth, t[bm]), bn), PCondition(ClopenSet(depth, t[cm]), cn))
        )
    rng.shuffle(pairs)
    return pairs


# ------------------------------------------------------ depth-4 pair sample


def popcount_quotas(conds, size: int) -> dict[int, tuple[list[int], int]]:
    """Condition indices grouped by the node count of their set, with the
    number of pairs each group gets in a sample of `size` (largest
    remainder).  Oracle cost grows as 2^(node count), so fixed quotas keep
    the work per sample nearly seed-independent."""
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(conds):
        groups.setdefault(c.B.mask.bit_count(), []).append(i)
    total = len(conds)
    exact = {k: size * len(v) / total for k, v in groups.items()}
    quota = {k: int(x) for k, x in exact.items()}
    for k in sorted(exact, key=lambda k: quota[k] - exact[k])[: size - sum(quota.values())]:
        quota[k] += 1
    return {k: (groups[k], quota[k]) for k in sorted(groups) if quota[k]}


def random_automorphism(depth: int, rng: random.Random) -> list[int]:
    """Leaf permutation of a uniformly random tree automorphism: each of the
    2^depth - 1 internal nodes swaps its two subtrees or not."""
    swaps = [rng.getrandbits(1) for _ in range((1 << depth) - 1)]
    perm = []
    for leaf in range(1 << depth):
        image, node = 0, 0  # node indexes internal nodes in heap order
        for level in range(depth):
            bit = leaf >> (depth - 1 - level) & 1
            image = image << 1 | (bit ^ swaps[node])
            node = 2 * node + 1 + bit
        perm.append(image)
    return perm


def _moved(cond: PCondition, perm: list[int]) -> PCondition:
    mask, out = cond.B.mask, 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return PCondition(ClopenSet(cond.B.depth, out), cond.n)


def pair_sample(conds, quotas, base: random.Random, rng: random.Random):
    """Pairs (b, c): c drawn by `base` with the fixed per-group quotas, b
    uniform; then each pair moved by an automorphism drawn from `rng`, and
    shuffled.  The construction and the oracle are equivariant and their
    work is invariant under automorphisms, so `base` fixes the cost of the
    sample and `rng` only picks which members of the orbits are checked."""
    pairs = []
    depth = conds[0].B.depth
    for members, count in quotas.values():
        for _ in range(count):
            b, c = conds[base.randrange(len(conds))], conds[base.choice(members)]
            perm = random_automorphism(depth, rng)
            pairs.append((_moved(b, perm), _moved(c, perm)))
    rng.shuffle(pairs)
    return pairs


# ----------------------------------------------------------- desk softness


def greedy_antichain(rows: list[int], rng: random.Random) -> list[int]:
    """Indices of a maximal antichain: scan a seeded order, keep what is
    incompatible with everything kept so far (one AND per candidate)."""
    order = list(range(len(rows)))
    rng.shuffle(order)
    chosen, mask = [], 0
    for i in order:
        if rows[i] & mask == 0:
            chosen.append(i)
            mask |= 1 << i
    return chosen


# ----------------------------------------------------------- lemma inputs


def own_epsilon(k: int, k_prime: int) -> Fraction:
    """eps(k, k') restated from its definition, 2^(1-k) sum_{j<k'} C(k, j)."""
    return Fraction(2 * sum(comb(k, j) for j in range(k_prime)), 1 << k)


def own_schedule(eps: Fraction, m: int) -> list[int]:
    """Thresholds k_0 = 1 and k_{i+1} the least k > k_i with eps(k, k_i) <= eps/m."""
    ks = [1]
    for _ in range(m):
        k = ks[-1] + 1
        while own_epsilon(k, ks[-1]) > eps / m:
            k += 1
        ks.append(k)
    return ks


def _mask(nodes) -> int:
    out = 0
    for j in nodes:
        out |= 1 << j
    return out


def goodness_instance(rng: random.Random, zsize: int):
    """(Z, T, k') at level 4 with |T & Z| = k exactly; returns k too."""
    k = rng.randint(1, min(6, zsize))
    kp = rng.randint(1, k)
    znodes = rng.sample(range(16), zsize)
    tmask = _mask(rng.sample(znodes, k))
    for j in range(16):
        if j not in znodes and rng.random() < 0.3:
            tmask |= 1 << j
    return LevelSet(4, _mask(znodes)), tmask, kp, k


def weight_family(rng: random.Random, n: int) -> tuple[WeightFamily, int]:
    """A family at level n with a random hit set, plus a k' to halve with."""
    width = 1 << n
    k = rng.randint(1, min(4, width))
    znodes = rng.sample(range(width), rng.randint(k, width))
    weights = {}
    for _ in range(rng.randint(1, 8)):
        tmask = _mask(rng.sample(znodes, k))
        for j in range(width):
            if rng.random() < 0.3:
                tmask |= 1 << j
        weights[tmask] = Fraction(rng.randint(0, 12), rng.randint(1, 9))
    fam = WeightFamily(n, k, LevelSet(n, _mask(znodes)), tuple(weights.items()))
    return fam, rng.randint(1, k)


def shrink_family(rng: random.Random, m: int) -> tuple[WeightFamily, Fraction]:
    """A full-level family at n = 4 whose k meets the schedule for (eps, m)."""
    eps = rng.choice((Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)))
    k = own_schedule(eps, m)[m]
    weights = {}
    for _ in range(rng.randint(1, 8)):
        tmask = _mask(rng.sample(range(16), k))
        for j in range(16):
            if rng.random() < 0.2:
                tmask |= 1 << j
        weights[tmask] = Fraction(rng.randint(1, 12), rng.randint(1, 9))
    return WeightFamily(4, k, LevelSet(4, (1 << 16) - 1), tuple(weights.items())), eps


def param_schedule(rng: random.Random) -> ParamSchedule:
    m = rng.randint(1, 5)
    z = tuple(rng.randint(2, 60) for _ in range(m))
    return ParamSchedule(
        m,
        Fraction(rng.randint(1, 40), rng.randint(41, 99)),
        z,
        tuple(4 * zj for zj in z[:-1]),
        Fraction(rng.randint(0, 30), rng.randint(31, 99)),
        rng.randint(1, 50),
    )


def conforming_cover(rng: random.Random) -> LevelCover:
    """A level cover with two to four nonempty Z_m, |Z_m| <= 2^(n_m - m)."""
    entries = [(0, LevelSet(0, 0))]
    n = 0
    for m in range(1, rng.randint(3, 5)):
        n += rng.randint(1, 3)
        size = rng.randint(1, min(1 << (n - m) if n >= m else 1, 8))
        entries.append((n, LevelSet(n, _mask(rng.sample(range(1 << n), size)))))
    return LevelCover(tuple(entries))


def block_branches(r: str, d: tuple[int, ...]) -> list[int]:
    """Strings agreeing blockwise with r or its flip on the blocks cut by
    the boundaries d, as integers of d[-1] bits."""
    branches = [0]
    for lo, hi in zip(d, d[1:]):
        w = hi - lo
        block = int(r[lo:hi], 2)
        flip = block ^ ((1 << w) - 1)
        branches = [b << w | block for b in branches] + [b << w | flip for b in branches]
    return branches


def trap_instance(rng: random.Random, depth: int):
    """A block tree cut only at sparse points, an interval partition whose
    traps are partly planted on real branches, and the trap-hit count
    restated by direct enumeration."""
    cuts = sorted(rng.sample(range(1, depth), rng.randint(1, min(4, depth - 1))))
    bounds = [0] + cuts + [depth]
    intervals = tuple(zip(bounds, bounds[1:]))
    candidates = [x for x in range(depth) if rng.random() < 0.6]
    sparse = [next((x for x in candidates if lo <= x < hi), None) for lo, hi in intervals]
    points = [lo if x is None else x for x, (lo, _) in zip(sparse, intervals)]
    d = tuple(sorted({0, depth, *(x for x in sparse if x is not None and 0 < x < depth)}))
    r = "".join(rng.choice("01") for _ in range(depth))
    branches = block_branches(r, d)
    traps = []
    for lo, hi in intervals:
        trap = {"".join(rng.choice("01") for _ in range(hi - lo)) for _ in range(rng.randint(0, 2))}
        if rng.random() < 0.6:
            seg = rng.choice(branches) >> (depth - hi) & ((1 << (hi - lo)) - 1)
            trap.add(format(seg, f"0{hi - lo}b"))
        traps.append(frozenset(trap))
    hits = sum(
        1
        for b in branches
        for (lo, hi), trap in zip(intervals, traps)
        if format(b >> (depth - hi) & ((1 << (hi - lo)) - 1), f"0{hi - lo}b") in trap
    )
    tree = BlockTree(r, d, depth)
    return tree, IntervalPartition(intervals, tuple(traps)), points, hits
