"""Acceptance suite: one test per criterion, exact tolerances, one PASS
line each (run with `pytest tests/test_acceptance.py -v -s` to see them).

The depth-3 sweep in criterion 4 is exhaustive via tree-automorphism orbit
reduction: every checked predicate is equivariant (spot-checked here), the
compatibility agreement runs unreduced over all pairs.
"""

import itertools
import random
import time
from fractions import Fraction

from kernel_restated import lift_by_strings
from support import (
    automorphism,
    chain_heights,
    greedy_max_antichain,
    pair_orbits,
    random_poset,
    random_shrink_family,
    random_weight_family,
)

from clopenforce import soft
from clopenforce.cantor import ClopenSet, LevelSet, full_set, measure
from clopenforce.coverlemmas import (
    halve_once,
    hit_weight,
    schedule,
    shrink,
    split_goodness,
)
from clopenforce.diagonal import (
    ParamSchedule,
    build_chain,
    find_params,
    validate_params,
    verify_chain,
    zeta,
)
from clopenforce.nullcover import (
    BlockTree,
    IntervalPartition,
    LevelCover,
    avoidance_check,
    block_tree_branches,
    budget,
    kn_set,
    select_sparse,
    union_measure,
)
from clopenforce.numerics import epsilon
from clopenforce.perfectposet import (
    DeskPoset,
    PCondition,
    compat_oracle,
    cover_oracle,
    enumerate_pprime,
    iterate_cover,
    main_cover,
    p_compatible,
    p_leq,
)
from clopenforce.soft import (
    FinitePoset,
    NameTable,
    check_height,
    escape_function,
    find_cover,
    product_cover,
    product_height_step,
    product_poset,
    random_height,
    star_witness,
    verify_cover,
)


def _report(num: int, limit: float, t0: float, detail: str) -> None:
    elapsed = time.monotonic() - t0
    print(f"criterion {num}: PASS ({elapsed:.1f}s < {limit:.0f}s) {detail}")
    assert elapsed < limit, f"criterion {num} over its {limit}s budget"


def test_criterion_1_epsilon_vs_counted_fraction():
    t0 = time.monotonic()
    checked = 0
    for zsize in range(1, 13):
        z = LevelSet(4, (1 << zsize) - 1)
        for k in range(1, min(6, zsize) + 1):
            tmask = (1 << k) - 1 | (1 << 15)  # one node outside Z is inert
            for kp in range(1, k + 1):
                frac = split_goodness(z, tmask, kp)
                eps = epsilon(k, kp)
                assert frac >= 1 - eps
                # the two one-sided tails are disjoint iff k >= 2k'-1, and
                # exactly there the counted bad fraction equals eps
                if k >= 2 * kp - 1:
                    assert 1 - frac == eps
                else:
                    assert 1 - frac < eps
                checked += 1
    _report(1, 60, t0, f"{checked} (|Z|, k, k') instances, exact")


def test_criterion_2_halving_lemma_finitization():
    t0 = time.monotonic()
    rng = random.Random(1002)
    for trial in range(500):
        fam = random_weight_family(rng, n_max=3, k_max=4, sets_max=8)
        kp = rng.randint(1, fam.k)
        z = halve_once(fam, kp)  # LemmaViolated would fail the test
        assert z.mask & ~fam.Z.mask == 0
        assert z.mask.bit_count() <= len(fam.Z) // 2
        assert hit_weight(fam, z.mask, kp) >= (1 - epsilon(fam.k, kp)) * fam.total()
    _report(2, 120, t0, "500 random weight families, exact bound")


def test_criterion_3_shrink_end_to_end():
    t0 = time.monotonic()
    rng = random.Random(1003)
    for trial in range(100):
        m = 1 + trial % 2
        eps = rng.choice((Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)))
        k = schedule(eps, m)[m]
        assert k <= 16, "family level too coarse for the schedule"
        fam = random_shrink_family(rng, 4, k)
        z = shrink(fam, eps, m)
        assert z.mask.bit_count() <= 1 << (4 - m)
        assert hit_weight(fam, z.mask, 1) >= (1 - eps) * fam.total()
    _report(3, 120, t0, "100 random families at n=4, m in {1,2}, exact")


def test_criterion_4_main_cover_oracle_exhaustive_depth3():
    t0 = time.monotonic()
    conds = enumerate_pprime(3, 2)
    # compatibility closed form vs existential oracle: all ordered pairs
    for a in conds:
        for b in conds:
            assert p_compatible(a, b) == compat_oracle(a, b)

    # the reduction's premise: the cover construction is equivariant
    rng = random.Random(1004)
    for _ in range(30):
        b, c = rng.choice(conds), rng.choice(conds)
        g = rng.randrange(128)  # one swap bit per internal node of the tree

        def act(q):
            return PCondition(ClopenSet(3, automorphism(q.B.mask, 3, g)), q.n)
        k = rng.randint(0, 3)
        assert set(main_cover(act(b), act(c), k)) == set(map(act, main_cover(b, c, k)))

    reps = pair_orbits(conds)
    slice_checks = 0
    for idx, (b, c) in enumerate(reps.values()):
        cover3 = main_cover(b, c, 3)
        assert cover_oracle(b, c, 3, cover3).ok
        if idx % 17 == 0:
            # lower height bounds are exactly the height slices, so the
            # k=3 audit covers every k <= 3
            for k in range(c.n, 3):
                assert main_cover(b, c, k) == [q for q in cover3 if q.n <= k]
            slice_checks += 1
    # direct subsample outside the reduction, all k values
    for _ in range(800):
        b, c = rng.choice(conds), rng.choice(conds)
        k = rng.randint(0, 3)
        assert cover_oracle(b, c, k, main_cover(b, c, k)).ok
    _report(
        4,
        600,
        t0,
        f"{len(conds)}^2 compat pairs, {len(reps)} cover orbits, "
        f"{slice_checks} slice identities, 800 direct samples",
    )


def test_criterion_5_desk_softness():
    t0 = time.monotonic()
    desk = DeskPoset(3)
    heights = desk.heights()
    rows = desk.compat_rows()
    rng = random.Random(1005)
    conds2 = [e for e in desk.elements if e.n <= 2]

    # weak finite covers built by iteration verify in the desk poset
    verified = 0
    for trial in range(35):
        k = 3 if trial < 5 else rng.randint(1, 2)
        ps = [rng.choice(conds2) for _ in range(rng.randint(1, 2))]
        family = iterate_cover(ps, k)
        assert verify_cover(desk, heights, ps, k, family)
        verified += 1

    # prefix witnesses exist and are minimal for sampled maximal antichains
    index = desk.index

    def prefix_fences(antichain, m, n) -> bool:
        mask = 0
        for e in antichain[:n]:
            mask |= 1 << index[e]
        return all(
            heights[x] > m or rows[i] & mask
            for i, x in enumerate(desk.elements)
        )

    for _ in range(100):
        antichain = greedy_max_antichain(desk, rng)
        m = rng.randint(0, 3)
        w = star_witness(desk, heights, antichain, m)
        assert prefix_fences(antichain, m, w)
        if w > 0:
            assert not prefix_fences(antichain, m, w - 1)
    _report(5, 600, t0, f"{verified} iterated covers, 100 antichain witnesses")


def test_criterion_6_escape_no_domination():
    t0 = time.monotonic()
    rng = random.Random(1006)
    for _ in range(100):
        poset = random_poset(rng, 7)
        h = chain_heights(poset, rng)
        coords = []
        for _ in range(rng.randint(1, 3)):
            antichain = greedy_max_antichain(poset, rng)
            values = tuple(rng.randint(0, 20) for _ in antichain)
            coords.append((tuple(antichain), values))
        table = NameTable(tuple(coords))
        report = escape_function(poset, h, table)
        assert report.ok
        # independent restatement: nothing of height <= m escapes above f(m)
        for m, (antichain, values) in enumerate(coords):
            n_m, f_m = report.coords[m].prefix, report.coords[m].f
            for p in poset.elements:
                if h[p] <= m:
                    assert any(
                        poset.compatible(p, antichain[j]) and values[j] <= f_m
                        for j in range(n_m)
                    )
    _report(6, 60, t0, "100 random posets with name tables")


def test_criterion_7_product_suite():
    t0 = time.monotonic()
    rng = random.Random(1007)
    for _ in range(200):
        Q = random_poset(rng, 6)
        P = random_poset(rng, 6)
        gq = chain_heights(Q, rng)
        hp = chain_heights(P, rng)
        raw = chain_heights(Q)
        supp = {e: min(gq[e], raw[e]) for e in Q.elements}
        poset, g = product_poset(Q, gq, supp, P, hp)
        # (height function) plus conditions (b) and (c)
        assert check_height(poset, g)
        for q, p in poset.elements:
            assert g[(q, p)] >= max(gq[q], hp[p])
            assert g[(q, p)] >= supp[q] + (p != P.top)
        pairs = [
            (rng.choice(Q.elements), rng.choice(P.elements))
            for _ in range(rng.randint(1, 2))
        ]
        m = rng.randint(0, 3)
        cover = product_cover(Q, gq, supp, P, hp, pairs, m)
        assert verify_cover(poset, g, pairs, m, cover)
    _report(7, 120, t0, "200 random factor pairs, |P| <= 6")


def test_criterion_8_random_algebra_strong_covers():
    t0 = time.monotonic()
    full = (1 << 8) - 1
    elements = [ClopenSet(3, m) for m in range(1, 256)]
    algebra = FinitePoset.from_leq(
        elements, lambda a, b: a.mask & ~b.mask == 0, full_set(3)
    )
    h = {B: random_height(B) for B in elements}
    assert check_height(algebra, h)

    # bridge: poset compatibility is exactly nonempty intersection
    for a in elements:
        for b in elements:
            assert algebra.compatible(a, b) == (a.mask & b.mask != 0)

    def strong_cover(ps):
        r = full
        for p in ps:
            r &= ~p.mask
        return [] if r == 0 else [ClopenSet(3, r)]

    # exhaustive singletons through the generic verifier
    for p in elements:
        qs = strong_cover([p])
        assert verify_cover(algebra, h, [p], 0, qs, strong=True)
    # exhaustive pairs through the validated mask semantics: the member
    # misses both, and everything missing both lies below the member
    for am in range(1, 256):
        for bm in range(1, 256):
            u = am | bm
            r = full & ~u
            assert r & am == 0 and r & bm == 0
            for q in range(1, 256):
                if q & u == 0:
                    assert q & ~r == 0
    rng = random.Random(1008)
    for _ in range(300):
        ps = [rng.choice(elements) for _ in range(rng.randint(2, 3))]
        assert verify_cover(algebra, h, ps, 0, strong_cover(ps), strong=True)

    # the induced product pair keeps the strong property (sampled)
    for _ in range(10):
        ps = [
            (rng.choice(elements).mask, rng.choice(elements).mask)
            for _ in range(rng.randint(1, 2))
        ]
        n = len(ps)
        cover = []
        for bits in range(1 << n):
            r1, r2 = full, full
            for i in range(n):
                if bits >> i & 1:
                    r1 &= ~ps[i][0]
                else:
                    r2 &= ~ps[i][1]
            if r1 and r2:
                cover.append((r1, r2))
        for _ in range(2000):
            x, y = rng.randint(1, 255), rng.randint(1, 255)
            if all(x & p == 0 or y & q == 0 for p, q in ps):
                assert any(
                    x & ~r1 == 0 and y & ~r2 == 0 for r1, r2 in cover
                )
    _report(8, 600, t0, "exhaustive singleton+pair instances at depth 3")


def test_criterion_9_diagonal_and_parameters():
    t0 = time.monotonic()
    for m, g in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3)):
        v = (1 << g) - 1
        chain = build_chain(m, g, v, m * g)
        report = verify_chain(chain, v)
        assert report.ok, report.violations
        # exact per-family budget: parent mass / 2^g, strictly below 1/v
        for (sigma, tau), fam in chain.families().items():
            total = sum((c.measure() for c in fam.values()), Fraction(0))
            if sigma:
                parent_p = chain.entries[(sigma[:-1], tau[:-1], sigma[-1])].p
                parent_q = chain.entries[(sigma[:-1], tau[:-1], tau[-1])].q
                parent_mass = measure(parent_p) * measure(parent_q)
            else:
                parent_mass = Fraction(1)
            assert total == parent_mass / (1 << g)
            assert total < parent_mass / v

    rng = random.Random(1009)
    for _ in range(1000):
        mm = rng.randint(1, 5)
        z = tuple(rng.randint(2, 60) for _ in range(mm))
        ps = ParamSchedule(
            mm,
            Fraction(rng.randint(1, 40), rng.randint(41, 99)),
            z,
            tuple(4 * zj for zj in z[:-1]),
            Fraction(rng.randint(0, 30), rng.randint(31, 99)),
            rng.randint(1, 50),
        )
        step = 2 * (ps.eps + ps.delta**-2 * ps.eps * ps.m * ps.z[-1] + ps.delta)
        for l in range(mm - 1):
            assert zeta(ps, l) == zeta(ps, l + 1) + step + Fraction(
                ps.y[l], ps.z[l + 1]
            )
        assert zeta(ps, mm) == 0

    for m in range(1, 5):
        found = find_params(m)
        report = validate_params(found)
        assert report.ok, [c.message for c in report.failures()]
        assert zeta(found, 0) < Fraction(1, 4**m)
    _report(9, 120, t0, "5 chains, 1000 telescoping schedules, m <= 4 searches")


def _random_conforming_cover(rng) -> LevelCover:
    entries = [(0, LevelSet(0, 0))]
    n = 0
    for m in range(1, rng.randint(2, 5)):
        n += rng.randint(1, 3)
        limit = max(0, n - m)
        size = rng.randint(0, min(1 << limit, 8))
        nodes = rng.sample(range(1 << n), size)
        mask = 0
        for j in nodes:
            mask |= 1 << j
        entries.append((n, LevelSet(n, mask)))
    return LevelCover(tuple(entries))


def test_criterion_10_null_cover_suite():
    t0 = time.monotonic()
    rng = random.Random(1010)

    # budget bounded by the geometric tail for conforming covers
    for _ in range(100):
        cover = _random_conforming_cover(rng)
        rep = budget(cover)
        assert rep.ok
        assert rep.total <= sum(
            Fraction(1, 2**m) for m in range(1, len(cover.entries))
        )

    # union measure: inclusion-exclusion == direct union (lifted from node
    # strings, not by cantor.lift_mask), and a seeded Monte-Carlo estimate
    # lands within three sigma (exact comparison)
    mc_runs = 0
    while mc_runs < 5:
        cover = _random_conforming_cover(rng)
        S = list(range(1, len(cover.entries)))
        depth = max(n for n, _ in cover.entries)
        direct = 0
        for m in S:
            n, z = cover.entries[m]
            direct |= lift_by_strings(z.mask, n, depth)
        p = union_measure(cover, S)
        assert p == Fraction(direct.bit_count(), 1 << depth)
        if p in (0, 1):
            continue
        samples = 20_000
        hits = 0
        for _ in range(samples):
            x = rng.randrange(1 << depth)
            if direct >> x & 1:
                hits += 1
        p_hat = Fraction(hits, samples)
        assert (p_hat - p) ** 2 <= 9 * p * (1 - p) / samples
        mc_runs += 1

    # avoidance: 200 randomized trap instances at depth <= 12
    planted = 0
    for _ in range(200):
        depth = rng.randint(4, 12)
        cuts = sorted(rng.sample(range(1, depth), rng.randint(1, min(4, depth - 1))))
        bounds = [0] + cuts + [depth]
        intervals = list(zip(bounds, bounds[1:]))
        S = [x for x in range(depth) if rng.random() < 0.6]
        part_plain = IntervalPartition(
            tuple(intervals), tuple(frozenset() for _ in intervals)
        )
        sparse = select_sparse(S, [part_plain])
        d = [0] + [x for x in sparse if 0 < x < depth] + [depth]
        d = sorted(set(d))
        r = "".join(rng.choice("01") for _ in range(depth))
        tree = BlockTree(r, tuple(d), depth)
        branches = block_tree_branches(tree).nodes()
        traps = []
        points = []
        for lo, hi in intervals:
            j = set()
            for _ in range(rng.randint(0, 2)):
                j.add("".join(rng.choice("01") for _ in range(hi - lo)))
            if rng.random() < 0.6:
                j.add(rng.choice(branches)[lo:hi])  # plant a real hit
            traps.append(frozenset(j))
            inside = [x for x in sparse if lo <= x < hi]
            points.append(inside[0] if inside else lo)
        part = IntervalPartition(tuple(intervals), tuple(traps))
        ks = [
            kn_set(part.traps[i], intervals[i], points[i])
            for i in range(len(intervals))
        ]
        rep = avoidance_check(tree, part, ks, points)
        assert rep.ok, rep.counterexamples[:3]
        assert not rep.misaligned_intervals
        planted += rep.trap_hits
    assert planted > 0, "instances never exercised a trap"
    _report(10, 300, t0, f"5 Monte-Carlo instances, 200 avoidance runs, {planted} trap hits")
