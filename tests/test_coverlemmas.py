import itertools
import random
from fractions import Fraction

import pytest

import lemmas_restated
from support import assert_value_errors, random_shrink_family, random_weight_family

from clopenforce.cantor import LevelSet
from clopenforce import coverlemmas
from clopenforce.cli import dispatch
from clopenforce.coverlemmas import (
    WeightFamily,
    halve_once,
    hit_weight,
    schedule,
    shrink,
    split_goodness,
)
from clopenforce.errors import InsufficientK, LemmaViolated
from clopenforce.numerics import epsilon


def full_level(n):
    return LevelSet(n, (1 << (1 << n)) - 1)


def test_weight_family_validation():
    z = full_level(2)
    with pytest.raises(ValueError):
        WeightFamily(2, 5, z, ())  # k beyond the level
    with pytest.raises(ValueError):
        WeightFamily(2, 2, z, ((0b0001, Fraction(1)),))  # |T| < k
    with pytest.raises(ValueError):
        WeightFamily(2, 1, z, ((0b0011, Fraction(-1)),))
    with pytest.raises(ValueError):
        WeightFamily(2, 1, LevelSet(1, 0b11), ())  # wrong level


def test_lemma_inputs_fail_by_name():
    one = Fraction(1)
    full = WeightFamily(2, 1, full_level(2), ())
    wide = LevelSet(5, (1 << 21) - 1)
    assert_value_errors([
        (lambda: WeightFamily(-1, 1, LevelSet(0, 0), ()), "level must be nonnegative"),
        (lambda: WeightFamily(1, 1, full_level(1), ((0b100, one),)), "weighted set out of range"),
        (lambda: WeightFamily(1, 1, full_level(1), ((-1, one),)), "weighted set out of range"),
        (lambda: WeightFamily(1, 1, full_level(1), ((0b11, one), (0b11, one))),
         "duplicate weighted set"),
        (lambda: split_goodness(wide, wide.mask, 1), "exhaustive count restricted to |Z| <= 20"),
        (lambda: shrink(full, one, -1), "m must be nonnegative"),
    ])


def test_halve_once_zero_weights():
    fam = WeightFamily(2, 2, full_level(2), ((0b1111, Fraction(0)),))
    assert halve_once(fam, 1).mask == 0


def test_halve_once_single_full_set():
    fam = WeightFamily(2, 2, full_level(2), ((0b1111, Fraction(1)),))
    z = halve_once(fam, 1)
    assert z.nodes() == ("00",)  # smallest singleton already reaches 1 >= 1/2


def test_halve_once_matches_exhaustive_optimum():
    rng = random.Random(41)
    for _ in range(40):
        fam = random_weight_family(rng, n_max=3, k_max=3, sets_max=5)
        kp = rng.randint(1, fam.k)
        z = halve_once(fam, kp)
        target = (1 - epsilon(fam.k, kp)) * fam.total()
        assert z.mask.bit_count() <= len(fam.Z) // 2
        assert hit_weight(fam, z.mask, kp) >= target
        # no earlier subset in (size, value) order reaches the target
        positions = [i for i in range(1 << fam.n) if fam.Z.mask >> i & 1]
        for size in range(z.mask.bit_count() + 1):
            for combo in itertools.combinations(positions, size):
                m = 0
                for i in combo:
                    m |= 1 << i
                if (size, m) >= (z.mask.bit_count(), z.mask):
                    continue
                assert hit_weight(fam, m, kp) < target


def test_halve_once_double_entry_tallies():
    # recount hit weights through node strings rather than popcounts
    rng = random.Random(42)
    for _ in range(30):
        fam = random_weight_family(rng)
        kp = rng.randint(1, fam.k)
        z = halve_once(fam, kp)
        znodes = set(z.nodes())
        recount = Fraction(0)
        for tmask, a in fam.weights:
            tnodes = set(LevelSet(fam.n, tmask).nodes())
            if len(tnodes & znodes) >= kp:
                recount += a
        assert recount == hit_weight(fam, z.mask, kp)
        assert recount >= (1 - epsilon(fam.k, kp)) * fam.total()


def test_split_goodness_examples():
    z = full_level(2)
    assert split_goodness(z, 0b0011, 0) == 1
    # |T meet Z| = k, k' = 1: exactly the two one-sided tails are bad
    for n, tmask in ((2, 0b0111), (3, 0b00011111)):
        zf = full_level(n)
        k = tmask.bit_count()
        assert split_goodness(zf, tmask, 1) == 1 - epsilon(k, 1)


def test_split_goodness_bound_small():
    # fraction >= 1 - eps for every instance; exact equality when the two
    # tails cannot overlap (t >= 2k' - 1)
    for zsize in range(1, 9):
        zmask = (1 << zsize) - 1
        z = LevelSet(3, zmask)
        for t in range(1, zsize + 1):
            tmask = (1 << t) - 1
            for kp in range(1, t + 1):
                frac = split_goodness(z, tmask, kp)
                assert frac >= 1 - epsilon(t, kp)
                if t >= 2 * kp - 1:
                    assert 1 - frac == epsilon(t, kp)


def test_schedule_examples():
    assert schedule(Fraction(1, 2), 1) == [1, 2]
    assert schedule(Fraction(1, 2), 2) == [1, 3, 9]
    for eps, m in ((Fraction(1, 2), 3), (Fraction(1, 5), 2), (Fraction(9, 10), 4)):
        ks = schedule(eps, m)
        assert ks[0] == 1 and len(ks) == m + 1
        product = Fraction(1)
        for i in range(m):
            assert ks[i + 1] > ks[i]
            product *= 1 - epsilon(ks[i + 1], ks[i])
        assert product >= 1 - eps


def test_schedule_product_check_survives_optimisation(monkeypatch, capsys):
    # a lossy epsilon breaks the product bound; the check must raise, not
    # assert, so that `python -O` keeps it
    monkeypatch.setattr(coverlemmas, "epsilon", lambda k, k_prime: Fraction(1, 2))
    with pytest.raises(LemmaViolated):
        schedule(Fraction(1, 2), 2)
    assert dispatch(["cover", "schedule", "--eps", "1/2", "--m", "2"]) == 1
    assert capsys.readouterr().out.startswith("lemma-violated:")


def test_shrink_zero_rounds():
    fam = WeightFamily(2, 2, full_level(2), ((0b1111, Fraction(1)),))
    assert shrink(fam, Fraction(1, 2), 0) == full_level(2)


def test_shrink_one_round():
    fam = WeightFamily(2, 2, full_level(2), ((0b1111, Fraction(1)),))
    z = shrink(fam, Fraction(1, 2), 1)
    assert z.mask.bit_count() <= 2
    assert hit_weight(fam, z.mask, 1) >= Fraction(1, 2)


def test_shrink_requires_large_k():
    fam = WeightFamily(4, 3, full_level(4), ((0b111, Fraction(1)),))
    with pytest.raises(InsufficientK):
        shrink(fam, Fraction(1, 2), 2)  # needs k >= 9
    with pytest.raises(ValueError):
        shrink(
            WeightFamily(2, 1, LevelSet(2, 0b0111), ()), Fraction(1, 2), 1
        )  # not the full level


def test_shrink_end_to_end_random():
    rng = random.Random(4)
    for _ in range(15):
        m = rng.choice((1, 2))
        eps = rng.choice((Fraction(1, 2), Fraction(1, 3)))
        k = schedule(eps, m)[m]
        fam = random_shrink_family(rng, 4, k)
        z = shrink(fam, eps, m)
        assert z.mask.bit_count() <= 1 << (4 - m)
        assert hit_weight(fam, z.mask, 1) >= (1 - eps) * fam.total()


def test_bumping_a_weight_never_hurts():
    # enlarging one mass never lowers the old set's hit nor the re-search's
    # guaranteed mass; the raw cross-run hit can drop because the search
    # stops at the first subset reaching its target, not the best one
    rng = random.Random(8)
    for _ in range(40):
        fam = random_weight_family(rng, sets_max=6)
        if not fam.weights:
            continue
        kp = rng.randint(1, fam.k)
        old = halve_once(fam, kp)
        old_hit = hit_weight(fam, old.mask, kp)
        idx = rng.randrange(len(fam.weights))
        bump = Fraction(rng.randint(1, 10), rng.randint(1, 4))
        weights = tuple(
            (t, a + bump if i == idx else a)
            for i, (t, a) in enumerate(fam.weights)
        )
        bigger = WeightFamily(fam.n, fam.k, fam.Z, weights)
        assert hit_weight(bigger, old.mask, kp) >= old_hit
        new = halve_once(bigger, kp)
        guarantee = (1 - epsilon(fam.k, kp)) * bigger.total()
        assert hit_weight(bigger, new.mask, kp) >= guarantee
        # meaningful guarantees (eps <= 1) only grow with the total
        assert max(guarantee, 0) >= max(
            (1 - epsilon(fam.k, kp)) * fam.total(), 0
        )


def _halving(halve, fam, kp):
    """A halving's result: the LevelSet, or the LemmaViolated message."""
    try:
        return halve(fam, kp)
    except LemmaViolated as exc:
        return f"lemma-violated: {exc}"


def _same_halving(fam, kp):
    assert _halving(halve_once, fam, kp) == _halving(lemmas_restated.halve_once, fam, kp)


def test_halve_once_matches_restated_on_random_families():
    rng = random.Random(1616)
    for _ in range(400):
        fam = random_weight_family(rng, n_max=3)
        for kp in range(1, fam.k + 1):
            _same_halving(fam, kp)


def test_halve_once_matches_restated_edge_cases():
    z3 = full_level(3)
    zeros = WeightFamily(3, 2, z3, ((0b11, Fraction(0)), (0b1111, Fraction(0))))
    ints = WeightFamily(3, 2, z3, ((0b111, 3), (0b11000, 5), (0b11110000, 1)))
    coprime = WeightFamily(
        3, 3, z3,
        ((0b111, Fraction(1, 7)), (0b111000, Fraction(1, 11)), (0b11100011, Fraction(1, 13))),
    )
    partial = WeightFamily(
        3, 2, LevelSet(3, 0b10110110),
        ((0b10100000, Fraction(2, 3)), (0b110, Fraction(5, 4)), (0b10010110, Fraction(0))),
    )
    for fam in (zeros, ints, coprime, partial):
        for kp in range(1, fam.k + 1):
            _same_halving(fam, kp)
    # k' = k = 2 gives eps(2, 2) = 3/2, a negative target: the empty set
    assert epsilon(2, 2) > 1
    assert halve_once(ints, 2).mask == 0
    assert halve_once(zeros, 1).mask == 0


def test_halve_once_matches_restated_when_the_lemma_fails(monkeypatch):
    # with no loss allowed, a k' beyond |Z|/2 leaves no candidate hitting
    # anything k' deep, and both searches must fail with the same message
    for module in (coverlemmas, lemmas_restated):
        monkeypatch.setattr(module, "epsilon", lambda k, k_prime: Fraction(0))
    fam = WeightFamily(2, 3, LevelSet(2, 0b0111), ((0b0111, Fraction(2, 9)),))
    for kp in (1, 2, 3):
        _same_halving(fam, kp)
    with pytest.raises(LemmaViolated, match="keeps 1 of the mass"):
        halve_once(fam, 2)
    rng = random.Random(17)
    for _ in range(100):
        fam = random_weight_family(rng, n_max=3)
        for kp in range(1, fam.k + 1):
            _same_halving(fam, kp)


def test_shrink_matches_restated_halving(monkeypatch):
    rng = random.Random(1617)
    cases = []
    for _ in range(24):
        m = rng.choice((1, 2))
        eps = rng.choice((Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)))
        cases.append((random_shrink_family(rng, 4, schedule(eps, m)[m]), eps, m))
    fast = [shrink(*case) for case in cases]
    monkeypatch.setattr(coverlemmas, "halve_once", lemmas_restated.halve_once)
    assert fast == [shrink(*case) for case in cases]


# masses with large coprime denominators, a zero, ints and a Fraction above 1
MASSES = (0, 1, 3, Fraction(1, 7919), Fraction(1, 7907), Fraction(5, 2))


def small_families():
    """(family, k') for every hit set at levels 0 to 2, every k and k', and
    every family of at most four weighted sets meeting Z in >= k nodes: a
    single set takes each of MASSES, more sets cycle through them.  k' = k
    >= 2 gives eps(k, k') > 1, a negative target."""
    for n in range(3):
        width = 1 << n
        for zmask in range(1 << width):
            z = LevelSet(n, zmask)
            for k in range(1, width + 1):
                sets = [t for t in range(1 << width) if (t & zmask).bit_count() >= k]
                for r in range(5):
                    for i, combo in enumerate(itertools.combinations(sets, r)):
                        for shift in range(len(MASSES) if r == 1 else 1):
                            fam = WeightFamily(n, k, z, tuple(
                                (t, MASSES[(i + shift + p) % len(MASSES)])
                                for p, t in enumerate(combo)))
                            for kp in range(1, k + 1):
                                yield fam, kp


def test_halve_once_matches_restated_on_every_small_family():
    count = 0
    for fam, kp in small_families():
        _same_halving(fam, kp)
        count += 1
    assert count == 17_954


def test_halve_once_matches_restated_on_coprime_masses():
    # seven sets over four large primes: one lcm of about 10^15 denominates
    # every mass
    z = full_level(3)
    masses = (Fraction(1, 7919), Fraction(1, 7907), Fraction(2, 7901), Fraction(3, 7883),
              5, 0, Fraction(7919, 7907))
    sets = (0b00000111, 0b00111000, 0b11100000, 0b10010010, 0b01001001, 0b11111111,
            0b00101101)
    for k in (1, 2, 3):
        fam = WeightFamily(3, k, z, tuple(zip(sets, masses)))
        for kp in range(1, k + 1):
            _same_halving(fam, kp)


def _shrinking(fam, eps, m):
    try:
        return shrink(fam, eps, m)
    except (LemmaViolated, InsufficientK) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_shrink_matches_restated_on_small_full_levels(monkeypatch):
    # shrink's one round at level 2 from the full level, k >= 2 (eps 1/2)
    # or k >= 3 (eps 1/3); the families below k_m fail alike
    cases = [(fam, eps, 1) for fam, kp in small_families()
             if kp == 1 and fam.n == 2 and fam.Z.mask == 0b1111
             for eps in (Fraction(1, 2), Fraction(1, 3))]
    fast = [_shrinking(*case) for case in cases]
    monkeypatch.setattr(coverlemmas, "halve_once", lemmas_restated.halve_once)
    assert fast == [_shrinking(*case) for case in cases]
    assert any(isinstance(out, str) for out in fast)
    assert any(isinstance(out, LevelSet) for out in fast)


def test_weight_family_rejects_non_rational_weights():
    z = full_level(1)
    assert_value_errors([
        (lambda: WeightFamily(1, 1, z, ((0b11, 0.5),)), "weight 0.5 is not an int or Fraction"),
        (lambda: WeightFamily(1, 1, z, ((0b11, "1/2"),)), "weight '1/2' is not an int or Fraction"),
    ])
    # ints and Fractions are accepted and halve alike
    ints = WeightFamily(1, 1, z, ((0b01, 2), (0b11, 1)))
    fractions = WeightFamily(1, 1, z, ((0b01, Fraction(2)), (0b11, Fraction(1))))
    assert halve_once(ints, 1) == halve_once(fractions, 1)
