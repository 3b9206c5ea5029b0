import random
from fractions import Fraction

import pytest

import lemmas_restated

from clopenforce.cantor import ClopenSet, canonicalize, full_set, level_set, measure
from clopenforce.diagonal import (
    DiagonalChain,
    ParamSchedule,
    ProductCondition,
    build_chain,
    find_params,
    is_quadratic,
    validate_params,
    verify_chain,
    zeta,
)
from clopenforce.errors import DepthExhausted, GranularityTooCoarse


def test_is_quadratic_examples():
    half = canonicalize(["0"], 2)
    quarter = canonicalize(["00"], 2)
    assert is_quadratic(ProductCondition(half, half))
    assert not is_quadratic(ProductCondition(half, quarter))
    parent = ProductCondition(half, quarter)
    child = ProductCondition(canonicalize(["00"], 2), canonicalize(["000"], 3))
    assert is_quadratic(child, parent)  # ratios 1/2 and 1/2
    with pytest.raises(ValueError):
        is_quadratic(ProductCondition(canonicalize(["1"], 2), quarter), parent)


def test_build_chain_first_order_budget():
    chain = build_chain(1, 2, 3, 2)
    fam = chain.families()[((), ())]
    assert len(fam) == 4
    total = sum((c.measure() for c in fam.values()), Fraction(0))
    assert total == Fraction(1, 4)  # closed form: 1 / 2^granularity
    assert total < Fraction(1, 3)
    assert verify_chain(chain, 3).ok


def test_build_chain_too_coarse():
    with pytest.raises(GranularityTooCoarse):
        build_chain(1, 1, 2, 4)  # 1/2 < 1/2 fails strictly
    with pytest.raises(DepthExhausted):
        build_chain(2, 2, 3, 3)


def test_build_chain_second_order_verifies():
    chain = build_chain(2, 3, 4, 6)
    report = verify_chain(chain, 4)
    assert report.ok, report.violations
    assert report.entries == 8 + 8 * 7 * 8
    # per-family antichain totals match the parent coordinate measure
    for (sigma, tau), fam in chain.families().items():
        mass = sum((measure(c.p) for c in fam.values()), Fraction(0))
        if sigma:
            parent = chain.entries[(sigma[:-1], tau[:-1], sigma[-1])]
            assert mass == measure(parent.p)
        else:
            assert mass == 1


def test_verify_chain_mutations():
    chain = build_chain(2, 2, 3, 4)
    assert verify_chain(chain, 3).ok
    # widen one second coordinate to its whole parent: quadratic violation
    entries = dict(chain.entries)
    key = ((0,), (1,), 2)
    cond = entries[key]
    parent_q = entries[((), (), 1)].q
    entries[key] = ProductCondition(cond.p, parent_q)
    bad = verify_chain(DiagonalChain(2, entries), 3)
    assert not bad.ok
    assert any("quadratic" in v for v in bad.violations)
    assert any("overlap" in v for v in bad.violations)
    # remove one piece: the family no longer partitions its parent
    entries = dict(chain.entries)
    del entries[((0,), (1,), 2)]
    bad = verify_chain(DiagonalChain(2, entries), 3)
    assert not bad.ok
    assert any("partition" in v for v in bad.violations)


def test_chain_key_validation():
    with pytest.raises(ValueError):
        DiagonalChain(
            1,
            {
                ((0,), (0,), 0): ProductCondition(full_set(2), full_set(2))
            },  # sigma(0) == tau(0)
        )
    with pytest.raises(ValueError):
        DiagonalChain(
            1, {((0,), (1,), 0): ProductCondition(full_set(2), full_set(2))}
        )  # length not below order


def example_schedule():
    return ParamSchedule(
        1, Fraction(1, 10), (2,), (), Fraction(1, 4000), 3
    )


def test_zeta_examples():
    ps = example_schedule()
    assert zeta(ps, 1) == 0
    assert zeta(ps, 0) == Fraction(601, 2000)
    # the 2.6 variant drops the eps factor on the middle term
    assert zeta(ps, 0, variant="2.6") == 2 * (
        Fraction(1, 4000) + 100 * 2 + Fraction(1, 10)
    )


def random_schedule(rng):
    m = rng.randint(1, 5)
    z = tuple(rng.randint(2, 50) for _ in range(m))
    return ParamSchedule(
        m,
        Fraction(rng.randint(1, 30), rng.randint(31, 90)),
        z,
        tuple(4 * zj for zj in z[:-1]),
        Fraction(rng.randint(0, 20), rng.randint(21, 80)),
        rng.randint(1, 40),
    )


def test_zeta_telescoping_random():
    rng = random.Random(6)
    for _ in range(200):
        ps = random_schedule(rng)
        step = 2 * (
            ps.eps + ps.delta**-2 * ps.eps * ps.m * ps.z[-1] + ps.delta
        )
        for l in range(ps.m - 1):
            assert zeta(ps, l) == zeta(ps, l + 1) + step + Fraction(
                ps.y[l], ps.z[l + 1]
            )


def test_step_combination_inequality_random():
    # one estimate level folds into the next within the slack budget
    rng = random.Random(16)
    for _ in range(200):
        ps = random_schedule(rng)
        step = 2 * (
            ps.eps + ps.delta**-2 * ps.eps * ps.m * ps.z[-1] + ps.delta
        )
        for l in range(ps.m - 1):
            lhs = (
                Fraction(1, 4) * (Fraction(1, 4 ** (ps.m - l - 1)) + zeta(ps, l + 1))
                + step
                + Fraction(ps.y[l], ps.z[l + 1])
            )
            assert lhs <= Fraction(1, 4 ** (ps.m - l)) + zeta(ps, l)


def test_validate_params_zeta_failure():
    report = validate_params(example_schedule())
    assert not report.ok
    failing = report.failures()
    assert [c.name for c in failing] == ["zeta0"]
    assert failing[0].message == "zeta0 601/2000 >= 1/4"


def test_validate_params_degenerate_eps():
    ps = ParamSchedule(1, Fraction(1, 10), (2,), (), Fraction(0), 3)
    report = validate_params(ps)
    flags = {c.name: c.passed for c in report.checks}
    assert flags["eps-positive"] is False


def test_find_params_round_trip():
    for m in (1, 2):
        ps = find_params(m)
        report = validate_params(ps)
        assert report.ok, [c.message for c in report.failures()]
        assert zeta(ps, 0) < Fraction(1, 4**m)
        assert zeta(ps, ps.m) == 0


def test_find_params_is_deterministic():
    assert find_params(2) == find_params(2)


def test_verify_chain_matches_restated_on_built_chains():
    for m in (1, 2):
        for g in (1, 2, 3):
            chain = build_chain(m, g, 1, m * g)
            for v in range(1, (1 << g) + 2):
                assert verify_chain(chain, v) == lemmas_restated.verify_chain(chain, v)


def _coarsen(B, level):
    """B, a union of level-`level` cylinders, written at that depth."""
    coarse = ClopenSet(level, level_set(B, level).mask)
    assert coarse.at_depth(B.depth) == B
    return coarse


def test_verify_chain_matches_restated_on_tampered_chains():
    chain = build_chain(2, 2, 3, 4)
    base = dict(chain.entries)
    outside = dict(base)  # a piece outside its parent
    outside[((0,), (1,), 0)] = ProductCondition(canonicalize(["11"], 4), canonicalize(["0100"], 4))
    overlap = dict(base)  # two pieces sharing leaves
    overlap[((0,), (1,), 1)] = base[((0,), (1,), 0)]
    wide = dict(base)  # a non-quadratic piece
    wide[((1,), (2,), 3)] = ProductCondition(base[((1,), (2,), 3)].p, base[((), (), 2)].q)
    orphan = dict(base)  # a family whose parent is gone
    del orphan[((), (), 3)]
    coarse = dict(base)  # first-level entries at depth 2, the rest at 4
    for i in range(4):
        cond = base[((), (), i)]
        coarse[((), (), i)] = ProductCondition(_coarsen(cond.p, 2), _coarsen(cond.q, 2))
    deep = dict(coarse)  # and one second-level entry lifted to depth 5
    cond = deep[((2,), (0,), 1)]
    deep[((2,), (0,), 1)] = ProductCondition(cond.p.at_depth(5), cond.q.at_depth(5))
    # parents of unequal measure: ((),(),1) keeps half its second
    # coordinate, and the family below it halves that coordinate too
    uneven = dict(build_chain(2, 1, 1, 3).entries)
    uneven[((), (), 1)] = ProductCondition(canonicalize(["1"], 3), canonicalize(["10"], 3))
    for k, (p, q) in enumerate((("00", "100"), ("01", "101"))):
        uneven[((0,), (1,), k)] = ProductCondition(canonicalize([p], 3), canonicalize([q], 3))
    cases = (
        (uneven, "sigma=[] tau=[] i=1: not quadratic in parent"),
        (outside, "not nested in parent"),
        (overlap, "overlaps an earlier piece"),
        (wide, "not quadratic in parent"),
        (orphan, "parent entries missing"),
        (coarse, None),
        (deep, None),
    )
    for entries, flaw in cases:
        tampered = DiagonalChain(2, entries)
        for v in range(1, 6):
            want = lemmas_restated.verify_chain(tampered, v)
            assert verify_chain(tampered, v) == want
            if flaw:
                assert any(flaw in text for text in want.violations)
            else:
                assert want.ok == (v < 4)  # each family keeps 1/4 of its parent
