import random
from fractions import Fraction

import pytest

import lemmas_restated
from support import assert_value_errors

from clopenforce.cantor import ClopenSet, canonicalize, full_set, level_set, measure
from clopenforce.diagonal import (
    ChainReport,
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


def test_chain_inputs_fail_by_name():
    half, quarter = canonicalize(["0"], 2), canonicalize(["00"], 2)
    whole = ProductCondition(full_set(2), full_set(2))
    parent = ProductCondition(half, quarter)
    assert_value_errors([
        (lambda: ProductCondition(ClopenSet(2, 0), half),
         "product conditions need positive measure"),
        (lambda: ProductCondition(half, ClopenSet(2, 0)),
         "product conditions need positive measure"),
        (lambda: is_quadratic(ProductCondition(quarter, canonicalize(["01"], 2)), parent),
         "second coordinate not nested in parent"),
        (lambda: DiagonalChain(0, {}), "order must be positive"),
        (lambda: DiagonalChain(2, {((0,), (0,), 0): whole}),
         "index strings must differ coordinatewise: (0,)/(0,)"),
        (lambda: DiagonalChain(1, {((), (), -1): whole}), "entry index must be nonnegative"),
        (lambda: zeta(example_schedule(), 0, "2.7"), "unknown zeta variant '2.7'"),
    ])


def test_verify_chain_of_no_entries_is_empty():
    assert verify_chain(DiagonalChain(1, {}), 3) == ChainReport((), 0, 0)


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


# Full reports pinned before the compared checks were written once: every
# compared check passing and failing (the equality cases among them), the
# degenerate and vacuous eps texts, and a wrong y, under both variants.
# zeta0 never passes under 2.6, whose zeta0 exceeds 2(delta^-2 + delta) > 2.
PIN_SCHEDULES = {
    "passing": ParamSchedule(2, Fraction(1, 256), (2, 2048), (8,), Fraction(1, 68719476736), 2049),
    "zeta0-above": ParamSchedule(1, Fraction(1, 10), (2,), (), Fraction(1, 4000), 3),
    "eps-zero": ParamSchedule(1, Fraction(1, 10), (2,), (), Fraction(0), 3),
    "eps-one": ParamSchedule(2, Fraction(1, 256), (2, 2048), (8,), Fraction(1), 2049),
    "eps-three-halves": ParamSchedule(3, Fraction(1, 4), (2, 8, 32), (8, 32), Fraction(3, 2), 5),
    "wrong-y": ParamSchedule(
        3, Fraction(1, 256), (2, 2048, 4096), (8, 9), Fraction(1, 68719476736), 4097
    ),
    "z0-one": ParamSchedule(2, Fraction(1, 256), (1, 2048), (4,), Fraction(1, 68719476736), 2049),
    "v-small": ParamSchedule(2, Fraction(1, 256), (2, 2048), (8,), Fraction(1, 68719476736), 2000),
    "z-v-and-step-equal": ParamSchedule(2, Fraction(1, 10), (3, 8), (12,), Fraction(0), 8),
    "zeta0-equal": ParamSchedule(1, Fraction(1, 10), (2,), (), Fraction(1, 8040), 3),
    "eps-quarter": ParamSchedule(2, Fraction(1, 256), (2, 2048), (8,), Fraction(1, 4), 2049),
}

PIN_REPORTS = {
    ("passing", "2.5"): (
        ("eps-positive", True, "eps 1/68719476736 > 0"),
        ("z0", True, "z0 2 > 1"),
        ("y-ratio", True, "y = 4z"),
        ("z-v", True, "z_1 2048 <= 9676128923118290627201025/4722366482869645213696"),
        ("zeta0", True, "zeta0 603979777/17179869184 < 1/16"),
        ("step0", True,
         "step0 290586003145216950840848917039413247/332469258213382052666013843141427200 >= 1/2"),
    ),
    ("passing", "2.6"): (
        ("eps-positive", True, "eps 1/68719476736 > 0"),
        ("z0", True, "z0 2 > 1"),
        ("y-ratio", True, "y = 4z"),
        ("z-v", True, "z_1 2048 <= 9676128923118290627201025/4722366482869645213696"),
        ("zeta0", False, "zeta0 18446744074045095937/17179869184 >= 1/16"),
        ("step0", True,
         "step0 290586003145216950840848917039413247/332469258213382052666013843141427200 >= 1/2"),
    ),
    ("zeta0-above", "2.5"): (
        ("eps-positive", True, "eps 1/4000 > 0"),
        ("z0", True, "z0 2 > 1"),
        ("y-ratio", True, "y = 4z"),
        ("z-v", True, "z_0 2 <= 47976003/16000000"),
        ("zeta0", False, "zeta0 601/2000 >= 1/4"),
    ),
    ("zeta0-above", "2.6"): (
        ("eps-positive", True, "eps 1/4000 > 0"),
        ("z0", True, "z0 2 > 1"),
        ("y-ratio", True, "y = 4z"),
        ("z-v", True, "z_0 2 <= 47976003/16000000"),
        ("zeta0", False, "zeta0 800401/2000 >= 1/4"),
    ),
    ("eps-zero", "2.5"): (
        ("eps-positive", False, "eps 0 degenerate"),
        ("z0", True, "z0 2 > 1"),
        ("y-ratio", True, "y = 4z"),
        ("z-v", True, "z_0 2 <= 3"),
        ("zeta0", True, "zeta0 1/5 < 1/4"),
    ),
    ("eps-zero", "2.6"): (
        ("eps-positive", False, "eps 0 degenerate"),
        ("z0", True, "z0 2 > 1"),
        ("y-ratio", True, "y = 4z"),
        ("z-v", True, "z_0 2 <= 3"),
        ("zeta0", False, "zeta0 2001/5 >= 1/4"),
    ),
    ("eps-one", "2.5"): (
        ("eps-positive", True, "eps 1 > 0"),
        ("z0", True, "z0 2 > 1"),
        ("y-ratio", True, "y = 4z"),
        ("z-v", False, "eps 1 >= 1 makes the budget vacuous"),
        ("zeta0", False, "zeta0 274877907973/256 >= 1/16"),
        ("step0", False, "step0: eps 1 >= 1"),
    ),
    ("eps-one", "2.6"): (
        ("eps-positive", True, "eps 1 > 0"),
        ("z0", True, "z0 2 > 1"),
        ("y-ratio", True, "y = 4z"),
        ("z-v", False, "eps 1 >= 1 makes the budget vacuous"),
        ("zeta0", False, "zeta0 274877907973/256 >= 1/16"),
        ("step0", False, "step0: eps 1 >= 1"),
    ),
    ("eps-three-halves", "2.5"): (
        ("eps-positive", True, "eps 3/2 > 0"),
        ("z0", True, "z0 2 > 1"),
        ("y-ratio", True, "y = 4z"),
        ("z-v", False, "eps 3/2 >= 1 makes the budget vacuous"),
        ("zeta0", False, "zeta0 27673/2 >= 1/64"),
        ("step0", False, "step0: eps 3/2 >= 1"),
        ("step1", False, "step1: eps 3/2 >= 1"),
    ),
    ("eps-three-halves", "2.6"): (
        ("eps-positive", True, "eps 3/2 > 0"),
        ("z0", True, "z0 2 > 1"),
        ("y-ratio", True, "y = 4z"),
        ("z-v", False, "eps 3/2 >= 1 makes the budget vacuous"),
        ("zeta0", False, "zeta0 18457/2 >= 1/64"),
        ("step0", False, "step0: eps 3/2 >= 1"),
        ("step1", False, "step1: eps 3/2 >= 1"),
    ),
    ("wrong-y", "2.5"): (
        ("eps-positive", True, "eps 1/68719476736 > 0"),
        ("z0", True, "z0 2 > 1"),
        ("y-ratio", False, "y[1] 9 != 4*2048"),
        ("z-v", True, "z_2 4096 <= 19347535479753849048141825/4722366482869645213696"),
        ("zeta0", False, "zeta0 3430940675/34359738368 >= 1/64"),
        ("step0", True,
         "step0 581354666819114666723927613656526847/664776257149939614335118943558041600 >= 1/2"),
        ("step1", False,
         "step1 590587670390641605811915376761499647"
         "/664776257149939614335118943558041600 < 2047/2048"),
    ),
    ("wrong-y", "2.6"): (
        ("eps-positive", True, "eps 1/68719476736 > 0"),
        ("z0", True, "z0 2 > 1"),
        ("y-ratio", False, "y[1] 9 != 4*2048"),
        ("z-v", True, "z_2 4096 <= 19347535479753849048141825/4722366482869645213696"),
        ("zeta0", False, "zeta0 166020696664400986115/34359738368 >= 1/64"),
        ("step0", True,
         "step0 581354666819114666723927613656526847/664776257149939614335118943558041600 >= 1/2"),
        ("step1", False,
         "step1 590587670390641605811915376761499647"
         "/664776257149939614335118943558041600 < 2047/2048"),
    ),
    ("z0-one", "2.5"): (
        ("eps-positive", True, "eps 1/68719476736 > 0"),
        ("z0", False, "z0 1 <= 1"),
        ("y-ratio", True, "y = 4z"),
        ("z-v", True, "z_1 2048 <= 9676128923118290627201025/4722366482869645213696"),
        ("zeta0", True, "zeta0 570425345/17179869184 < 1/16"),
        ("step0", True,
         "step0 249027345868544194257597186646734847/332469258213382052666013843141427200 >= 0"),
    ),
    ("z0-one", "2.6"): (
        ("eps-positive", True, "eps 1/68719476736 > 0"),
        ("z0", False, "z0 1 <= 1"),
        ("y-ratio", True, "y = 4z"),
        ("z-v", True, "z_1 2048 <= 9676128923118290627201025/4722366482869645213696"),
        ("zeta0", False, "zeta0 18446744074011541505/17179869184 >= 1/16"),
        ("step0", True,
         "step0 249027345868544194257597186646734847/332469258213382052666013843141427200 >= 0"),
    ),
    ("v-small", "2.5"): (
        ("eps-positive", True, "eps 1/68719476736 > 0"),
        ("z0", True, "z0 2 > 1"),
        ("y-ratio", True, "y = 4z"),
        ("z-v", False, "z_1 2048 > 590295810341525782528125/295147905179352825856"),
        ("zeta0", True, "zeta0 603979777/17179869184 < 1/16"),
        ("step0", True,
         "step0 17727063676972586329517192739028867/20282409603061374613592840601600000 >= 1/2"),
    ),
    ("v-small", "2.6"): (
        ("eps-positive", True, "eps 1/68719476736 > 0"),
        ("z0", True, "z0 2 > 1"),
        ("y-ratio", True, "y = 4z"),
        ("z-v", False, "z_1 2048 > 590295810341525782528125/295147905179352825856"),
        ("zeta0", False, "zeta0 18446744074045095937/17179869184 >= 1/16"),
        ("step0", True,
         "step0 17727063676972586329517192739028867/20282409603061374613592840601600000 >= 1/2"),
    ),
    ("z-v-and-step-equal", "2.5"): (
        ("eps-positive", False, "eps 0 degenerate"),
        ("z0", True, "z0 3 > 1"),
        ("y-ratio", True, "y = 4z"),
        ("z-v", True, "z_1 8 <= 8"),
        ("zeta0", False, "zeta0 19/10 >= 1/16"),
        ("step0", True, "step0 2/3 >= 2/3"),
    ),
    ("z-v-and-step-equal", "2.6"): (
        ("eps-positive", False, "eps 0 degenerate"),
        ("z0", True, "z0 3 > 1"),
        ("y-ratio", True, "y = 4z"),
        ("z-v", True, "z_1 8 <= 8"),
        ("zeta0", False, "zeta0 64019/10 >= 1/16"),
        ("step0", True, "step0 2/3 >= 2/3"),
    ),
    ("zeta0-equal", "2.5"): (
        ("eps-positive", True, "eps 1/8040 > 0"),
        ("z0", True, "z0 2 > 1"),
        ("y-ratio", True, "y = 4z"),
        ("z-v", True, "z_0 2 <= 64625521/21547200"),
        ("zeta0", False, "zeta0 1/4 >= 1/4"),
    ),
    ("zeta0-equal", "2.6"): (
        ("eps-positive", True, "eps 1/8040 > 0"),
        ("z0", True, "z0 2 > 1"),
        ("y-ratio", True, "y = 4z"),
        ("z-v", True, "z_0 2 <= 64625521/21547200"),
        ("zeta0", False, "zeta0 321761/804 >= 1/4"),
    ),
    ("eps-quarter", "2.5"): (
        ("eps-positive", True, "eps 1/4 > 0"),
        ("z0", True, "z0 2 > 1"),
        ("y-ratio", True, "y = 4z"),
        ("z-v", False, "z_1 2048 > 18441/16"),
        ("zeta0", False, "zeta0 68719476997/256 >= 1/16"),
        ("step0", False, "step0 14111479/37767168 < 1/2"),
    ),
    ("eps-quarter", "2.6"): (
        ("eps-positive", True, "eps 1/4 > 0"),
        ("z0", True, "z0 2 > 1"),
        ("y-ratio", True, "y = 4z"),
        ("z-v", False, "z_1 2048 > 18441/16"),
        ("zeta0", False, "zeta0 274877907205/256 >= 1/16"),
        ("step0", False, "step0 14111479/37767168 < 1/2"),
    ),
}


def test_validate_params_pinned_reports():
    for (case, variant), want in PIN_REPORTS.items():
        report = validate_params(PIN_SCHEDULES[case], variant)
        got = tuple((c.name, c.passed, c.message) for c in report.checks)
        assert got == want, (case, variant)


FIND_PARAMS = (
    ParamSchedule(1, Fraction(1, 16), (2,), (), Fraction(1, 16384), 3),
    ParamSchedule(2, Fraction(1, 256), (2, 2048), (8,), Fraction(1, 68719476736), 2049),
    ParamSchedule(
        3, Fraction(1, 1024), (2, 8192, 33554432), (8, 32768),
        Fraction(1, 288230376151711744), 33554433,
    ),
    ParamSchedule(
        4, Fraction(1, 4096), (2, 32768, 536870912, 8796093022208), (8, 131072, 2147483648),
        Fraction(1, 4835703278458516698824704), 8796093022209,
    ),
    ParamSchedule(
        5, Fraction(1, 16384),
        (2, 131072, 8589934592, 562949953421312, 36893488147419103232),
        (8, 524288, 34359738368, 2251799813685248),
        Fraction(1, 5192296858534827628530496329220096), 36893488147419103233,
    ),
    ParamSchedule(
        6, Fraction(1, 262144),
        (2, 2097152, 2199023255552, 2305843009213693952, 2417851639229258349412352,
         2535301200456458802993406410752),
        (8, 8388608, 8796093022208, 9223372036854775808, 9671406556917033397649408),
        Fraction(1, 91343852333181432387730302044767688728495783936),
        2535301200456458802993406410753,
    ),
)


def test_find_params_pinned():
    for m, want in enumerate(FIND_PARAMS, start=1):
        assert find_params(m) == want


def test_find_params_step_slack_is_positive_on_the_whole_grid():
    # find_params' z_j = 2*4^((s+1)j) and y_l = 4 z_l leave every step
    # positive slack, so the search never skips a scale for it
    for s in range(1, 81):
        for m in range(2, 7):
            z = [2 * 4 ** ((s + 1) * j) for j in range(m)]
            for l in range(m - 1):
                slack = Fraction(1, z[l]) - Fraction(2, z[-1]) - Fraction(1, 4 * z[l])
                assert slack > 0, (s, m, l)
