"""The soft layer's bitmask rows against the order they stand for, and its
checks against the element-wise restatement in `soft_restated`."""

import copy
import random
from fractions import Fraction

import pytest

import soft_restated as ref
from support import chain_heights, greedy_max_antichain, random_poset

from clopenforce import soft
from clopenforce.perfectposet import DeskPoset, iterate_cover, p_compatible, p_leq


@pytest.fixture(scope="module")
def desk0():
    return DeskPoset(0)


@pytest.fixture(scope="module")
def desk1():
    return DeskPoset(1)


@pytest.fixture(scope="module")
def desk2():
    return DeskPoset(2)


@pytest.fixture(scope="module")
def desk3():
    return DeskPoset(3)


def outcome(fn, *args):
    """The result, or the message of the ValueError raised instead."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def assert_rows(P):
    rows = P.compat_rows()
    assert len(rows) == len(P.elements)
    for i, a in enumerate(P.elements):
        down = P.down_row(i)
        for j, b in enumerate(P.elements):
            assert rows[i] >> j & 1 == P.compatible(a, b)
            assert down >> j & 1 == P.leq(b, a)


def test_rows_match_order_on_random_posets():
    rng = random.Random(31)
    for _ in range(40):
        assert_rows(random_poset(rng, 7))


def test_rows_match_order_on_desk(desk2):
    assert_rows(desk2)


@pytest.mark.parametrize("name", ["desk0", "desk1", "desk2", "desk3"])
def test_desk_rows_match_closed_forms_exhaustively(name, request):
    # the desk's order is the closed-form p_leq, and its compatibility (a
    # common lower bound among the elements) is p_compatible, on every
    # ordered pair
    desk = request.getfixturevalue(name)
    rows = desk.compat_rows()
    for i, a in enumerate(desk.elements):
        compat = down = 0
        for j, b in enumerate(desk.elements):
            compat |= p_compatible(a, b) << j
            down |= p_leq(b, a) << j
        assert rows[i] == compat, a
        assert desk.down_row(i) == down, a


def down_rows(P):
    return [P.down_row(i) for i in range(len(P.elements))]


def pairwise_compat_rows(P):
    down = down_rows(P)
    return [sum(1 << j for j, dj in enumerate(down) if di & dj != 0) for di in down]


def random_factors(rng):
    """Two random posets, with heights and a support map product_poset takes."""
    Q, P = random_poset(rng, 5), random_poset(rng, 5)
    return Q, chain_heights(Q, rng), chain_heights(Q), P, chain_heights(P, rng)


def test_compat_rows_match_pairwise_test():
    # rows from the up-sets of the minimal elements below, against one AND
    # test per pair of down rows
    rng = random.Random(53)
    several = 0
    for _ in range(60):
        P = random_poset(rng, 9)
        several += sum(row == 1 << i for i, row in enumerate(down_rows(P))) >= 2
        assert P.compat_rows() == pairwise_compat_rows(P)
    assert several >= 30
    for _ in range(15):
        poset, _ = soft.product_poset(*random_factors(rng))
        assert poset.compat_rows() == pairwise_compat_rows(poset)


def test_product_rows_match_coordinatewise_order():
    rng = random.Random(59)
    for _ in range(30):
        Q, gq, supp, P, hp = random_factors(rng)
        poset, heights = soft.product_poset(Q, gq, supp, P, hp)
        by_pairs = soft.FinitePoset.from_leq(
            [(q, p) for q in Q.elements for p in P.elements],
            lambda a, b: Q.leq(a[0], b[0]) and P.leq(a[1], b[1]),
            (Q.top, P.top),
        )
        assert poset.elements == by_pairs.elements and poset.top == by_pairs.top
        assert down_rows(poset) == down_rows(by_pairs)
        assert set(heights) == set(by_pairs.elements)
    Q = soft.FinitePoset(["a", "b", "top"], [("a", "b")], "top")
    with pytest.raises(ValueError, match="^support size must be order-reversing$"):
        soft.product_poset(Q, {"a": 1, "b": 1, "top": 0}, {"a": 0, "b": 1, "top": 0},
                           P, hp)


def height_maps(P, h):
    """h, and the variants the height reader must read as `h.get` did: keys
    in reversed order, an extra key, an explicit None, missing elements and
    a negative height."""
    els = P.elements
    yield h
    yield dict(reversed(h.items()))
    yield {("extra",): -1, **h}
    yield {**h, els[len(els) // 2]: None}
    yield {e: h[e] for e in els[1::2]}  # no element at an even position
    yield {e: v for e, v in h.items() if e != els[-1]}
    yield {**h, els[-1]: -1}


def assert_heights_match_former_bodies(P, h):
    for variant in height_maps(P, h):
        got = outcome(soft._heights, P, variant)
        assert got == outcome(ref.heights, P, variant)
        if got[0] == "ok":
            hs = got[1]
            for m in [*range(-1, int(max(hs)) + 2), *set(hs)]:
                assert soft._at_most(hs, m) == ref.at_most(hs, m), m


@pytest.mark.parametrize("name", ["desk2", "desk3"])
def test_heights_match_former_bodies_on_desk(name, request):
    desk = request.getfixturevalue(name)
    h = desk.heights()
    assert_heights_match_former_bodies(desk, h)
    # keys rebuilt as equal conditions, none of them the element itself
    rebuilt = {copy.deepcopy(e): v for e, v in h.items()}
    assert not any(a is b for a, b in zip(rebuilt, desk.elements))
    assert_heights_match_former_bodies(desk, rebuilt)


def test_heights_match_former_bodies_on_random_posets():
    rng = random.Random(61)
    for _ in range(40):
        P = random_poset(rng, 7)
        h = {e: Fraction(rng.randint(0, 12), rng.randint(1, 4)) for e in P.elements}
        assert_heights_match_former_bodies(P, h)


class Counted:
    """An element that counts the hashes taken of it."""

    hashes = 0

    def __init__(self, name):
        self.name = name

    def __hash__(self):
        Counted.hashes += 1
        return hash(self.name)

    def __eq__(self, other):
        return isinstance(other, Counted) and self.name == other.name


def test_heights_hash_no_element():
    elements = [Counted(name) for name in ("a", "b", "c", "top")]
    P = soft.FinitePoset(elements, [(elements[0], elements[1])], elements[-1])
    h = {e: 0 for e in elements}
    Counted.hashes = 0
    assert soft._heights(P, h) == [0, 0, 0, 0]
    assert Counted.hashes == 0
    # one `h.get`, so one hash, per element is what the former body took
    assert ref.heights(P, h) == [0, 0, 0, 0] and Counted.hashes == len(elements)


def corrupt(rng, P, h):
    """A copy of h with one element lifted above something it lies below,
    so that the map stops being order-reversing when there is such a pair."""
    bad = dict(h)
    pairs = [(a, b) for a in P.elements for b in P.elements if a != b and P.leq(a, b)]
    if pairs:
        a, b = rng.choice(pairs)
        bad[b] = h[a] + rng.randint(1, 2)
    return bad


def escape(P, h, coords):
    report = soft.escape_function(P, h, soft.NameTable(coords))
    return [(c.m, c.prefix, c.f, c.punchline_ok) for c in report.coords]


def check_poset(rng, P, h, antichains, ms):
    """Every soft check on P agrees with the restatement, results and errors."""
    elems = list(P.elements)
    assert soft.check_height(P, h) == ref.check_height(P, h)
    bad = corrupt(rng, P, h)
    assert soft.check_height(P, bad) == ref.check_height(P, bad)
    for m in ms:
        for _ in range(3):
            ps = rng.sample(elems, rng.randint(0, min(2, len(elems))))
            qs = rng.sample(elems, rng.randint(0, min(4, len(elems))))
            for strong in (False, True):
                args = (P, h, ps, m, qs, strong)
                assert soft.verify_cover(*args) == ref.verify_cover(*args)
            found = soft.find_cover(P, h, ps, m)
            assert found == ref.find_cover(P, h, ps, m)
            assert soft.verify_cover(P, h, ps, m, found)
        for chain in antichains:
            args = (P, h, chain, m)
            assert outcome(soft.star_witness, *args) == outcome(ref.star_witness, *args)
    coords = tuple(
        (tuple(chain), tuple(rng.randint(0, 9) for _ in chain)) for chain in antichains
    )
    for n in range(len(coords) + 1):  # the broken antichains come last
        got = outcome(escape, P, h, coords[:n])
        assert got == outcome(ref.escape_function, P, h, coords[:n])


def test_soft_matches_restatement_on_random_posets():
    rng = random.Random(37)
    for _ in range(60):
        P = random_poset(rng, 7)
        h = chain_heights(P, rng)
        antichains = [greedy_max_antichain(P, rng) for _ in range(2)]
        # broken inputs: a non-maximal prefix and a repeated member
        antichains.append(antichains[0][:-1])
        antichains.append(antichains[0] + antichains[0][:1])
        ms = range(max(h.values()) + 2)
        check_poset(rng, P, h, antichains, ms)


def test_soft_matches_restatement_on_desk2(desk2):
    rng = random.Random(41)
    h = desk2.heights()
    for _ in range(4):
        antichains = [greedy_max_antichain(desk2, rng) for _ in range(2)]
        # two members: compatible with each other, or far from maximal
        rest = [e for e in desk2.elements if e not in antichains[0]]
        antichains.append(antichains[0][:1] + rng.sample(rest, 1))
        check_poset(rng, desk2, h, antichains, range(3))


def test_soft_matches_restatement_on_desk3(desk3):
    rng = random.Random(43)
    h = desk3.heights()
    low = [e for e in desk3.elements if e.n <= 2]
    chains = [greedy_max_antichain(desk3, rng) for _ in range(2)]
    for m in range(4):
        for chain in chains:
            assert soft.star_witness(desk3, h, chain, m) == ref.star_witness(
                desk3, h, chain, m
            )
    coords = tuple(
        (tuple(chain), tuple(rng.randint(0, 20) for _ in chain)) for chain in chains
    )
    assert escape(desk3, h, coords) == ref.escape_function(desk3, h, coords)
    for k in (1, 2):
        ps = [rng.choice(low)]
        family = iterate_cover(ps, k)
        for qs in (family, family[1:]):
            assert soft.verify_cover(desk3, h, ps, k, qs) == ref.verify_cover(
                desk3, h, ps, k, qs
            )
