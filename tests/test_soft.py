import ast
import random
import re
from fractions import Fraction

import pytest

from support import assert_value_errors, chain_heights, greedy_max_antichain, random_poset

from clopenforce.cantor import ClopenSet, canonicalize, full_set
from clopenforce.perfectposet import DeskPoset
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


def antichain_poset(names):
    return FinitePoset(list(names) + ["top"], [], "top")


def test_finite_poset_validation():
    with pytest.raises(ValueError):
        FinitePoset(["a", "b", "top"], [("a", "b"), ("b", "a")], "top")
    with pytest.raises(ValueError):
        FinitePoset(["a", "b", "c", "top"], [("a", "b"), ("b", "c")], "top")
    FinitePoset(["a", "b", "c", "top"], [("a", "b"), ("b", "c"), ("a", "c")], "top")
    with pytest.raises(ValueError):
        FinitePoset(["a"], [], "b")


def test_finite_poset_validation_matches_relation_restatement():
    # every relation on four elements below a top: rejected exactly when its
    # reflexive closure with the top breaks an axiom, naming the first
    # violation in element order (antisymmetry first; by the larger element,
    # then the smaller; transitivity by c, then b, then a); accepted
    # relations are what leq answers
    els = ("a", "b", "c", "d", "t")
    pairs = [(x, y) for x in "abcd" for y in "abcd" if x != y]
    for bits in range(1 << len(pairs)):
        given = [p for k, p in enumerate(pairs) if bits >> k & 1]
        rel = set(given) | {(e, e) for e in els} | {(e, "t") for e in els}
        cycles = [(x, y) for x, y in rel if x < y and (y, x) in rel]
        gaps = [
            (x, y, z) for x, y in rel for y2, z in rel if y == y2 and (x, z) not in rel
        ]
        # the same relation as down-set rows, handed to the shared validator
        rows = [1 << i for i in range(len(els))]
        for x, y in given:
            rows[els.index(y)] |= 1 << els.index(x)
        if cycles or gaps:
            with pytest.raises(ValueError) as err:
                FinitePoset(els, given, "t")
            if cycles:
                first = "antisymmetry", min(cycles, key=lambda p: p[::-1])
            else:
                first = "transitivity", min(gaps, key=lambda t: t[::-1])
            kind, _, at = str(err.value).partition(" violated at ")
            assert (kind, ast.literal_eval(at)) == first, given
            with pytest.raises(ValueError, match=f"^{re.escape(str(err.value))}$"):
                FinitePoset._from_rows(els, "t", rows)
            continue
        P = FinitePoset(els, given, "t")
        assert {(x, y) for x in els for y in els if P.leq(x, y)} == rel
        Q = FinitePoset._from_rows(els, "t", rows)
        assert [Q.down_row(i) for i in range(5)] == [P.down_row(i) for i in range(5)]
    assert not P.leq("a", "zz") and not P.leq("zz", "t")


def test_check_height_examples():
    P = FinitePoset(["a", "b", "top"], [("a", "b")], "top")
    assert check_height(P, {"a": 1, "b": 1, "top": 1})
    assert not check_height(P, {"a": 0, "b": 1, "top": 0})
    Q = antichain_poset("abc")
    assert check_height(Q, {"a": 5, "b": 0, "c": 2, "top": 0})
    with pytest.raises(ValueError):
        check_height(P, {"a": 0})


def test_verify_cover_examples():
    Q = antichain_poset("abc")
    h = {e: 0 for e in Q.elements}
    assert verify_cover(Q, h, ["top"], 3, [])
    assert verify_cover(Q, h, [], 3, ["top"])
    assert verify_cover(Q, h, ["a"], 0, ["b", "c"])
    # clause (i) failure: member compatible with ps
    assert not verify_cover(Q, h, ["a"], 0, ["a"])
    # clause (ii) failure: uncovered incompatible element
    assert not verify_cover(Q, h, ["a"], 0, ["b"])


def test_find_cover_top_and_chain():
    Q = antichain_poset("abc")
    h = {e: 0 for e in Q.elements}
    assert find_cover(Q, h, ["top"], 5) == []
    # chain below the antichain element a: cover is the chain's maximum
    P = FinitePoset(
        ["x", "a", "b", "c", "top"],
        [("c", "b"), ("b", "a"), ("c", "a")],
        "top",
    )
    hp = {"x": 0, "a": 0, "b": 1, "c": 2, "top": 0}
    assert find_cover(P, hp, ["x"], 2) == ["a"]
    assert verify_cover(P, hp, ["x"], 2, ["a"])


def test_find_cover_can_need_every_candidate():
    # a and b each dominate only themselves, so the cover is the whole list
    Q = antichain_poset("abc")
    h = {e: 0 for e in Q.elements}
    assert find_cover(Q, h, ["c"], 0) == ["a", "b"]


def test_star_witness_examples():
    # singleton maximal antichain
    P = FinitePoset(["a", "top"], [], "top")
    assert star_witness(P, {"a": 0, "top": 0}, ["top"], 0) == 1
    assert star_witness(P, {"a": 1, "top": 1}, ["top"], 0) == 0
    # two-element maximal antichain, all heights 0
    Q = antichain_poset("ab")
    h0 = {e: 0 for e in Q.elements}
    assert star_witness(Q, h0, ["a", "b"], 0) == 2


def test_star_witness_rejects_non_maximal():
    Q = antichain_poset("ab")
    h0 = {e: 0 for e in Q.elements}
    with pytest.raises(ValueError):
        star_witness(Q, h0, ["a"], 0)  # b avoids every member
    P = FinitePoset(["a", "b", "top"], [("a", "b")], "top")
    with pytest.raises(ValueError):
        star_witness(P, {"a": 0, "b": 0, "top": 0}, ["a", "b"], 0)


def test_error_messages():
    Q = antichain_poset("abc")
    h0 = {e: 0 for e in Q.elements}
    with pytest.raises(ValueError, match=r"^height function undefined on \['b'\]\.\.\.$"):
        verify_cover(Q, {"a": 0, "c": 0, "top": 0}, [], 0, [])
    with pytest.raises(ValueError, match="^heights must be nonnegative$"):
        find_cover(Q, dict(h0, c=-1), ["a"], 0)
    with pytest.raises(ValueError, match="^'zz' is not an element$"):
        verify_cover(Q, h0, ["a"], 0, ["b", "zz"])
    # the lowest-index element avoiding every member is named
    with pytest.raises(ValueError, match="^antichain not maximal: 'a' avoids every member$"):
        star_witness(Q, h0, ["b"], 0)
    last = FinitePoset(["top", "a", "b"], [], "top")
    with pytest.raises(ValueError, match="^antichain not maximal: 'b' avoids every member$"):
        star_witness(last, {e: 0 for e in last.elements}, ["a"], 0)
    # the first compatible pair in chain order is named: (x, w) comes
    # before (y, z) although z is reached before w
    P = FinitePoset(
        ["x", "y", "z", "w", "l1", "l2", "top"],
        [("l1", "y"), ("l1", "z"), ("l2", "x"), ("l2", "w")],
        "top",
    )
    hp = {e: 0 for e in P.elements}
    with pytest.raises(ValueError, match="^not an antichain: 'x' and 'w' are compatible$"):
        star_witness(P, hp, ["x", "y", "z", "w"], 0)
    with pytest.raises(ValueError, match="^not an antichain: 'a' and 'a' are compatible$"):
        star_witness(Q, h0, ["a", "b", "a"], 0)


def test_poset_inputs_fail_by_name():
    Q = antichain_poset("ab")
    zero = {e: 0 for e in Q.elements}
    assert_value_errors([
        (lambda: FinitePoset(["a", "b", "a", "top"], [], "top"), "duplicate elements"),
        (lambda: product_height_step(-1, 0, 0, False),
         "heights and support sizes are nonnegative"),
        (lambda: product_height_step(1, 0, -1, True),
         "heights and support sizes are nonnegative"),
        (lambda: product_poset(Q, zero, dict(zero, top=1), Q, zero),
         "support of the top element must be 0"),
    ])


def test_non_element_in_antichain_is_a_value_error():
    Q = antichain_poset("ab")
    h0 = {e: 0 for e in Q.elements}
    with pytest.raises(ValueError, match="^'zz' is not an element$"):
        star_witness(Q, h0, ["a", "zz"], 0)
    table = NameTable(((("a", "zz"), (1, 2)),))
    with pytest.raises(ValueError, match="^'zz' is not an element$"):
        escape_function(Q, h0, table)


def test_find_cover_on_unorderable_elements():
    # ids that do not compare fall back to str order; every candidate
    # survives the failed first sort
    P = FinitePoset([1, "a", (2,), "top"], [], "top")
    h = {e: 0 for e in P.elements}
    assert find_cover(P, h, ["a"], 0) == [(2,), 1]
    desk = DeskPoset(2)
    heights = desk.heights()
    for p in desk.elements[:8]:
        cover = find_cover(desk, heights, [p], 2)
        assert verify_cover(desk, heights, [p], 2, cover)


def test_star_witness_matches_empty_cover_boundary():
    # beyond the witness prefix the height-bounded cover is empty, before
    # it is not: the finite-scale content of the prefix witness property
    rng = random.Random(23)
    for _ in range(60):
        P = random_poset(rng, 6)
        h = chain_heights(P, rng)
        chain = greedy_max_antichain(P, rng)
        m = rng.randint(0, max(h.values()))
        w = star_witness(P, h, chain, m)
        for n in range(len(chain) + 1):
            cover = find_cover(P, h, chain[:n], m)
            assert (cover == []) == (n >= w)


def test_escape_examples():
    P = FinitePoset(["top"], [], "top")
    rep = escape_function(P, {"top": 0}, NameTable(((("top",), (7,)),)))
    assert rep.f() == {0: 7} and rep.ok

    Q = antichain_poset("ab")
    h0 = {e: 0 for e in Q.elements}
    rep = escape_function(Q, h0, NameTable(((("a", "b"), (5, 3)),)))
    assert rep.prefix_cuts() == {0: 2}
    assert rep.f() == {0: 5} and rep.ok

    # vacuous coordinate: nothing of height <= 0, empty max is 0
    h1 = {e: 1 for e in Q.elements}
    rep = escape_function(Q, h1, NameTable(((("a", "b"), (5, 3)),)))
    assert rep.f() == {0: 0} and rep.ok


def test_product_height_step_examples():
    assert product_height_step(2, 2, 1, False) == 3
    assert product_height_step(2, 2, 1, True) == 2
    assert product_height_step(2, 1, 3, False) == 3
    with pytest.raises(ValueError):
        product_height_step(2, 3, 1, False)


def test_product_cover_top_examples():
    Q = antichain_poset("ab")
    hq = {e: 0 for e in Q.elements}
    supp = {e: 0 for e in Q.elements}
    P = antichain_poset("xy")
    hp = {e: 0 for e in P.elements}
    assert product_cover(Q, hq, supp, P, hp, [("top", "top")], 2) == []
    # one pair with first coordinate top: cover is {top} x cover({x})
    got = product_cover(Q, hq, supp, P, hp, [("top", "x")], 2)
    expected = sorted(("top", q) for q in find_cover(P, hp, ["x"], 2))
    assert got == expected


def test_product_cover_verifies_in_product():
    rng = random.Random(5)
    for _ in range(40):
        Q = random_poset(rng, 4)
        P = random_poset(rng, 4)
        gq = chain_heights(Q, rng)
        hp = chain_heights(P, rng)
        supp = {e: min(gq[e], chain_heights(Q)[e]) for e in Q.elements}
        pairs = [
            (rng.choice(Q.elements), rng.choice(P.elements))
            for _ in range(rng.randint(1, 2))
        ]
        m = rng.randint(0, 3)
        cover = product_cover(Q, gq, supp, P, hp, pairs, m)
        poset, heights = product_poset(Q, gq, supp, P, hp)
        assert check_height(poset, heights)
        assert verify_cover(poset, heights, pairs, m, cover)


def test_strong_cover_implies_weak():
    rng = random.Random(9)
    for _ in range(50):
        P = random_poset(rng, 5)
        h = chain_heights(P, rng)
        ps = [rng.choice(P.elements) for _ in range(rng.randint(0, 2))]
        qs = rng.sample(P.elements, rng.randint(0, len(P.elements)))
        m = rng.randint(0, 3)
        if verify_cover(P, h, ps, m, qs, strong=True):
            assert verify_cover(P, h, ps, m, qs, strong=False)


def test_random_height_examples():
    assert random_height(full_set(2)) == 1
    third = canonicalize(["000", "001", "010"], 3)  # measure 3/8
    assert random_height(third) == 3
    assert random_height(canonicalize(["00"], 2)) == 4
    with pytest.raises(ValueError):
        random_height(ClopenSet(2, 0))


def test_random_height_one_third():
    # measure exactly 1/3 is not dyadic; check the formula on the fraction
    import math

    assert math.ceil(Fraction(1) / Fraction(1, 3)) == 3
    assert math.ceil(Fraction(1) / Fraction(3, 8)) == 3
