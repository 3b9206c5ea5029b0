from fractions import Fraction

import pytest

from clopenforce.numerics import (
    binom,
    epsilon,
    min_k_for,
    rational,
    rational_str,
)


def test_binom_values():
    assert binom(4, 2) == 6
    for k in (0, 1, 5, 12):
        assert binom(k, 0) == 1
    assert binom(3, 5) == 0


def test_binom_rejects_negative():
    with pytest.raises(ValueError):
        binom(-1, 0)
    with pytest.raises(ValueError):
        binom(3, -2)


def test_epsilon_values():
    assert epsilon(3, 1) == Fraction(1, 4)
    assert epsilon(1, 1) == 1
    assert epsilon(4, 2) == Fraction(5, 8)


def test_epsilon_rejects_bad_kprime():
    with pytest.raises(ValueError):
        epsilon(3, 0)
    with pytest.raises(ValueError):
        epsilon(3, 4)


def test_epsilon_is_twice_the_lower_tail():
    # independent count: subsets of a k-set with fewer than k' elements
    for k in range(1, 13):
        for kp in range(1, k + 1):
            low = sum(
                1 for s in range(1 << k) if s.bit_count() < kp
            )
            assert epsilon(k, kp) == Fraction(2 * low, 1 << k)


def test_epsilon_strictly_decreasing_in_k():
    for kp in range(1, 9):
        values = [epsilon(k, kp) for k in range(kp + 1, 21)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_epsilon_diagonal_identity():
    for k in range(1, 17):
        assert epsilon(k, k) == 2 - Fraction(1, 2 ** (k - 1))


def test_min_k_for_values():
    assert min_k_for(1, Fraction(1, 2)) == 2
    assert min_k_for(1, Fraction(1, 16)) == 5
    assert min_k_for(2, Fraction(1)) == 3


def test_min_k_for_is_minimal():
    # the definition read literally: scan k = k'+1, k'+2, ... through epsilon
    for kp in range(1, 41):
        for bound in (Fraction(2), Fraction(1), Fraction(1, 2), Fraction(1, 7),
                      Fraction(3, 100), Fraction(1, 1000), Fraction(1, 10**6)):
            k = kp + 1
            while epsilon(k, kp) > bound:
                k += 1
            assert min_k_for(kp, bound) == k, (kp, bound)


def test_min_k_for_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        min_k_for(1, Fraction(0))
    with pytest.raises(ValueError):
        min_k_for(0, Fraction(1, 2))


def test_rational_wire_format():
    assert rational("5/8") == Fraction(5, 8)
    assert rational("3") == 3
    assert rational_str(Fraction(5, 8)) == "5/8"
    assert rational_str(Fraction(6, 2)) == "3"
    assert rational_str(Fraction(-1, 4)) == "-1/4"
    for bad in ("1/0", "0/0", "one", "1/"):
        with pytest.raises(ValueError):
            rational(bad)
