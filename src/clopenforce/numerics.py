"""Exact rational arithmetic and the binomial tail quantity eps(k, k').

Every quantity in the package is a `fractions.Fraction` (or an int); there
is no floating point anywhere.  Rationals serialize as "p/q" ("p" when the
denominator is 1).
"""

from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction


def rational(text: str | int | Fraction) -> Fraction:
    """Parse the "p/q" / "p" wire form (ints and Fractions pass through).

    A zero denominator is a ValueError, like any other malformed text.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def rational_str(x: Fraction | int) -> str:
    return str(Fraction(x))


def binom(n: int, j: int) -> int:
    """C(n, j); 0 when j > n."""
    if n < 0 or j < 0:
        raise ValueError("binom requires nonnegative arguments")
    if j > n:
        return 0
    return math.comb(n, j)


def epsilon(k: int, k_prime: int) -> Fraction:
    """2^(1-k) * sum_{j<k'} C(k, j), the leading 1 read as C(k, 0).

    Equals twice the lower binomial tail P(Bin(k, 1/2) < k'), hence the
    exact loss budget of one halving round.  Accepts k' = k (where the
    value exceeds 1 and the halving bound is vacuous).
    """
    if not 1 <= k_prime <= k:
        raise ValueError(f"need 1 <= k' <= k, got k'={k_prime}, k={k}")
    tail = sum(binom(k, j) for j in range(k_prime))
    return Fraction(2 * tail, 2**k)


def min_k_for(k_prime: int, bound: Fraction) -> int:
    """Least k > k' with epsilon(k, k') <= bound.

    Terminates for every positive bound: at fixed k' the tail sum is
    polynomial in k while the 2^(1-k) factor decays.  Each candidate costs
    O(1) big-int steps: S(k+1) = 2 S(k) - C(k, k'-1) for the tail sum.
    """
    if k_prime < 1:
        raise ValueError("k' must be positive")
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError("bound must be positive")
    k = k_prime + 1
    tail = sum(binom(k, j) for j in range(k_prime))
    edge = binom(k, k_prime - 1)
    while 2 * tail * bound.denominator > bound.numerator << k:  # epsilon > bound
        tail = 2 * tail - edge
        edge = edge * (k + 1) // (k + 2 - k_prime)
        k += 1
    return k
