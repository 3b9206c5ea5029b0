"""Measure-matched product conditions, nested diagonal chains, and the
rational parameter schedule with its inequality chain.

Only the purely numeric skeleton of the estimate is implemented: per-level
partitions with exact measure budgets, and the slack quantities zeta_l with
the per-level step inequality.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

from .cantor import ClopenSet, check_depth, cyl_mask, full_set, measure
from .errors import DepthExhausted, GranularityTooCoarse, SearchExhausted

__all__ = [
    "ChainReport",
    "DiagonalChain",
    "ParamCheck",
    "ParamReport",
    "ParamSchedule",
    "ProductCondition",
    "build_chain",
    "find_params",
    "is_quadratic",
    "validate_params",
    "verify_chain",
    "zeta",
]


@dataclass(frozen=True)
class ProductCondition:
    p: ClopenSet
    q: ClopenSet

    def __post_init__(self) -> None:
        if self.p.mask == 0 or self.q.mask == 0:
            raise ValueError("product conditions need positive measure")

    def measure(self) -> Fraction:
        return measure(self.p) * measure(self.q)


def is_quadratic(c: ProductCondition, parent: ProductCondition | None = None) -> bool:
    """Equal coordinate measures; relative to a parent, equal measure ratios."""
    if parent is None:
        return measure(c.p) == measure(c.q)
    depth = max(c.p.depth, c.q.depth, parent.p.depth, parent.q.depth)
    if c.p.at_depth(depth).mask & ~parent.p.at_depth(depth).mask:
        raise ValueError("first coordinate not nested in parent")
    if c.q.at_depth(depth).mask & ~parent.q.at_depth(depth).mask:
        raise ValueError("second coordinate not nested in parent")
    return measure(c.p) / measure(parent.p) == measure(c.q) / measure(parent.q)


ChainKey = tuple[tuple[int, ...], tuple[int, ...], int]


@dataclass(frozen=True)
class DiagonalChain:
    """Entries keyed by (sigma, tau, i) with sigma, tau coordinatewise
    distinct index strings shorter than the order."""

    order: int
    entries: Mapping[ChainKey, ProductCondition]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be positive")
        for sigma, tau, i in self.entries:
            if len(sigma) != len(tau) or len(sigma) >= self.order:
                raise ValueError(f"bad index string pair {sigma}/{tau}")
            if any(a == b for a, b in zip(sigma, tau)):
                raise ValueError(f"index strings must differ coordinatewise: {sigma}/{tau}")
            if i < 0:
                raise ValueError("entry index must be nonnegative")

    def families(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, ProductCondition]]:
        out: dict = {}
        for (sigma, tau, i), cond in self.entries.items():
            out.setdefault((sigma, tau), {})[i] = cond
        return out


def build_chain(m: int, granularity: int, v: int, depth: int) -> DiagonalChain:
    """Uniform-splitting witness chain.

    Each level cuts every parent coordinate into 2^granularity equal
    cylinders, so children are exactly quadratic and each family's product
    mass is the parent's divided by 2^granularity, strictly inside the
    1/v budget whenever 2^granularity exceeds v.
    """
    if m < 1 or granularity < 1 or v < 1:
        raise ValueError("m, granularity, v must be positive")
    if granularity < v.bit_length():
        raise GranularityTooCoarse(
            f"2^{granularity} pieces cannot beat the 1/{v} budget"
        )
    if m * granularity > check_depth(depth):
        raise DepthExhausted(f"{m} levels of {granularity} bits exceed depth {depth}")
    span = 1 << granularity
    entries: dict[ChainKey, ProductCondition] = {}

    def cylinder(path: tuple[int, ...]) -> ClopenSet:
        level = granularity * len(path)
        index = 0
        for step in path:
            index = index << granularity | step
        return ClopenSet(depth, cyl_mask(depth, level, index))

    def extend(sigma: tuple[int, ...], tau: tuple[int, ...]) -> None:
        level = len(sigma)
        for i in range(span):
            entries[(sigma, tau, i)] = ProductCondition(
                cylinder(sigma + (i,)), cylinder(tau + (i,))
            )
        if level + 1 < m:
            for i in range(span):
                for j in range(span):
                    if i != j:
                        extend(sigma + (i,), tau + (j,))

    extend((), ())
    return DiagonalChain(m, entries)


@dataclass(frozen=True)
class ChainReport:
    violations: tuple[str, ...]
    families: int
    entries: int

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_chain(chain: DiagonalChain, v: int) -> ChainReport:
    """Audit every family: quadratic in its parent, an exact partition of
    the parent coordinates, and the per-node product-measure budget.

    Every coordinate is read at the chain's deepest depth d, where a
    measure is a leaf count over 2^d.  The checks compare leaf counts, so
    the common 2^d cancels: quadratic is |p||pq| == |q||pp| and the budget
    is v * sum |p||q| < |pp||pq|.  Fractions are built only for the text
    of a budget violation.
    """
    if v < 1:
        raise ValueError("v must be positive")
    bad: list[str] = []
    fams = chain.families()
    if not chain.entries:
        return ChainReport((), 0, 0)
    depth = max(
        max(c.p.depth, c.q.depth) for c in chain.entries.values()
    )
    for (sigma, tau), fam in sorted(fams.items()):
        label = f"sigma={list(sigma)} tau={list(tau)}"
        if sigma:
            pkey = (sigma[:-1], tau[:-1], sigma[-1])
            qkey = (sigma[:-1], tau[:-1], tau[-1])
            if pkey not in chain.entries or qkey not in chain.entries:
                bad.append(f"{label}: parent entries missing")
                continue
            parent_p = chain.entries[pkey].p
            parent_q = chain.entries[qkey].q
        else:
            parent_p = full_set(depth)
            parent_q = full_set(depth)
        pp = parent_p.at_depth(depth).mask
        pq = parent_q.at_depth(depth).mask
        cpp, cpq = pp.bit_count(), pq.bit_count()  # leaf counts
        union_p = union_q = 0
        leaves = 0
        for i, cond in sorted(fam.items()):
            p = cond.p.at_depth(depth).mask
            q = cond.q.at_depth(depth).mask
            if p & ~pp or q & ~pq:
                bad.append(f"{label} i={i}: not nested in parent")
                continue
            cp, cq = p.bit_count(), q.bit_count()
            if cp * cpq != cq * cpp:
                bad.append(f"{label} i={i}: not quadratic in parent")
            if union_p & p or union_q & q:
                bad.append(f"{label} i={i}: overlaps an earlier piece")
            union_p |= p
            union_q |= q
            leaves += cp * cq
        if union_p != pp or union_q != pq:
            bad.append(f"{label}: pieces do not partition the parent")
        if not v * leaves < cpp * cpq:
            cell = 1 << 2 * depth
            bad.append(
                f"{label}: mass {Fraction(leaves, cell)} not below"
                f" {Fraction(cpp * cpq, v * cell)}"
            )
    return ChainReport(tuple(bad), len(fams), len(chain.entries))


@dataclass(frozen=True)
class ParamSchedule:
    m: int
    delta: Fraction
    z: tuple[int, ...]
    y: tuple[int, ...]
    eps: Fraction
    v: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be positive")
        if len(self.z) != self.m or len(self.y) != self.m - 1:
            raise ValueError("need m z-values and m-1 y-values")
        if any(zj < 1 for zj in self.z) or any(yj < 1 for yj in self.y):
            raise ValueError("z and y are positive integers")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.v < 1:
            raise ValueError("v must be a positive integer")


def _slack_term(ps: ParamSchedule, variant: str) -> Fraction:
    if variant == "2.5":
        return ps.eps + ps.delta**-2 * ps.eps * ps.m * ps.z[-1] + ps.delta
    if variant == "2.6":
        return ps.eps + ps.delta**-2 * ps.m * ps.z[-1] + ps.delta
    raise ValueError(f"unknown zeta variant {variant!r}")


def zeta(ps: ParamSchedule, l: int, variant: str = "2.5") -> Fraction:
    """Accumulated slack at level l; zero at l = m."""
    if not 0 <= l <= ps.m:
        raise ValueError("level out of range")
    tail = sum(
        (Fraction(ps.y[j], ps.z[j + 1]) for j in range(l, ps.m - 1)), Fraction(0)
    )
    return 2 * (ps.m - l) * _slack_term(ps, variant) + tail


@dataclass(frozen=True)
class ParamCheck:
    name: str
    passed: bool
    message: str


@dataclass(frozen=True)
class ParamReport:
    checks: tuple[ParamCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[ParamCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


# each comparison with its negation, which a failed check shows
_COMPARE = {"<": (operator.lt, ">="), "<=": (operator.le, ">"),
            ">": (operator.gt, "<="), ">=": (operator.ge, "<")}


def validate_params(ps: ParamSchedule, variant: str = "2.5") -> ParamReport:
    """Exact pass/fail for every constraint the estimate leans on.

    A compared check is stated once, as lhs op rhs; its message shows op
    when the check holds and the negation when it fails.  The texts for a
    degenerate eps, the y = 4z ratio and eps >= 1 are fixed.
    """
    checks: list[ParamCheck] = []

    def add(name: str, passed: bool, message: str) -> None:
        checks.append(ParamCheck(name, passed, message))

    def compare(name: str, label: str, lhs, op: str, rhs) -> None:
        holds, negated = _COMPARE[op]
        passed = holds(lhs, rhs)
        add(name, passed, f"{label} {lhs} {op if passed else negated} {rhs}")

    if ps.eps > 0:
        compare("eps-positive", "eps", ps.eps, ">", 0)
    else:
        add("eps-positive", False, f"eps {ps.eps} degenerate")
    compare("z0", "z0", ps.z[0], ">", 1)
    bad_y = [j for j in range(ps.m - 1) if ps.y[j] != 4 * ps.z[j]]
    add(
        "y-ratio",
        not bad_y,
        "y = 4z" if not bad_y else f"y[{bad_y[0]}] {ps.y[bad_y[0]]} != 4*{ps.z[bad_y[0]]}",
    )
    if ps.eps >= 1:
        add("z-v", False, f"eps {ps.eps} >= 1 makes the budget vacuous")
    else:
        compare("z-v", f"z_{ps.m - 1}", ps.z[-1], "<=", ps.v * (1 - ps.eps) ** 2)
    compare("zeta0", "zeta0", zeta(ps, 0, variant), "<", Fraction(1, 4**ps.m))
    for l in range(ps.m - 1):
        if ps.eps >= 1:
            add(f"step{l}", False, f"step{l}: eps {ps.eps} >= 1")
        else:
            budget = Fraction(1, ps.v) / (1 - ps.eps) ** 2
            lhs = 1 - Fraction(1, ps.z[-1]) - Fraction(1, ps.y[l]) - budget - 2 * ps.eps
            compare(f"step{l}", f"step{l}", lhs, ">=", 1 - Fraction(1, ps.z[l]))
    return ParamReport(tuple(checks))


def find_params(m: int) -> ParamSchedule:
    """Deterministic witness search: delta and eps on the 4^-a grid, z
    growing by a 4-power factor, v minimal for the budget constraint.

    zeta_0 is affine in eps, so each scale reads its value and slope from
    `zeta` at eps = 0 and 1.  Demonstrates that the informal smallness
    requirements are jointly realizable; first success along the scale
    sequence wins.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m > 6:
        raise SearchExhausted("search budget is m <= 6")
    bound = Fraction(1, 4**m)
    for s in range(1, 81):
        delta = Fraction(1, 4**s)
        z = tuple(2 * 4 ** ((s + 1) * j) for j in range(m))
        y = tuple(4 * zj for zj in z[:-1])
        at0 = ParamSchedule(m, delta, z, y, Fraction(0), 1)
        const = zeta(at0, 0)
        if const >= bound:
            continue
        coef = zeta(replace(at0, eps=Fraction(1)), 0) - const
        # each step's slack 1/z_l - 2/z_{m-1} - 1/y_l is positive: with
        # z_{m-1} >= 16 z_l and y_l = 4 z_l it is >= 3/(4 z_l) - 1/(8 z_l)
        cap = min([(bound - const) / coef] + [
            (Fraction(1, z[l]) - Fraction(2, z[-1]) - Fraction(1, y[l])) / 2
            for l in range(m - 1)
        ])
        b = 1
        while b <= 2000 and Fraction(1, 4**b) >= cap:
            b += 1
        if b > 2000:
            continue
        eps = Fraction(1, 4**b)
        v = max(1, math.ceil(z[-1] / (1 - eps) ** 2))
        candidate = replace(at0, eps=eps, v=v)
        if validate_params(candidate).ok:
            return candidate
    raise SearchExhausted(f"no schedule found for m={m} on the scale grid")
