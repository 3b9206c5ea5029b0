"""Height functions, weak/strong finite covers, prefix witnesses, and the
escape function, over explicit finite posets.

Compatibility of two elements means existence of a common lower bound among
the listed elements, which makes every clause decidable by enumeration.  A
poset here is anything with `.elements`, `.top`, `.leq(a, b)` and
`.compatible(a, b)`; `FinitePoset` is the explicit implementation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence

from .cantor import ClopenSet, measure
from .errors import NoCoverError

Element = Hashable
HeightFn = Mapping[Element, int]


class FinitePoset:
    """Explicit finite partial order with a largest element.

    The order is given as pairs (a, b) meaning a <= b; reflexive closure is
    taken automatically, antisymmetry and transitivity are validated.
    Down-sets are cached as bitmasks over element indices so compatibility
    (existence of a common lower bound) is one AND.
    """

    def __init__(
        self,
        elements: Iterable[Element],
        leq_pairs: Iterable[tuple[Element, Element]],
        top: Element,
    ) -> None:
        self.elements: tuple[Element, ...] = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate elements")
        self.index = {e: i for i, e in enumerate(self.elements)}
        if top not in self.index:
            raise ValueError("top is not an element")
        self.top = top
        rel = set()
        for a, b in leq_pairs:
            if a not in self.index or b not in self.index:
                raise ValueError(f"relation pair ({a!r}, {b!r}) off the element list")
            rel.add((a, b))
        for e in self.elements:
            rel.add((e, e))
            rel.add((e, top))
        for a, b in rel:
            if a != b and (b, a) in rel:
                raise ValueError(f"antisymmetry violated at ({a!r}, {b!r})")
        for a, b in rel:
            for c in self.elements:
                if (b, c) in rel and (a, c) not in rel:
                    raise ValueError(f"transitivity violated at ({a!r}, {b!r}, {c!r})")
        self._rel = rel
        self._down = [0] * len(self.elements)
        for a, b in rel:
            self._down[self.index[b]] |= 1 << self.index[a]

    @classmethod
    def from_leq(cls, elements, leq, top) -> "FinitePoset":
        elements = tuple(elements)
        pairs = [(a, b) for a in elements for b in elements if leq(a, b)]
        return cls(elements, pairs, top)

    def leq(self, a: Element, b: Element) -> bool:
        return (a, b) in self._rel

    def compatible(self, a: Element, b: Element) -> bool:
        return self._down[self.index[a]] & self._down[self.index[b]] != 0


def _check_total(P, h: HeightFn) -> None:
    missing = [e for e in P.elements if e not in h]
    if missing:
        raise ValueError(f"height function undefined on {missing[:3]!r}...")
    if any(h[e] < 0 for e in P.elements):
        raise ValueError("heights must be nonnegative")


def check_height(P, h: HeightFn) -> bool:
    """True iff h is order-reversing: a <= b forces h(a) >= h(b)."""
    _check_total(P, h)
    return all(
        h[a] >= h[b] for a in P.elements for b in P.elements if P.leq(a, b)
    )


def _sorted_ids(pool: Iterable[Element]) -> list[Element]:
    try:
        return sorted(pool)  # type: ignore[type-var]
    except TypeError:
        return sorted(pool, key=str)


def verify_cover(
    P,
    h: HeightFn,
    ps: Sequence[Element],
    m: int,
    qs: Sequence[Element],
    strong: bool = False,
) -> bool:
    """Check the finite cover clauses for qs against ps at height bound m.

    (i) every member of qs is incompatible with every member of ps;
    (ii) every element incompatible with all of ps, of height <= m (or
    unconditionally when strong), lies below some member of qs.
    """
    _check_total(P, h)
    for e in itertools.chain(ps, qs):
        if e not in P.index:
            raise ValueError(f"{e!r} is not an element")
    for q in qs:
        for p in ps:
            if P.compatible(q, p):
                return False
    for x in P.elements:
        if not strong and h[x] > m:
            continue
        if any(P.compatible(x, p) for p in ps):
            continue
        if not any(P.leq(x, q) for q in qs):
            return False
    return True


def find_cover(P, h: HeightFn, ps: Sequence[Element], m: int) -> list[Element]:
    """Smallest weak finite cover for ps at m; lexicographic tie-break.

    Candidates must themselves be incompatible with every member of ps
    (clause (i)); subsets are tried by size, then by id order, and the
    first one dominating every height-<= m target wins.
    """
    _check_total(P, h)
    pool = _sorted_ids(
        e for e in P.elements if all(not P.compatible(e, p) for p in ps)
    )
    targets = [e for e in pool if h[e] <= m]
    for size in range(len(pool) + 1):
        for qs in itertools.combinations(pool, size):
            if all(any(P.leq(x, q) for q in qs) for x in targets):
                return list(qs)
    raise NoCoverError(f"no weak finite cover for {list(ps)!r} at m={m}")


def star_witness(P, h: HeightFn, antichain: Sequence[Element], m: int) -> int:
    """Minimal prefix length n of a maximal antichain such that anything
    incompatible with the whole prefix has height > m."""
    _check_total(P, h)
    chain = list(antichain)
    for a, b in itertools.combinations(chain, 2):
        if P.compatible(a, b):
            raise ValueError(f"not an antichain: {a!r} and {b!r} are compatible")
    pos = {e: i for i, e in enumerate(chain)}
    witness = 0
    for x in P.elements:
        first = next((i for i, a in enumerate(chain) if P.compatible(x, a)), None)
        if first is None:
            raise ValueError(f"antichain not maximal: {x!r} avoids every member")
        if h[x] <= m:
            witness = max(witness, first + 1)
    return witness


@dataclass(frozen=True)
class NameTable:
    """Per coordinate: a maximal antichain and the value it decides."""

    coords: tuple[tuple[tuple[Element, ...], tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        for antichain, values in self.coords:
            if len(antichain) != len(values):
                raise ValueError("antichain and value list lengths differ")
            if any(v < 0 for v in values):
                raise ValueError("decided values must be nonnegative")


@dataclass(frozen=True)
class EscapeCoordinate:
    m: int
    prefix: int
    f: int
    punchline_ok: bool


@dataclass(frozen=True)
class EscapeReport:
    coords: tuple[EscapeCoordinate, ...]

    def f(self) -> dict[int, int]:
        return {c.m: c.f for c in self.coords}

    def prefix_cuts(self) -> dict[int, int]:
        return {c.m: c.prefix for c in self.coords}

    @property
    def ok(self) -> bool:
        return all(c.punchline_ok for c in self.coords)


def escape_function(P, h: HeightFn, table: NameTable) -> EscapeReport:
    """The escape value per coordinate, plus the finite no-domination check.

    For coordinate m the prefix cut n_m comes from `star_witness`; f(m) is
    the largest value decided on that prefix (0 for an empty prefix).  The
    punchline re-verifies that every element of height <= m is compatible
    with a prefix member deciding a value <= f(m), so nothing of height <= m
    can push the decided value above f(m).
    """
    out = []
    for m, (antichain, values) in enumerate(table.coords):
        n_m = star_witness(P, h, antichain, m)
        f_m = max(values[:n_m], default=0)
        ok = True
        for x in P.elements:
            if h[x] > m:
                continue
            if not any(
                P.compatible(x, antichain[j]) and values[j] <= f_m
                for j in range(n_m)
            ):
                ok = False
        out.append(EscapeCoordinate(m, n_m, f_m, ok))
    return EscapeReport(tuple(out))


def product_height_step(gq: int, suppq: int, hp: int, p_is_top: bool) -> int:
    """One successor step of the product height.

    With m the larger of the factor heights, the pair gets m+1 exactly when
    the first factor's support already fills m and the second coordinate is
    a real commitment; otherwise m.
    """
    if min(gq, suppq, hp) < 0:
        raise ValueError("heights and support sizes are nonnegative")
    if suppq > gq:
        raise ValueError("support size may not exceed the factor height")
    m = max(gq, hp)
    return m + 1 if suppq == m and not p_is_top else m


def product_poset(
    Pq,
    gq: HeightFn,
    supp_q: HeightFn,
    Pp,
    hp: HeightFn,
) -> tuple[FinitePoset, dict[tuple[Element, Element], int]]:
    """Coordinatewise-ordered product with the stepped height attached."""
    _check_total(Pq, gq)
    _check_total(Pq, supp_q)
    _check_total(Pp, hp)
    if supp_q[Pq.top] != 0:
        raise ValueError("support of the top element must be 0")
    if not check_height(Pq, supp_q):
        raise ValueError("support size must be order-reversing")
    elements = [(q, p) for q in Pq.elements for p in Pp.elements]
    pairs = [
        (a, b)
        for a in elements
        for b in elements
        if Pq.leq(a[0], b[0]) and Pp.leq(a[1], b[1])
    ]
    poset = FinitePoset(elements, pairs, (Pq.top, Pp.top))
    heights = {
        (q, p): product_height_step(gq[q], supp_q[q], hp[p], p == Pp.top)
        for q, p in elements
    }
    return poset, heights


def product_cover(
    Pq,
    gq: HeightFn,
    supp_q: HeightFn,
    Pp,
    hp: HeightFn,
    pairs: Sequence[tuple[Element, Element]],
    m: int,
) -> list[tuple[Element, Element]]:
    """Weak finite cover in the product from factor covers.

    For each way A of blaming incompatibility on the first factor, cross a
    cover for the blamed first coordinates with one for the remaining
    second coordinates; the union over A covers the product at height m.
    """
    n = len(pairs)
    out: set[tuple[Element, Element]] = set()
    for bits in range(1 << n):
        blamed = [pairs[i][0] for i in range(n) if bits >> i & 1]
        rest = [pairs[i][1] for i in range(n) if not bits >> i & 1]
        qs = find_cover(Pq, gq, blamed, m)
        ps = find_cover(Pp, hp, rest, m)
        out.update((q, p) for q in qs for p in ps)
    return _sorted_ids(out)


def random_height(B: ClopenSet) -> int:
    """Least n >= 1 with 1/n at most the measure of B."""
    mu = measure(B)
    if mu <= 0:
        raise ValueError("random_height needs positive measure")
    return math.ceil(Fraction(1) / mu)
