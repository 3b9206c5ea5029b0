"""Height functions, weak/strong finite covers, prefix witnesses, and the
escape function, over explicit finite posets.

Compatibility of two elements means existence of a common lower bound among
the listed elements.  The checks take a `FinitePoset` (`perfectposet.DeskPoset`
is one); they turn elements into positions once, on entry, and then only OR
and AND its bitmask rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import le, or_
from typing import Collection, Hashable, Iterable, Mapping, Sequence

from .cantor import ClopenSet, measure, positions

Element = Hashable
HeightFn = Mapping[Element, int]


class FinitePoset:
    """Explicit finite partial order with a largest element.

    The order is given as pairs (a, b) meaning a <= b; reflexive closure is
    taken automatically, antisymmetry and transitivity are validated.  The
    pairs become down-sets, bitmasks over element indices, so compatibility
    (existence of a common lower bound) is one AND.  Every builder (the
    pairs here, `product_poset`, `perfectposet.DeskPoset`) hands its
    down-set rows to one validating step, `_set_down`, which fills the top's
    row and checks both axioms on the masks in element order, so the first
    violation reported does not depend on hashing or on the builder.
    """

    def __init__(
        self,
        elements: Iterable[Element],
        leq_pairs: Iterable[tuple[Element, Element]],
        top: Element,
    ) -> None:
        self._set_elements(elements, top)
        down = [1 << i for i in range(len(self.elements))]
        for a, b in leq_pairs:
            if a not in self.index or b not in self.index:
                raise ValueError(f"relation pair ({a!r}, {b!r}) off the element list")
            down[self.index[b]] |= 1 << self.index[a]
        self._set_down(down)

    @classmethod
    def _from_rows(cls, elements, top, down: list[int]) -> "FinitePoset":
        """The poset whose element i has down-set row down[i], validated."""
        poset = cls.__new__(cls)
        poset._set_elements(elements, top)
        poset._set_down(down)
        return poset

    def _set_elements(self, elements: Iterable[Element], top: Element) -> None:
        self.elements: tuple[Element, ...] = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate elements")
        self.index = {e: i for i, e in enumerate(self.elements)}
        if top not in self.index:
            raise ValueError("top is not an element")
        self.top = top

    def _set_down(self, down: list[int]) -> None:
        """Take down[i] as the down-set of element i, reflexive: fill the
        top's row, then check antisymmetry and transitivity."""
        els = self.elements
        down[self.index[self.top]] = (1 << len(els)) - 1
        for j, dj in enumerate(down):
            for i in positions(dj & ((1 << j) - 1)):
                if down[i] >> j & 1:
                    pair = f"({els[i]!r}, {els[j]!r})"
                    raise ValueError(f"antisymmetry violated at {pair}")
        for c, dc in enumerate(down):
            for b in positions(dc):
                missing = down[b] & ~dc
                if missing:
                    a = positions(missing)[0]
                    raise ValueError(
                        f"transitivity violated at ({els[a]!r}, {els[b]!r}, {els[c]!r})"
                    )
        self._down = down
        self._rows: list[int] | None = None

    @classmethod
    def from_leq(cls, elements, leq, top) -> "FinitePoset":
        elements = tuple(elements)
        pairs = [(a, b) for a in elements for b in elements if leq(a, b)]
        return cls(elements, pairs, top)

    def leq(self, a: Element, b: Element) -> bool:
        """a <= b; False when either is not an element."""
        i, j = self.index.get(a), self.index.get(b)
        return i is not None and j is not None and self._down[j] >> i & 1 == 1

    def compatible(self, a: Element, b: Element) -> bool:
        return self._down[self.index[a]] & self._down[self.index[b]] != 0

    def compat_rows(self) -> list[int]:
        """Row i is the bitmask of elements compatible with element i,
        derived from the down-sets on first use.

        Two elements are compatible when some element lies below both, and
        then some minimal element does.  So row i is the union of the
        up-sets (the transposed down rows) of the minimal elements below i.
        """
        if self._rows is None:
            down = self._down
            minimal = sum(1 << i for i, di in enumerate(down) if di == 1 << i)
            up = [0] * len(down)
            for j, dj in enumerate(down):
                for k in positions(dj & minimal):
                    up[k] |= 1 << j
            self._rows = [
                reduce(or_, (up[k] for k in positions(di & minimal)), 0)
                for di in down
            ]
        return self._rows

    def down_row(self, i: int) -> int:
        """Bitmask of the elements <= element i."""
        return self._down[i]


def _heights(P, h: HeightFn) -> list[int]:
    """h as a list over element positions, defined and nonnegative.

    The element index is copied and h merged into the copy: both steps
    reuse the hashes the two dicts store, so a dict h is read without
    hashing an element.  Keys of h that are not elements land past the
    elements' positions and are cut off.
    """
    merged = dict.fromkeys(P.index)
    merged.update(h)
    hs = list(merged.values())[: len(P.elements)]
    if None in hs:
        missing = [e for e, v in zip(P.elements, hs) if v is None]
        raise ValueError(f"height function undefined on {missing[:3]!r}...")
    if min(hs) < 0:
        raise ValueError("heights must be nonnegative")
    return hs


_BITS = bytes.maketrans(b"\x00\x01", b"01")


def _at_most(hs: list[int], m: int) -> int:
    """Bitmask of the positions of height <= m: one comparison per
    position, read as a binary numeral from the last position down."""
    return int(bytes(map(le, reversed(hs), itertools.repeat(m))).translate(_BITS), 2)


def _indices(P, items: Iterable[Element]) -> list[int]:
    try:
        return [P.index[e] for e in items]
    except KeyError as exc:
        raise ValueError(f"{exc.args[0]!r} is not an element") from None


def check_height(P, h: HeightFn) -> bool:
    """True iff h is order-reversing: a <= b forces h(a) >= h(b)."""
    hs = _heights(P, h)
    lower = {v: _at_most(hs, v - 1) for v in set(hs)}
    return all(P.down_row(b) & lower[v] == 0 for b, v in enumerate(hs))


def _sorted_ids(pool: Collection[Element]) -> list[Element]:
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
    hs = _heights(P, h)
    pi, qi = _indices(P, ps), _indices(P, qs)
    rows = P.compat_rows()
    reach = reduce(or_, (rows[p] for p in pi), 0)
    if any(reach >> q & 1 for q in qi):
        return False
    targets = ((1 << len(hs)) - 1 if strong else _at_most(hs, m)) & ~reach
    return targets & ~reduce(or_, map(P.down_row, qi), 0) == 0


def find_cover(P, h: HeightFn, ps: Sequence[Element], m: int) -> list[Element]:
    """Smallest weak finite cover for ps at m; lexicographic tie-break.

    Candidates must themselves be incompatible with every member of ps
    (clause (i)); subsets are tried by size, then by id order, and the
    first one dominating every height-<= m target wins.  A candidate
    dominating no target is skipped: it is in no smallest cover.  The
    search cannot fail: every target is a candidate below itself, so when
    no smaller subset covers, the whole candidate list does.
    """
    hs = _heights(P, h)
    rows = P.compat_rows()
    reach = reduce(or_, (rows[p] for p in _indices(P, ps)), 0)
    targets = _at_most(hs, m) & ~reach
    pool = _sorted_ids([e for i, e in enumerate(P.elements) if not reach >> i & 1])
    downs = [(e, d) for e in pool if (d := P.down_row(P.index[e]) & targets)]
    for size in range(len(downs)):
        for qs in itertools.combinations(downs, size):
            if targets & ~reduce(or_, (down for _, down in qs), 0) == 0:
                return [e for e, _ in qs]
    return [e for e, _ in downs]


def _prefix_cut(P, rows: list[int], chain: list[int], need: int) -> int:
    """Least n such that the first n members of the maximal antichain
    `chain` are together compatible with every element in `need`."""
    earlier = reach = 0
    for x in chain:
        if rows[x] & earlier:  # name the first compatible pair in chain order
            for a, b in itertools.combinations(chain, 2):
                if rows[a] >> b & 1:
                    a, b = P.elements[a], P.elements[b]
                    raise ValueError(f"not an antichain: {a!r} and {b!r} are compatible")
        earlier |= 1 << x
        reach |= rows[x]
    x = (~reach & (reach + 1)).bit_length() - 1  # lowest position outside reach
    if x < len(rows):
        raise ValueError(f"antichain not maximal: {P.elements[x]!r} avoids every member")
    n = 0
    while need:
        need &= ~rows[chain[n]]
        n += 1
    return n


def star_witness(P, h: HeightFn, antichain: Sequence[Element], m: int) -> int:
    """Minimal prefix length n of a maximal antichain such that anything
    incompatible with the whole prefix has height > m."""
    need = _at_most(_heights(P, h), m)
    return _prefix_cut(P, P.compat_rows(), _indices(P, antichain), need)


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

    For coordinate m the prefix cut n_m is `star_witness`'s; f(m) is
    the largest value decided on that prefix (0 for an empty prefix).  The
    punchline re-verifies that every element of height <= m is compatible
    with a prefix member deciding a value <= f(m), so nothing of height <= m
    can push the decided value above f(m).
    """
    hs = _heights(P, h)
    rows = P.compat_rows()
    out = []
    for m, (antichain, values) in enumerate(table.coords):
        chain = _indices(P, antichain)
        need = _at_most(hs, m)
        n_m = _prefix_cut(P, rows, chain, need)
        f_m = max(values[:n_m], default=0)
        fenced = reduce(
            or_, (rows[a] for a, v in zip(chain[:n_m], values) if v <= f_m), 0
        )
        out.append(EscapeCoordinate(m, n_m, f_m, need & ~fenced == 0))
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
    """Coordinatewise-ordered product with the stepped height attached.

    The elements are the pairs (q, p), q-major.  The order is coordinatewise,
    so the down-set row of (q, p) is q's row crossed with p's: each bit k of
    q's row becomes p's row shifted to the k-th block, which is one product
    of q's spread row with p's row (the blocks do not overlap, so nothing
    carries).  The rows then pass the same validation as any `FinitePoset`.
    """
    gs, ss, hs = _heights(Pq, gq), _heights(Pq, supp_q), _heights(Pp, hp)
    if ss[Pq.index[Pq.top]] != 0:
        raise ValueError("support of the top element must be 0")
    if not check_height(Pq, supp_q):
        raise ValueError("support size must be order-reversing")
    elements = [(q, p) for q in Pq.elements for p in Pp.elements]
    width = len(Pp.elements)
    rows_p = [Pp.down_row(j) for j in range(width)]
    down = []
    for i in range(len(Pq.elements)):
        spread = sum(1 << k * width for k in positions(Pq.down_row(i)))
        down.extend(spread * row for row in rows_p)
    poset = FinitePoset._from_rows(elements, (Pq.top, Pp.top), down)
    top = Pp.index[Pp.top]
    steps = [
        product_height_step(g, s, v, j == top)
        for g, s in zip(gs, ss)
        for j, v in enumerate(hs)
    ]
    return poset, dict(zip(elements, steps))


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
