"""Element-wise restatement of the soft layer's checks, for differential tests.

Every clause is asked one element pair at a time through `P.leq` and
`P.compatible` only, straight from the definitions; nothing here is shared
with `clopenforce.soft`, which answers the same questions with bitmask rows.
Error messages are restated too, so a differential test also pins them.

`heights` and `at_most` are the soft layer's former helpers, one `h.get`
(so one element hash) per element and one comparison per position; the
library reads the height map through the dicts' stored hashes instead, and
must give the same list, mask and message.
"""

from __future__ import annotations

import itertools


def heights(P, h) -> list:
    """h as a list over element positions, defined and nonnegative."""
    hs = [h.get(e) for e in P.elements]
    if None in hs:
        missing = [e for e, v in zip(P.elements, hs) if v is None]
        raise ValueError(f"height function undefined on {missing[:3]!r}...")
    if any(v < 0 for v in hs):
        raise ValueError("heights must be nonnegative")
    return hs


def at_most(hs, m) -> int:
    """Bitmask of the positions of height <= m."""
    return sum(1 << i for i, v in enumerate(hs) if v <= m)


def heights_ok(P, h) -> None:
    missing = [e for e in P.elements if e not in h]
    if missing:
        raise ValueError(f"height function undefined on {missing[:3]!r}...")
    if any(h[e] < 0 for e in P.elements):
        raise ValueError("heights must be nonnegative")


def check_height(P, h) -> bool:
    heights_ok(P, h)
    return all(h[a] >= h[b] for a in P.elements for b in P.elements if P.leq(a, b))


def verify_cover(P, h, ps, m, qs, strong=False) -> bool:
    heights_ok(P, h)
    for e in list(ps) + list(qs):
        if e not in P.elements:
            raise ValueError(f"{e!r} is not an element")
    if any(P.compatible(q, p) for q in qs for p in ps):
        return False
    for x in P.elements:
        if (strong or h[x] <= m) and not any(P.compatible(x, p) for p in ps):
            if not any(P.leq(x, q) for q in qs):
                return False
    return True


def find_cover(P, h, ps, m) -> list:
    """Brute force: all subsets of the candidates by size, then in id order
    (sorted ids, or sorted by str when ids do not compare)."""
    heights_ok(P, h)
    pool = [e for e in P.elements if not any(P.compatible(e, p) for p in ps)]
    try:
        pool = sorted(pool)
    except TypeError:
        pool = sorted(pool, key=str)
    targets = [x for x in pool if h[x] <= m]
    below = {q: frozenset(x for x in targets if P.leq(x, q)) for q in pool}
    for size in range(len(pool) + 1):
        for qs in itertools.combinations(pool, size):
            if frozenset().union(*(below[q] for q in qs)) == frozenset(targets):
                return list(qs)
    raise AssertionError("the candidates themselves always cover the targets")


def star_witness(P, h, antichain, m) -> int:
    """1 + the largest over elements of height <= m of the position of the
    first antichain member compatible with it (0 if there are none)."""
    heights_ok(P, h)
    for e in antichain:
        if e not in P.elements:
            raise ValueError(f"{e!r} is not an element")
    for a, b in itertools.combinations(antichain, 2):
        if P.compatible(a, b):
            raise ValueError(f"not an antichain: {a!r} and {b!r} are compatible")
    witness = 0
    for x in P.elements:
        first = next(
            (i for i, a in enumerate(antichain) if P.compatible(x, a)), None
        )
        if first is None:
            raise ValueError(f"antichain not maximal: {x!r} avoids every member")
        if h[x] <= m:
            witness = max(witness, first + 1)
    return witness


def escape_function(P, h, coords) -> list[tuple[int, int, int, bool]]:
    """(m, prefix, f, punchline) per coordinate of a name table."""
    out = []
    for m, (antichain, values) in enumerate(coords):
        n = star_witness(P, h, antichain, m)
        f = max(values[:n], default=0)
        ok = all(
            h[x] > m
            or any(
                P.compatible(x, antichain[j]) and values[j] <= f for j in range(n)
            )
            for x in P.elements
        )
        out.append((m, n, f, ok))
    return out
