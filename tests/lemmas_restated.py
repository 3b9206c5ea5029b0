"""The former searches of the lemma layer, restated as the normative
references for `coverlemmas.halve_once` and `diagonal.verify_chain`.

`halve_once` here walks every subset of Z from size 0 upwards, in the
same (size, value) order, and sums each candidate's hit mass through
`hit_weight`; the library's search skips the sizes below k' when the
target is positive and sums int masses over one denominator, each
candidate a mask over Z's positions.  `verify_chain` here compares
quotients and sums of `Fraction` measures; the library's compares leaf
counts.  Both must give the same `LevelSet` (or raise `LemmaViolated` with
the same message) and the same `ChainReport`.
"""

from __future__ import annotations

from fractions import Fraction

from clopenforce.cantor import LevelSet, full_set, measure, positions
from clopenforce.coverlemmas import WeightFamily, _gosper, hit_weight
from clopenforce.diagonal import ChainReport, DiagonalChain
from clopenforce.errors import LemmaViolated
from clopenforce.numerics import epsilon


def halve_once(W: WeightFamily, k_prime: int) -> LevelSet:
    """Smallest (then numerically least) Z' of size <= |Z|/2 keeping mass
    (1 - eps(k, k')) * total on sets still hit k' deep."""
    if not 1 <= k_prime <= W.k:
        raise ValueError("need 1 <= k' <= k")
    total = W.total()
    target = (1 - epsilon(W.k, k_prime)) * total
    pos = positions(W.Z.mask)
    for size in range(len(pos) // 2 + 1):
        for packed in _gosper(len(pos), size):
            zp = 0
            y = packed
            while y:
                low = y & -y
                zp |= 1 << pos[low.bit_length() - 1]
                y ^= low
            if hit_weight(W, zp, k_prime) >= target:
                return LevelSet(W.n, zp)
    raise LemmaViolated(
        f"no half-size subset of Z keeps {1 - epsilon(W.k, k_prime)} of the mass"
    )


def verify_chain(chain: DiagonalChain, v: int) -> ChainReport:
    """Audit every family: quadratic in its parent, an exact partition of
    the parent coordinates, and the per-node product-measure budget."""
    if v < 1:
        raise ValueError("v must be positive")
    bad: list[str] = []
    fams = chain.families()
    if not chain.entries:
        return ChainReport((), 0, 0)
    depth = max(max(c.p.depth, c.q.depth) for c in chain.entries.values())
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
        pp, pq = parent_p.at_depth(depth), parent_q.at_depth(depth)
        union_p = union_q = 0
        budget = Fraction(0)
        for i, cond in sorted(fam.items()):
            p = cond.p.at_depth(depth)
            q = cond.q.at_depth(depth)
            if p.mask & ~pp.mask or q.mask & ~pq.mask:
                bad.append(f"{label} i={i}: not nested in parent")
                continue
            if measure(p) / measure(pp) != measure(q) / measure(pq):
                bad.append(f"{label} i={i}: not quadratic in parent")
            if union_p & p.mask or union_q & q.mask:
                bad.append(f"{label} i={i}: overlaps an earlier piece")
            union_p |= p.mask
            union_q |= q.mask
            budget += cond.measure()
        if union_p != pp.mask or union_q != pq.mask:
            bad.append(f"{label}: pieces do not partition the parent")
        parent_mass = measure(pp) * measure(pq)
        if not budget < Fraction(1, v) * parent_mass:
            bad.append(
                f"{label}: mass {budget} not below {Fraction(1, v) * parent_mass}"
            )
    return ChainReport(tuple(bad), len(fams), len(chain.entries))
