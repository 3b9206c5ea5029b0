"""The clopen-pair forcing poset at a fixed desk depth.

A condition is a positive-measure clopen set together with a commitment
level n; extension keeps the level-n trace frozen.  The dense part keeps
at least half a cylinder of mass below every committed node.  Everything
here is integer bitmask arithmetic on node sets; the brute-force oracle
(`compat_oracle`, `cover_oracle`) is the normative reference the closed
forms are tested against.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cache, reduce
from itertools import compress, groupby, islice, repeat
from operator import and_, itemgetter, or_
from typing import Sequence

from .cantor import (
    TABLE_DEPTH,
    ClopenSet,
    check_depth,
    cyl_mask,
    densities,
    density_ok,
    full_set,
    levelset_mask,
    parse_clopen,
    positions,
    projections,
    clopen_from_json,
    clopen_to_json,
)
from .errors import DepthExhausted, PruneFailed
from .soft import FinitePoset

__all__ = [
    "PCondition",
    "DeskPoset",
    "OracleReport",
    "compat_oracle",
    "cover_oracle",
    "enumerate_pprime",
    "in_pprime",
    "iterate_cover",
    "main_cover",
    "p_compatible",
    "p_leq",
    "prune_to_dense",
    "top_condition",
]


@dataclass(frozen=True, slots=True, init=False)
class PCondition:
    """A condition (B, n): a positive-measure clopen set and a commitment
    level 0 <= n <= B.depth.

    Every construction validates n and B's measure: a call in the one
    `__init__` frame, a batch (`_conditions`, the members of a depth-4
    `main_cover` and the elements of `enumerate_pprime(4)`) once for all its
    members.  Either way the fields are stored through their slots; B ran
    its own checks, whose range check builds no int.

    The conditions `main_cover` (and so `iterate_cover`) and
    `enumerate_pprime` (and so `DeskPoset`'s elements) hand out at depth <= 3
    are shared immutable instances, one per (depth, n, mask); beyond depth 3
    each is built per call.  Only `is` can
    tell: equality, hash, repr and pickling are those of the fields.
    """

    B: ClopenSet
    n: int

    def __init__(self, B: ClopenSet, n: int) -> None:
        if not 0 <= n <= B.depth:
            raise ValueError(f"commitment level {n} out of range")
        if B.mask == 0:
            raise ValueError("conditions need positive measure")
        _set_B(self, B)
        _set_n(self, n)

    @property
    def depth(self) -> int:
        return self.B.depth

    def __str__(self) -> str:
        return f"({self.B}, n={self.n})"


# slots=True builds a new class, so its slot setters are read after decoration
_set_B = PCondition.__dict__["B"].__set__
_set_n = PCondition.__dict__["n"].__set__
_set_depth = ClopenSet.__dict__["depth"].__set__
_set_mask = ClopenSet.__dict__["mask"].__set__


def _clopen_sets(depth: int, masks: Sequence[int]) -> list[ClopenSet]:
    """[ClopenSet(depth, mask) for mask in masks], for ascending masks: the
    checks of `ClopenSet.__init__`, in its order and with its messages, made
    once for the batch (the depth, then the first and last mask's range),
    then the fields stored through the slot setters with no Python step per
    set."""
    if masks:
        check_depth(depth)
        if masks[0] < 0 or masks[-1].bit_length() > 1 << depth:
            raise ValueError("mask out of range for depth")
    sets = list(map(object.__new__, repeat(ClopenSet, len(masks))))
    deque(map(_set_depth, sets, repeat(depth)), 0)
    deque(map(_set_mask, sets, masks), 0)
    return sets


def _conditions(sets: Sequence[ClopenSet], n: int) -> list[PCondition]:
    """[PCondition(B, n) for B in sets], for sets of one depth in ascending
    mask order: the checks of `PCondition.__init__`, in its order and with
    its messages, made once for the batch (n against the depth, then the
    first set's measure), then the fields stored as `_clopen_sets` stores
    them.  With `_clopen_sets` it builds the members of `main_cover` at depth
    4 and the elements of `enumerate_pprime(4)`."""
    if sets:
        if not 0 <= n <= sets[0].depth:
            raise ValueError(f"commitment level {n} out of range")
        if sets[0].mask == 0:
            raise ValueError("conditions need positive measure")
    out = list(map(object.__new__, repeat(PCondition, len(sets))))
    deque(map(_set_B, out, sets), 0)
    deque(map(_set_n, out, repeat(n)), 0)
    return out


_SHARED_DEPTH = 3
"""Deepest depth whose conditions are shared instances: at most
(d + 1)(2^(2^d) - 1) per depth d, 1,072 over depths 0..3."""


@cache
def _shared(depth: int, n: int, mask: int) -> PCondition:
    # validated on its first build; a call that raises stores nothing
    return PCondition(ClopenSet(depth, mask), n)


def top_condition(depth: int) -> PCondition:
    return PCondition(full_set(depth), 0)


def in_pprime(c: PCondition) -> bool:
    return density_ok(c.B, c.n)


def _same_depth(c1: PCondition, c2: PCondition) -> int:
    # read through B, not the `depth` property: this runs once per pair and
    # per cover member in the audits
    depth = c1.B.depth
    if depth != c2.B.depth:
        raise ValueError("conditions live at different depths")
    return depth


def _leq_masks(am: int, an: int, bm: int, bn: int, P: tuple) -> bool:
    """P is the depth's `projections`."""
    return an >= bn and am & ~bm == 0 and P[bn][am] == P[bn][bm]


def p_leq(c1: PCondition, c2: PCondition) -> bool:
    """c1 extends c2: subset, deeper commitment, same trace at c2's level."""
    depth = _same_depth(c1, c2)
    return _leq_masks(c1.B.mask, c1.n, c2.B.mask, c2.n, projections(depth))


def _compat_masks(am: int, an: int, bm: int, bn: int, P: tuple) -> bool:
    """Closed form: with an >= bn, the traces at bn agree and every committed
    node of the finer condition keeps joint mass.  P is the depth's
    `projections`.  Frozen after exhaustive agreement with `compat_oracle`
    (the oracle is normative)."""
    if an < bn:
        am, an, bm, bn = bm, bn, am, an
    if P[bn][am] != P[bn][bm]:
        return False
    # am & bm lies inside am, so its level-an trace is am's exactly when
    # every committed node of am meets bm
    return P[an][am & bm] == P[an][am]


def p_compatible(c1: PCondition, c2: PCondition) -> bool:
    depth = _same_depth(c1, c2)
    return _compat_masks(c1.B.mask, c1.n, c2.B.mask, c2.n, projections(depth))


def compat_oracle(c1: PCondition, c2: PCondition) -> bool:
    """Existential ground truth: some condition at this depth extends both.

    Any common extension (E, k) must satisfy E inside the intersection and
    k >= max(n, m), so enumerating submasks of the intersection is the full
    search.  Exponential in the intersection's node count; desk scale only.
    """
    depth = _same_depth(c1, c2)
    inter = c1.B.mask & c2.B.mask
    if inter.bit_count() > 24:
        raise ValueError("oracle restricted to intersections of <= 24 nodes")
    P = projections(depth)
    at1, at2 = P[c1.n], P[c2.n]
    lv1, lv2 = at1[c1.B.mask], at2[c2.B.mask]
    e = inter
    while e:
        if at1[e] == lv1 and at2[e] == lv2:
            return True
        e = (e - 1) & inter
    return False


def prune_to_dense(B: ClopenSet, n: int) -> PCondition:
    """Drop level-n nodes too thin for the dense part, never inventing mass.

    Cylinders at one level are disjoint, so removal cannot thin a survivor
    and one pass over the level-n nodes finds every thin one.  Fails when
    every node dies.
    """
    if n > B.depth:
        raise ValueError("level exceeds depth")
    depth = B.depth
    need = 1 << (depth - n - 1) if n < depth else 1
    thin = 0
    for j in positions(levelset_mask(B.mask, depth, n)):
        cyl = cyl_mask(depth, n, j)
        if (B.mask & cyl).bit_count() < need:
            thin |= cyl
    mask = B.mask & ~thin
    if mask == 0:
        raise PruneFailed(f"no level-{n} node of {B} retains enough mass")
    return PCondition(ClopenSet(depth, mask), n)


MAX_TABLE_NODES = 16  # 2^16 unions per deep main_cover walk, or bits per oracle int


def _node_parts(mask: int, depth: int, level: int) -> list[int]:
    """The part of mask below each of its level-`level` nodes.  More than
    MAX_TABLE_NODES nodes is a ValueError, raised before any part is cut.
    """
    nodes = levelset_mask(mask, depth, level)
    if nodes.bit_count() > MAX_TABLE_NODES:
        raise ValueError(f"{nodes.bit_count()} level-{level} nodes: subset tables "
                         f"stop at {MAX_TABLE_NODES}")
    shift = depth - level
    block = (1 << (1 << shift)) - 1
    return [mask & block << (j << shift) for j in positions(nodes)]


def main_cover(b: PCondition, c: PCondition, k: int) -> list[PCondition]:
    """The finite family below c that fences off everything incompatible
    with b up to height k.

    Per height ell, with s = min(ell, n) and fine = max(ell, n), the
    candidates are unions u of c's cylinders that keep c's trace at m:
    either u's trace at s already disagrees with b's (family A, unions of
    c's level-ell nodes), or it agrees and one committed node of the finer
    side is missed or has b's mass cut away below it (family B, unions of
    c's level-fine nodes).  Candidates outside the dense part at ell are
    dropped; a dropped candidate can dominate no dense condition either, so
    nothing dense is lost.  The members come by height, and each height's
    in ascending mask order.

    At depth <= TABLE_DEPTH no union is visited one at a time: each height's
    members are read off one int over all masks (`_cover_by_bits`).  Beyond,
    where such an int would have 2^(2^depth) bits, one walk over the unions
    at a level sorts each u into its family: the level-ell unions when
    ell >= n, else the level-n unions (B) and then the level-ell ones (A).
    The walk is in Gray-code order, each step XOR-ing one node's part into
    the one live union, so no union is kept.
    """
    depth = _same_depth(b, c)
    if not in_pprime(b) or not in_pprime(c):
        raise ValueError("main_cover expects dense-part conditions")
    if k > depth:
        raise DepthExhausted(f"height bound {k} exceeds depth {depth}")
    if depth <= TABLE_DEPTH:
        heights = _cover_by_bits(b, c, k)
        if depth <= _SHARED_DEPTH:
            return [_shared(depth, ell, mask) for ell, masks in heights for mask in masks]
        # depth 4: each height's members are one batch, checked once
        return [q for ell, masks in heights for q in _conditions(_clopen_sets(depth, masks), ell)]
    n, m = b.n, c.n
    bmask, cmask = b.B.mask, c.B.mask
    # table reads skip the range check: every u is a submask of c's mask
    P, D = projections(depth), densities(depth)
    at_m = P[m]
    trace_b_n, trace_c_m = P[n][bmask], at_m[cmask]
    found: set[tuple[int, int]] = set()

    for ell in range(m, k + 1):
        s, fine = min(ell, n), max(ell, n)
        at_s, at_fine, dense = P[s], P[fine], D[ell]
        trace_b_s = at_s[bmask]
        # the level-fine nodes below which c has mass outside b
        has_special = at_fine[cmask & ~bmask]
        shift = depth - fine
        block = (1 << (1 << shift)) - 1
        for level in (ell,) if ell >= n else (n, ell):
            parts = _node_parts(cmask, depth, level)
            u = 0
            for i in range(1, 1 << len(parts)):
                # step i flips the part of i's lowest set bit
                u ^= parts[(i & -i).bit_length() - 1]
                if at_m[u] != trace_c_m:
                    continue
                if at_s[u] != trace_b_s:
                    # family A: the trace at s disagrees with b's
                    if level == ell and dense[u]:
                        found.add((ell, u))
                    continue
                if level != fine:
                    continue
                # family B: the trace at s agrees; miss a committed node or cut it
                nodes = at_fine[u]
                committed = trace_b_n if ell < n else nodes
                if nodes & committed != committed:
                    if dense[u]:
                        found.add((ell, u))
                    continue
                for t in positions(committed & has_special):
                    cyl = block << (t << shift)
                    cand = (u & ~cyl) | (cmask & cyl & ~bmask)
                    if dense[cand]:
                        found.add((ell, cand))
    return [PCondition(ClopenSet(depth, mask), ell) for ell, mask in sorted(found)]


@cache
def _cover_tables(depth: int) -> tuple:
    """(M, D) at a depth <= TABLE_DEPTH, as ints over its 2^(2^depth) masks:
    bit u of M[level][j] is set when u meets node j of `level`, bit u of
    D[ell] when u is dense at ell; 315 KB at depth 4.  A leaf's int is one
    run of ones doubled to the full size, a node's the OR of its children's.
    """
    size, M = 1 << (1 << depth), [[]]
    for p in range(1 << depth):  # bit p of u is set in the upper half of each 2^(p+1) run
        x, span = (1 << (1 << p)) - 1 << (1 << p), 2 << p
        while span < size:
            x |= x << span
            span <<= 1
        M[0].append(x)
    while len(M[0]) > 1:
        M.insert(0, list(map(or_, M[0][::2], M[0][1::2])))
    zero_one = bytes.maketrans(b"\0\1", b"01")
    return M, [int(t[::-1].translate(zero_one), 2) for t in densities(depth)]


def _cover_by_bits(b: PCondition, c: PCondition, k: int) -> list[tuple[int, list[int]]]:
    """`main_cover` at depth <= TABLE_DEPTH: (ell, the masks of its members,
    ascending) per height, the set bits of one int whose bit u is set when
    the mask u is a member (bitset subset sums and packed predicates, Knuth,
    TAOCP 4A 7.1.3).

    The unions of c's level-L parts are one int, each part doubling it by a
    shifted copy.  A union keeps b's trace at s when it meets each of b's
    level-s nodes and no other node of c there.  A cut at a committed node t
    keeps c's part outside b below t.  A union meeting t holds all of c's
    part there, so the cut takes c & b's part below t off its index: one
    right shift for all the unions.
    """
    depth, n, m = c.B.depth, b.n, c.n
    bmask, cmask = b.B.mask, c.B.mask
    P = projections(depth)
    M, D = _cover_tables(depth)
    # the masks up to c's that meet every level-m node of c: every int below
    # is ANDed with it, so none is longer than c's mask + 1 bits
    base = (2 << cmask) - 1
    for j in positions(P[m][cmask]):
        base &= M[m][j]
    # in base, for the levels ell and fine; the parts are cut from the table
    # here, as `_node_parts`' validated read costs a small call a tenth more
    unions = {}
    for level in {*range(m, k + 1), max(m, n)}:
        x, shift = 1, depth - level
        block = (1 << (1 << shift)) - 1
        for j in positions(P[level][cmask]):
            x |= x << (cmask & block << (j << shift))
        unions[level] = x & base
    # below n, b's level-n nodes are committed: the masks meeting each of them
    committed, meets = P[n][bmask], base
    for j in positions(committed) if m < n else ():
        meets &= M[n][j]
    heights = []
    for ell in range(m, k + 1):
        if ell <= n or ell == m:  # s = min(ell, n) stays n from n on
            s = min(ell, n)
            tb, tc, at_s = P[s][bmask], P[s][cmask], M[s]
            agree = 0 if tb & ~tc else base
            for j in positions(tc) if agree else ():
                agree = agree & at_s[j] if tb >> j & 1 else agree ^ agree & at_s[j]
        dense, fine = D[ell], max(ell, n)
        found = unions[ell] & ~agree & dense  # family A: the trace at s disagrees with b's
        qualify, at_fine = unions[fine] & agree, M[fine]
        if ell < n:  # family B: miss one of b's committed nodes, or cut one
            found |= qualify & ~meets & dense
            qualify, cut = qualify & meets, committed & P[n][cmask & ~bmask]
        else:  # or cut a node the union meets
            cut = P[ell][cmask & ~bmask]
        shift = depth - fine
        block = (1 << (1 << shift)) - 1
        for t in positions(cut):
            found |= (qualify & at_fine[t]) >> (cmask & bmask & block << (t << shift)) & dense
        heights.append((ell, positions(found)))
    return heights


def iterate_cover(ps: Sequence[PCondition], k: int) -> list[PCondition]:
    """Fence off everything (up to height k) incompatible with all of ps by
    refining the cover one condition at a time, starting from the top."""
    if not ps:
        raise ValueError("iterate_cover needs at least one condition")
    for p in ps[1:]:
        _same_depth(ps[0], p)
    family = main_cover(ps[0], top_condition(ps[0].depth), k)
    for p in ps[1:]:
        refined: dict[tuple[int, int], PCondition] = {}
        for q in family:
            for r in main_cover(p, q, k):
                refined[(r.n, r.B.mask)] = r
        family = [refined[key] for key in sorted(refined)]
    return family


@dataclass(frozen=True)
class OracleReport:
    bad_members: tuple[PCondition, ...]
    uncovered: tuple[PCondition, ...]
    checked: int

    @property
    def ok(self) -> bool:
        return not self.bad_members and not self.uncovered


def _node_table(leaves: list[int], depth: int, level: int, least: int) -> bytes:
    """t[x] for every x over the ascending `leaves` (bit i of x is leaf i):
    1 when x holds `least` or more leaves under each level-`level` node it
    meets.

    The leaves under one node are consecutive bits of x, so the table grows
    node by node: one copy of itself, or zeros, per pattern of the node's
    bits.
    """
    table = b"\1"
    for _, run in groupby(leaves, lambda p: p >> depth - level):
        zeros = bytes(len(table))
        table = b"".join(
            table if not v or v.bit_count() >= least else zeros
            for v in range(1 << len(list(run)))
        )
    return table


def _meets(bits: int, lo: int, hi: int) -> int:
    """Bit x set for the x < 2^bits holding a bit in lo..hi - 1: 2^lo clear, the rest
    of a period of 2^hi set, the period doubled up to 2^bits."""
    mask, span = (1 << (1 << hi)) - (1 << (1 << lo)), 1 << hi
    while span >> bits == 0:
        mask |= mask << span
        span <<= 1
    return mask


@cache
def _node_bits(depth: int) -> tuple:
    """M[level][j]: bit e set for the masks e at this depth (<= TABLE_DEPTH)
    that meet node j of `level`; 248 KB at depth 4."""
    return tuple(tuple(_meets(1 << depth, j << depth - level, j + 1 << depth - level)
                       for j in range(1 << level)) for level in range(depth + 1))


def _packed(table: bytes) -> int:
    """Entry x of a 0/1 byte table as bit x of one int."""
    return int(table[::-1].translate(_BINARY), 2)


_BINARY = bytes.maketrans(b"\0\1", b"01")


@cache
def _dense_bits(depth: int) -> tuple:
    return tuple(map(_packed, densities(depth)))


def _meet(masks, nodes: int, op=or_, out: int = 0) -> int:
    """out OR (or op) masks[j] for each set bit j of nodes, low bit first."""
    while nodes:
        low = nodes & -nodes
        out = op(out, masks[low.bit_length() - 1])
        nodes ^= low
    return out


def cover_oracle(
    b: PCondition, c: PCondition, k: int, members: Sequence[PCondition]
) -> OracleReport:
    """Exhaustively audit a claimed cover.

    Every dense-part condition below c that is incompatible with b and of
    height <= k must extend some member, and every member must itself be a
    dense-part condition of height <= k below c that is incompatible with
    b.  Covers all submasks of c's set, so desk scale only: more than
    MAX_TABLE_NODES leaves in c is a ValueError.

    No submask is visited one at a time: each predicate is one int whose bit
    x is its value at the submask indexed x (the mask itself at depth <=
    TABLE_DEPTH, else x over c's leaves), built from the ints M[level][j] of
    the x meeting node j.  At height ell an x is checked when it meets every
    level-m node of c, is dense and is incompatible with b: it meets some
    level-L node, L = min(ell, n), that b does not meet or the other way
    round, or (ell >= n) some level-ell node it meets misses x & b, or
    (ell < n) some level-n node of b misses x & b.  Each member marks its
    index at its level (a member q outside c marks q & c if that keeps q's
    trace); the marks close downward one leaf p at a time, as x without p
    stays covered while it meets p's level-ell node (the superset-sum
    transform, Knuth, TAOCP 4A 7.1.3).  A member inside c and in range is
    good when it is checked at its level.  The uncovered are listed with e
    descending, then height ascending.

    Chain of trust: only the bit kernel is shared with `main_cover` and the
    closed forms of order and compatibility.  `tests/oracle_restated.py`
    keeps the naive walk, incompatibility decided by `_compat_masks` (which
    `compat_oracle` audits), and this oracle equals it report for report.
    """
    depth = _same_depth(b, c)
    m, cmask = c.n, c.B.mask
    bmask, n = b.B.mask, b.n
    if cmask.bit_count() > MAX_TABLE_NODES:
        raise ValueError(f"{cmask.bit_count()} leaves in c: the oracle's tables "
                         f"stop at {MAX_TABLE_NODES}")
    kk = min(k, depth)
    # reads skip the range check: they read c, b, members and their parts
    P = projections(depth)
    leaves = positions(cmask)
    if depth <= TABLE_DEPTH:
        M, steps, bits = _node_bits(depth), [1 << p for p in leaves], 1 << depth
        dense, index = _dense_bits(depth)[m:kk + 1], int
    else:
        bits, steps = len(leaves), [1 << i for i in range(len(leaves))]
        slot = dict(zip(leaves, steps))
        # a submask of c to its x: each byte of c's span that holds a leaf of
        # c read through a table from the byte's value to those leaves' x bits
        low = leaves[0] >> 3
        width, reads = (leaves[-1] >> 3) - low + 1, []
        for byte in dict.fromkeys(p >> 3 for p in leaves):
            table = [0]
            for p in range(byte << 3, byte + 1 << 3):
                table += [x | slot.get(p, 0) for x in table]
            reads.append((byte - low, table))

        def index(mask: int) -> int:
            data = (mask >> (low << 3)).to_bytes(width, "little")
            return sum(table[data[i]] for i, table in reads)

        M = [{j: _meets(bits, bisect_left(leaves, j << depth - level),
                        bisect_left(leaves, j + 1 << depth - level))
              for j in positions(P[level][cmask])} for level in range(depth + 1)]
        # at ell >= depth - 1 any nonempty node is dense: `least` is 1 or 0
        dense = [_packed(_node_table(leaves, depth, ell, (1 << depth - ell) // 2))
                 for ell in range(m, kk + 1)]
    has = M[depth]
    base = 1  # the submasks of c, then those meeting every level-m node of c
    for step in steps:
        base |= base << step
    base = _meet(M[m], P[m][cmask], and_, base)
    both, rest = bmask & cmask, cmask & ~bmask
    fenced = 0  # below n: every level-n node of b meets x & b
    if n > m and P[n][both] == P[n][bmask]:
        fenced = reduce(and_, (_meet(has, both & cyl_mask(depth, n, j))
                               for j in positions(P[n][both])), base)
    size, outside = ((1 << bits) + 7) // 8, ~cmask
    marks = [bytearray(size) for _ in dense]
    strays = False  # a member out of range or outside c, so bad
    for q in members:
        B = q.B
        if B.depth != depth:
            _same_depth(q, c)
        qm, qn = B.mask, q.n
        if not m <= qn <= k or qm & outside:
            strays = True
            if not m <= qn <= k or P[qn][qm & cmask] != P[qn][qm]:  # q & c misses a node
                continue
            qm &= cmask
        x = qm if index is int else index(qm)
        marks[qn - m][x >> 3] |= 1 << (x & 7)

    need, found, covered = [], [], 0
    for ell, dense_ell, row in zip(range(m, kk + 1), dense, marks):
        if ell <= n or ell == m:  # x meets each level-L node exactly when b does
            L = min(ell, n)
            tb, tc = P[L][bmask], P[L][cmask]
            agree = 0 if tb & ~tc else _meet(M[L], tb, and_, base) & ~_meet(M[L], tc ^ tb)
        if ell < n:
            compatible = agree & fenced
        else:  # every level-ell node that x meets also meets x & b
            tin, tout = P[ell][both], P[ell][rest]
            compatible = agree & ~_meet(M[ell], tout & ~tin)
            for j in positions(tout & tin) if tout & tin else ():
                compatible &= ~M[ell][j] | _meet(has, both & cyl_mask(depth, ell, j))
        need.append(need_ell := base & dense_ell & ~compatible)
        t = int.from_bytes(row, "little")
        strays = strays or t & ~need_ell != 0  # a member inside c that fails
        if t and ell < depth:
            nodes, up = M[ell], depth - ell
            for step, p in zip(steps, leaves):
                t |= (t & has[p]) >> step & nodes[p >> up]
        covered |= t
        if need_ell & ~covered:
            found += [(x, ell) for x in positions(need_ell & ~covered)]
    bad_members = []
    if strays:  # a member in range and inside c is good when its bit is set
        good = [x.to_bytes(size, "little") for x in need]
        bad_members = [q for q in members if not (
            m <= q.n <= k and not q.B.mask & outside
            and good[q.n - m][(x := index(q.B.mask)) >> 3] >> (x & 7) & 1)]
    found.sort(key=itemgetter(0), reverse=True)  # stable: heights stay ascending
    if depth > TABLE_DEPTH and found:  # x to its mask, one table read per byte of x
        lo, hi = [0], [0]
        for table, part in ((lo, leaves[:8]), (hi, leaves[8:])):
            for p in part:
                table += [e | 1 << p for e in table]
        found = [(lo[x & 255] | hi[x >> 8], ell) for x, ell in found]
    uncovered = tuple([PCondition(ClopenSet(depth, e), ell) for e, ell in found])
    return OracleReport(tuple(bad_members), uncovered, sum(map(int.bit_count, need)))


def enumerate_pprime(depth: int, max_n: int | None = None) -> tuple[PCondition, ...]:
    """All dense-part conditions at this depth with commitment <= max_n, by
    level and then by mask.  The depth lies in 0..TABLE_DEPTH: it lists
    every mask."""
    if not 0 <= depth <= TABLE_DEPTH:
        raise ValueError(f"depth {depth} outside 0..{TABLE_DEPTH}")
    if max_n is None:
        max_n = depth
    elif not 0 <= max_n <= depth:
        raise ValueError(f"max_n {max_n} outside 0..{depth}")
    masks = range(1, 1 << (1 << depth))
    D = densities(depth)
    if depth <= _SHARED_DEPTH:
        return tuple(_shared(depth, n, mask) for n in range(max_n + 1) for mask in masks
                     if D[n][mask])
    # one set per mask, shared by the mask's levels
    sets = _clopen_sets(depth, masks)
    return tuple(q for n in range(max_n + 1)
                 for q in _conditions(list(compress(sets, islice(D[n], 1, None))), n))


class DeskPoset(FinitePoset):
    """The dense part at one depth as a `FinitePoset` under the closed-form
    order `_leq_masks` (oracle-validated).

    Its compatibility, a common lower bound among the elements, is
    `p_compatible`: a common extension (E, k) puts the dense condition
    (E, depth) below both.

    The elements are `enumerate_pprime(depth)`.  The down-set row of
    b = (B, n) is built without pairwise tests: the elements below b are the
    (e, n') with e a submask of B keeping B's trace at n and n' >= n, which
    is `_leq_masks` read off.  One table per level, over all masks, holds
    the bits of the elements (e, n') with n' at or above the level (256
    entries per level at depth 3), and b's row ORs that table over the
    submasks of B walked by mask.  The rows then pass `FinitePoset`'s
    validation.
    """

    def __init__(self, depth: int) -> None:
        self.depth = depth
        els = enumerate_pprime(depth)
        self._set_elements(els, top_condition(depth))
        P = projections(depth)
        # from_level[n][e]: the bits of the elements (e, n') with n' >= n
        from_level = [[0] * (1 << (1 << depth)) for _ in range(depth + 1)]
        for i, c in enumerate(els):
            from_level[c.n][c.B.mask] |= 1 << i
        for n in range(depth - 1, -1, -1):
            from_level[n] = list(map(or_, from_level[n], from_level[n + 1]))
        down = []
        for c in els:
            bmask, at_n, below = c.B.mask, P[c.n], from_level[c.n]
            trace, row, e = at_n[bmask], 0, bmask
            while e:
                if at_n[e] == trace:
                    row |= below[e]
                e = (e - 1) & bmask
            down.append(row)
        self._set_down(down)

    def heights(self) -> dict[PCondition, int]:
        return {e: e.n for e in self.elements}


def pcondition_to_json(c: PCondition) -> dict:
    return {"B": clopen_to_json(c.B), "n": c.n}


def pcondition_from_json(obj: dict) -> PCondition:
    return PCondition(clopen_from_json(obj["B"]), obj["n"])


def parse_pcondition(text: str) -> PCondition:
    """Parse the `(d=3:{000,001}, n=1)` wire form."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"bad condition literal: {text!r}")
    body, _, tail = text[1:-1].rpartition(",")
    tail = tail.strip()
    if not tail.startswith("n="):
        raise ValueError(f"bad condition literal: {text!r}")
    return PCondition(parse_clopen(body.strip()), int(tail[2:]))
