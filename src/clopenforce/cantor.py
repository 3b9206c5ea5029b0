"""Exact clopen-set algebra on the binary sequence space at finite resolution.

A clopen set is a set of depth-level nodes stored as one int bitmask: bit i
is the node whose bits spell i (big-endian, width = depth).  All set algebra
is integer bitwise arithmetic, all measures exact dyadic rationals.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import repeat
from operator import or_
from typing import Iterable, Sequence

__all__ = [
    "MAX_DEPTH",
    "TABLE_DEPTH",
    "ClopenSet",
    "LevelSet",
    "bit_tables",
    "boolean_op",
    "canonicalize",
    "check_depth",
    "complement",
    "cyl_mask",
    "cylinder_meet",
    "dense_mask",
    "density_ok",
    "full_set",
    "level_set",
    "levelset_mask",
    "lift_mask",
    "measure",
    "node_index",
    "node_bits",
    "parse_clopen",
    "densities",
    "positions",
    "projections",
]


MAX_DEPTH = 24
"""Largest depth of a clopen set or cylinder, and largest level of a level set.

A depth-d mask has 2^d bits, so one full mask takes 2 MiB at depth 24 and
gigabytes past depth 32.  24 is twice the deepest depth the tests and the
benchmark use (12, the null-cover trap trees).
"""


def check_depth(depth: int, what: str = "depth") -> int:
    """depth itself, or a ValueError when it lies outside 0..MAX_DEPTH."""
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"{what} {depth} outside 0..{MAX_DEPTH}")
    return depth


def node_index(bits: str) -> int:
    """Bitstring -> integer index (empty string is 0, the root)."""
    if bits == "":
        return 0
    if any(c not in "01" for c in bits):
        raise ValueError(f"not a binary string: {bits!r}")
    return int(bits, 2)


def node_bits(index: int, level: int) -> str:
    return format(index, f"0{level}b") if level else ""


def cyl_mask(depth: int, level: int, index: int) -> int:
    """Depth-level leaf mask of the cylinder below node `index` at `level`.

    Leaves under a node form one contiguous bit block because leaf order is
    numeric on the node bits.
    """
    check_depth(depth)
    if not 0 <= level <= depth:
        raise ValueError("level out of range")
    if not 0 <= index < (1 << level):
        raise ValueError("node index out of range for level")
    width = 1 << (depth - level)
    return ((1 << width) - 1) << (index * width)


def positions(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending, in time linear in the mask.

    Three reads, by the mask's size and count of set bits:

    - up to 64 bits, at most _FEW_BITS set, or at most _WALK_BITS set in at
      most _SKIP_BYTES bytes: the set bits one at a time, each step a pass
      over the mask;
    - beyond _SKIP_BYTES bytes with fewer set bits than half its bytes: only
      the nonzero bytes, found in C (`translate` marks them, a compiled search
      lists them), so a zero byte costs no Python step;
    - otherwise one pass over every byte.

    A byte's set bits come from a table.  The byte pass is the faster one
    beyond about 64 set bits at depths 12 to 20.  Skipping zero bytes costs
    two passes in C and a match per nonzero byte: it is the faster read of a
    sparse mask from about 1 KB and 6 set bits on (the 8 KB member ints of a
    depth-4 `main_cover`), and the slower one below that or on a mask with a
    set bit in every other byte.
    """
    if mask >= 1 << 64 and (
        (count := mask.bit_count()) > _WALK_BITS or count > _FEW_BITS and mask >= _SKIP_FROM
    ):
        size = mask.bit_length() + 7 >> 3
        data = mask.to_bytes(size, "little")
        if size > _SKIP_BYTES and 2 * count < size:
            nonzero = list(map(_START, _MARKED.finditer(data.translate(_MARK))))
            return [8 * i + j for i in nonzero for j in _BYTE_BITS[data[i]]]
        return [8 * i + j for i, byte in enumerate(data) if byte for j in _BYTE_BITS[byte]]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


_WALK_BITS = 64
_FEW_BITS = 6
_SKIP_BYTES = 1024
_SKIP_FROM = 1 << 8 * _SKIP_BYTES  # the least mask longer than _SKIP_BYTES bytes
_MARK = b"\0" + b"\1" * 255  # a `translate` table: each nonzero byte to 1
_MARKED, _START = re.compile(b"\1"), re.Match.start
_BYTE_BITS = [()]  # the set bits of each byte value, built bit by bit
for _bit in range(8):
    _BYTE_BITS += [bits + (_bit,) for bits in _BYTE_BITS]


# at depth <= 4 a mask has at most 16 bits, so every projection and density
# test is one read of a byte table, built on first use of its depth from the
# tables at depth - 1, whose masks are the two halves of a mask (all of
# depth 4 in under a millisecond).  Beyond, each is one pass over the mask's
# bytes, each byte the depth-3 subtree below a level-(depth - 3) node.
TABLE_DEPTH = 4
"""Deepest depth whose projections and densities are byte tables."""
_BYTE_DEPTH = 3


@cache
def projections(depth: int) -> tuple:
    """P with P[level][mask] == levelset_mask(mask, depth, level) for every
    level 0..depth, for loops that project many masks at one depth: byte
    tables at depth <= 4, beyond them readers over one byte pass.  A read
    is not range checked, so pass only masks of validated conditions or
    their submasks.

    In the tables level 0 is "x is nonempty" and level = depth is x itself.
    In between, x's level-l trace is its halves' level-(l-1) traces side by
    side, so row `hi` (the masks whose high half is hi) is the low halves'
    table with hi's trace OR-ed into every entry: one `translate` per
    distinct trace.
    """
    check_depth(depth)
    if depth > TABLE_DEPTH:
        return tuple(_Reader(_project, depth, level) for level in range(depth + 1))
    size = 1 << (1 << depth)
    tables = [b"\0" + b"\1" * (size - 1)] if depth else []
    for level in range(1, depth):
        t = projections(depth - 1)[level - 1]
        shift = 1 << level - 1
        rows = {v: t.translate(bytes(x | v << shift for x in range(256)))
                for v in set(t)}
        tables.append(b"".join(rows[v] for v in t))
    tables.append(bytes(range(size)) if size <= 256 else range(size))  # identity
    return tuple(tables)


@cache
def densities(depth: int) -> tuple:
    """D with D[level][mask] == dense_mask(mask, depth, level) (1 or 0 from
    a table) for every level 0..depth, as `projections` is for
    levelset_mask, and under the same rule: only validated masks or their
    submasks.

    In the tables, below depth, level 0 is "x is empty or holds half the
    leaves", counted as the two halves' leaf counts.  At level l >= 1 both
    halves must be dense at l - 1, so row `hi` is the low halves' table or
    zeros.  At level = depth every mask is dense.
    """
    check_depth(depth)
    if depth > TABLE_DEPTH:
        return tuple(_Reader(_dense, depth, level) for level in range(depth + 1))
    tables = []
    if depth:
        need = 1 << depth - 1
        counts = [x.bit_count() for x in range(1 << need)]  # leaves of one half
        rows = {c: bytes(c + low >= need for low in counts) for c in set(counts)}
        tables.append(b"\1" + b"".join(rows[c] for c in counts)[1:])
    for level in range(1, depth):
        t = densities(depth - 1)[level - 1]
        zeros = bytes(len(t))
        tables.append(b"".join(t if v else zeros for v in t))
    tables.append(b"\1" * (1 << (1 << depth)))
    return tuple(tables)


@cache
def bit_tables(depth: int) -> tuple:
    """(M, D), the bitwise transposes of `projections` and `densities` at a
    depth in 0..TABLE_DEPTH, as ints over its 2^(2^depth) masks: bit u of
    M[level][j] is set when the mask u meets node j of `level`, bit u of
    D[level] when u is dense at `level`; 315 KB at depth 4.  A depth
    outside 0..TABLE_DEPTH is a ValueError, raised before any int is built:
    at depth 5 one int would have 2^32 bits.

    A leaf's int is one run of ones doubled to the full size, a node's the
    OR of its children's; D packs each density table by one `translate`.
    """
    if not 0 <= depth <= TABLE_DEPTH:
        raise ValueError(f"depth {depth} outside 0..{TABLE_DEPTH}")
    size, leaves = 1 << (1 << depth), []
    for p in range(1 << depth):  # bit p of u is set in the upper half of each 2^(p+1) run
        x, span = (1 << (1 << p)) - 1 << (1 << p), 2 << p
        while span < size:
            x |= x << span
            span <<= 1
        leaves.append(x)
    M = [tuple(leaves)]
    while len(M[0]) > 1:
        M.insert(0, tuple(map(or_, M[0][::2], M[0][1::2])))
    zero_one = bytes.maketrans(b"\0\1", b"01")
    return tuple(M), tuple(int(t[::-1].translate(zero_one), 2) for t in densities(depth))


class _Reader:
    """kernel(., depth, level) read as [mask], for depths beyond the tables."""

    __slots__ = ("kernel", "depth", "level")

    def __init__(self, kernel, depth: int, level: int) -> None:
        self.kernel, self.depth, self.level = kernel, depth, level

    def __getitem__(self, mask: int):
        return self.kernel(mask, self.depth, self.level)


def _project(mask: int, depth: int, level: int) -> int:
    """levelset_mask beyond the tables, unchecked: one pass over mask's
    bytes from its highest leaf down to its lowest, each byte the depth-3
    subtree below a level-(depth-3) node.  A byte becomes the digit of its
    own trace, and the digits read in base 2^(2^sub) are the mask's
    (power-of-two bases are exempt from int_max_str_digits)."""
    up = depth - level
    if not up or not mask:
        return mask
    sub = max(_BYTE_DEPTH - up, 0)
    low = (mask & -mask).bit_length() - 1 >> 3  # zero bytes below the lowest leaf
    mask >>= low << 3
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "big")
    trace = int(data.translate(_digits(sub)), 1 << (1 << sub)) << (low << sub)
    if up <= _BYTE_DEPTH:
        return trace
    # coarser: trace is the set of nonempty subtrees, a depth-3-shallower mask
    return projections(depth - _BYTE_DEPTH)[level][trace]


@cache
def _digits(sub: int) -> bytes:
    """Byte -> the hex digit of its level-`sub` trace as a depth-3 mask."""
    return bytes(b"0123456789abcdef"[t] for t in projections(_BYTE_DEPTH)[sub])


def _dense(mask: int, depth: int, level: int) -> bool:
    """dense_mask beyond the tables, unchecked: a read of mask's bytes, each
    the depth-3 subtree below a level-(depth-3) node.  Within 3 levels of the
    depth a byte's level-(3 - up) nodes are level-`level` nodes of the tree,
    so one translate through the depth-3 table reads them all.  Coarser, one
    projection lists the nonempty level-`level` nodes, each a run of
    2^(up-3) whole bytes whose leaves are counted in place."""
    if level >= depth:
        return True
    up = depth - level
    data = mask.to_bytes(1 << depth - _BYTE_DEPTH, "little")
    if up <= _BYTE_DEPTH:
        return 0 not in data.translate(densities(_BYTE_DEPTH)[_BYTE_DEPTH - up])
    need, width = 1 << up - 1, 1 << up - _BYTE_DEPTH
    return all(int.from_bytes(data[j * width:(j + 1) * width], "little").bit_count() >= need
               for j in positions(_project(mask, depth, level)))


def _check_mask(mask: int, depth: int) -> None:
    # the depth first: beyond MAX_DEPTH, 1 << depth alone would be huge
    if not 0 <= depth <= MAX_DEPTH or mask < 0 or mask >> (1 << depth):
        raise ValueError("mask out of range for depth")


def levelset_mask(mask: int, depth: int, level: int) -> int:
    """Project a depth-level mask to the set of its length-`level` prefixes.

    A mask outside 0 <= mask < 2^(2^depth) is a ValueError.
    """
    if not 0 <= level <= depth:
        raise ValueError("level out of range")
    _check_mask(mask, depth)
    return projections(depth)[level][mask]


def dense_mask(mask: int, depth: int, level: int) -> bool:
    """Every level-`level` node of mask keeps at least half its cylinder,
    i.e. measure at least 2^-(level+1).  True from level = depth on.

    A mask outside 0 <= mask < 2^(2^depth) is a ValueError at every level.
    """
    if level < 0:
        raise ValueError("level out of range")
    _check_mask(mask, depth)
    return level >= depth or densities(depth)[level][mask] == 1


def lift_mask(mask: int, level_from: int, level_to: int) -> int:
    """Expand a level set mask to all its descendants at a finer level.

    In one pass: each binary digit of mask, written 2^(level_to - level_from)
    times, is its node's block of descendants."""
    if level_to < level_from:
        raise ValueError("lift must refine")
    if level_from < 0 or level_to > MAX_DEPTH:
        raise ValueError("level out of range")
    _check_mask(mask, level_from)
    width = 1 << (level_to - level_from)
    return int(format(mask, "b").translate({48: "0" * width, 49: "1" * width}), 2)


@dataclass(frozen=True)
class LevelSet:
    """A subset of the full node level `level`, as a bitmask."""

    level: int
    mask: int

    def __post_init__(self) -> None:
        level = check_depth(self.level, "level")
        if self.mask < 0 or self.mask.bit_length() > 1 << level:
            raise ValueError("mask out of range for level")

    @classmethod
    def from_nodes(cls, level: int, nodes: Iterable[str]) -> "LevelSet":
        mask = 0
        for s in nodes:
            if len(s) != level:
                raise ValueError(f"node {s!r} is not at level {level}")
            mask |= 1 << node_index(s)
        return cls(level, mask)

    def nodes(self) -> tuple[str, ...]:
        return tuple(node_bits(i, self.level) for i in positions(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, bits: str) -> bool:
        return len(bits) == self.level and self.mask >> node_index(bits) & 1 == 1


@dataclass(frozen=True, slots=True, init=False)
class ClopenSet:
    """A set of depth-level nodes as one mask, 0 <= mask < 2^(2^depth).

    Every construction validates the depth against `check_depth`, then the
    mask by its bit length, which builds no int: a call in the one
    `__init__` frame, a batch of ascending masks (`_clopen_sets`) once, on
    its first and last mask.  The fields are stored through their slots;
    equality, hash, repr, pickling and the frozen assignment errors are the
    dataclass's.
    """

    depth: int
    mask: int

    def __init__(self, depth: int, mask: int) -> None:
        check_depth(depth)
        if mask < 0 or mask.bit_length() > 1 << depth:
            raise ValueError("mask out of range for depth")
        _set_depth(self, depth)
        _set_mask(self, mask)

    def nodes(self) -> tuple[str, ...]:
        return tuple(node_bits(i, self.depth) for i in positions(self.mask))

    def at_depth(self, depth: int) -> "ClopenSet":
        """The same set re-expressed at a finer resolution."""
        if depth < self.depth:
            raise ValueError("cannot coarsen a clopen set")
        if depth == self.depth:
            return self
        return ClopenSet(depth, lift_mask(self.mask, self.depth, depth))

    def is_empty(self) -> bool:
        return self.mask == 0

    def __str__(self) -> str:
        return f"d={self.depth}:{{{','.join(self.nodes())}}}"


# slots=True builds a new class, so its slot setters are read after decoration
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


def full_set(depth: int) -> ClopenSet:
    return ClopenSet(depth, (1 << (1 << check_depth(depth))) - 1)


def canonicalize(nodes: Iterable[str | tuple[int, ...]], depth: int) -> ClopenSet:
    """Union of the cylinders below `nodes`, expressed at `depth`.

    Nodes may sit at any level up to `depth`; shorter nodes expand to all
    their depth-level descendants, duplicates collapse into the mask.
    """
    mask = 0
    for node in nodes:
        bits = "".join(str(b) for b in node) if not isinstance(node, str) else node
        if len(bits) > depth:
            raise ValueError(f"node {bits!r} is longer than depth {depth}")
        mask |= cyl_mask(depth, len(bits), node_index(bits))
    return ClopenSet(depth, mask)


def measure(B: ClopenSet) -> Fraction:
    return Fraction(B.mask.bit_count(), 1 << B.depth)


def level_set(B: ClopenSet, m: int) -> LevelSet:
    """The set of length-m prefixes of B's nodes (the trace of B on level m)."""
    if m > B.depth:
        raise ValueError(f"resolution insufficient: level {m} > depth {B.depth}")
    return LevelSet(m, levelset_mask(B.mask, B.depth, m))


def _common(B: ClopenSet, C: ClopenSet) -> tuple[int, int, int]:
    depth = max(B.depth, C.depth)
    return depth, B.at_depth(depth).mask, C.at_depth(depth).mask


def boolean_op(B: ClopenSet, C: ClopenSet, op: str) -> ClopenSet:
    depth, b, c = _common(B, C)
    if op == "meet":
        return ClopenSet(depth, b & c)
    if op == "join":
        return ClopenSet(depth, b | c)
    if op == "diff":
        return ClopenSet(depth, b & ~c)
    raise ValueError(f"unknown boolean op {op!r}")


def complement(B: ClopenSet) -> ClopenSet:
    return ClopenSet(B.depth, full_set(B.depth).mask & ~B.mask)


def cylinder_meet(B: ClopenSet, s: str) -> ClopenSet:
    """B restricted to the cylinder below the node s, at B's depth."""
    if len(s) > B.depth:
        raise ValueError(f"node {s!r} is longer than depth {B.depth}")
    return ClopenSet(B.depth, B.mask & cyl_mask(B.depth, len(s), node_index(s)))


def density_ok(B: ClopenSet, n: int) -> bool:
    """Every level-n node of B carries measure at least 2^-(n+1) inside B."""
    if n > B.depth:
        raise ValueError(f"resolution insufficient: level {n} > depth {B.depth}")
    return dense_mask(B.mask, B.depth, n)


def parse_clopen(text: str) -> ClopenSet:
    """Parse the `d=2:{00,01,11}` wire form."""
    text = text.strip()
    if not text.startswith("d="):
        raise ValueError(f"bad clopen literal: {text!r}")
    head, _, body = text.partition(":")
    depth = int(head[2:])
    body = body.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"bad clopen literal: {text!r}")
    inner = body[1:-1].strip()
    nodes = [s.strip() for s in inner.split(",") if s.strip()] if inner else []
    return canonicalize(nodes, depth)


def clopen_to_json(B: ClopenSet) -> dict:
    return {"depth": B.depth, "nodes": list(B.nodes())}


def clopen_from_json(obj: dict) -> ClopenSet:
    return canonicalize(obj["nodes"], obj["depth"])
