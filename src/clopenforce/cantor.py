"""Exact clopen-set algebra on the binary sequence space at finite resolution.

A clopen set is a set of depth-level nodes stored as one int bitmask: bit i
is the node whose bits spell i (big-endian, width = depth).  All set algebra
is integer bitwise arithmetic, all measures exact dyadic rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

__all__ = [
    "MAX_DEPTH",
    "ClopenSet",
    "LevelSet",
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
    "positions",
]


MAX_DEPTH = 24
"""Largest depth of a clopen set or cylinder, and largest level of a level set.

A depth-d mask has 2^d bits and the range checks build 1 << 2^d, so one
such value takes 2 MiB at depth 24 and gigabytes past depth 32.  24 is
twice the deepest depth the tests and the benchmark use (12, the
null-cover trap trees).
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
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _projection_table(depth: int, level: int) -> bytes:
    """levelset_mask(x, depth, level) for every mask x at `depth`, built by
    the subset recurrence: x's projection is that of x without its lowest
    node, plus that node's prefix."""
    shift = depth - level
    table = bytearray(1 << (1 << depth))
    for x in range(1, len(table)):
        rest = x & (x - 1)
        table[x] = table[rest] | 1 << ((x ^ rest).bit_length() - 1 >> shift)
    return bytes(table)


# at depth <= 3 a mask has at most 8 bits, so every projection is one
# byte-table read; _PROJECTIONS[depth][level] is that table
_TABLE_DEPTH = 3
_PROJECTIONS = tuple(
    tuple(_projection_table(depth, level) for level in range(depth + 1))
    for depth in range(_TABLE_DEPTH + 1)
)


def levelset_mask(mask: int, depth: int, level: int) -> int:
    """Project a depth-level mask to the set of its length-`level` prefixes.

    A mask outside 0 <= mask < 2^(2^depth) is a ValueError.
    """
    if not 0 <= level <= depth:
        raise ValueError("level out of range")
    if depth <= _TABLE_DEPTH and mask >= 0:
        try:
            return _PROJECTIONS[depth][level][mask]
        except IndexError:
            pass  # too large for the table: rejected below
    if depth > MAX_DEPTH or mask < 0 or mask >> (1 << depth):
        raise ValueError("mask out of range for depth")
    if level == depth:
        return mask
    if depth == _TABLE_DEPTH + 1:
        # each half of a depth-4 mask is a depth-3 mask below one child of
        # the root, whose level-(l-1) nodes are level-l nodes of the tree
        if level == 0:
            return 1 if mask else 0
        table = _PROJECTIONS[_TABLE_DEPTH][level - 1]
        return table[mask & 255] | table[mask >> 8] << (1 << level - 1)
    shift = depth - level
    out = 0
    while mask:
        j = (mask & -mask).bit_length() - 1 >> shift
        out |= 1 << j
        # skip the rest of this node's block: nothing below it is left
        mask &= -1 << (j + 1 << shift)
    return out


def dense_mask(mask: int, depth: int, level: int) -> bool:
    """Every level-`level` node of mask keeps at least half its cylinder,
    i.e. measure at least 2^-(level+1).  True from level = depth on."""
    if level >= depth:
        return True
    shift = depth - level
    block = (1 << (1 << shift)) - 1
    need = 1 << (shift - 1)
    lv = levelset_mask(mask, depth, level)
    while lv:
        low = lv & -lv
        if (mask >> (low.bit_length() - 1 << shift) & block).bit_count() < need:
            return False
        lv ^= low
    return True


def lift_mask(mask: int, level_from: int, level_to: int) -> int:
    """Expand a level set mask to all its descendants at a finer level."""
    if level_to < level_from:
        raise ValueError("lift must refine")
    width = 1 << (level_to - level_from)
    block = (1 << width) - 1
    out = 0
    for j in positions(mask):
        out |= block << (j * width)
    return out


@dataclass(frozen=True)
class LevelSet:
    """A subset of the full node level `level`, as a bitmask."""

    level: int
    mask: int

    def __post_init__(self) -> None:
        check_depth(self.level, "level")
        if not 0 <= self.mask < (1 << (1 << self.level)):
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


@dataclass(frozen=True)
class ClopenSet:
    depth: int
    mask: int

    def __post_init__(self) -> None:
        check_depth(self.depth)
        if not 0 <= self.mask < (1 << (1 << self.depth)):
            raise ValueError("mask out of range for depth")

    def nodes(self) -> tuple[str, ...]:
        return tuple(node_bits(i, self.depth) for i in positions(self.mask))

    def at_depth(self, depth: int) -> "ClopenSet":
        """The same set re-expressed at a finer resolution."""
        if depth < self.depth:
            raise ValueError("cannot coarsen a clopen set")
        return ClopenSet(depth, lift_mask(self.mask, self.depth, depth))

    def is_empty(self) -> bool:
        return self.mask == 0

    def __str__(self) -> str:
        return f"d={self.depth}:{{{','.join(self.nodes())}}}"


def full_set(depth: int) -> ClopenSet:
    return ClopenSet(depth, (1 << (1 << depth)) - 1)


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
