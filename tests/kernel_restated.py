"""Restatements of the `cantor` bit kernel from node bit strings, sharing no
code with it: a mask's nodes are the strings of its set bits, a projection
is the set of their prefixes, a node's mass is how many leaves carry its
prefix."""


def bits(i, width):
    return format(i, "b").zfill(width) if width else ""


def leaves(mask, depth):
    return [bits(i, depth) for i in range(1 << depth) if mask >> i & 1]


def prefix_projection(leaf_strings, level):
    out = 0
    for leaf in leaf_strings:
        out |= 1 << int(leaf[:level] or "0", 2)
    return out


def dense_by_counts(leaf_strings, depth, level):
    counts = {}
    for leaf in leaf_strings:
        counts[leaf[:level]] = counts.get(leaf[:level], 0) + 1
    return all(2 * count >= 1 << (depth - level) for count in counts.values())
