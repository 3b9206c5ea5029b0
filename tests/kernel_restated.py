"""Restatements of the `cantor` bit kernel from node bit strings, sharing no
code with it: a mask's nodes are the strings of its set bits, a projection
is the set of their prefixes, a node's mass is how many leaves carry its
prefix, and a lift is the set of a node's extensions."""


def bits(i, width):
    return format(i, "b").zfill(width) if width else ""


def leaves(mask, depth):
    ones = bin(mask)[:1:-1]  # character i is bit i
    return [bits(i, depth) for i, ch in enumerate(ones) if ch == "1"]


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


def lift_by_strings(mask, level_from, level_to):
    tails = [bits(t, level_to - level_from) for t in range(1 << level_to - level_from)]
    out = 0
    for node in leaves(mask, level_from):
        for tail in tails:
            out |= 1 << int(node + tail or "0", 2)
    return out
