import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import nullcover_restated as ref
from support import (
    assert_value_errors,
    random_bits,
    random_block_tree,
    random_trap_instance,
)

from clopenforce import nullcover
from clopenforce.cantor import LevelSet, lift_mask
from clopenforce.errors import SelectionExhausted
from clopenforce.nullcover import (
    BlockTree,
    IntervalPartition,
    LevelCover,
    avoidance_check,
    block_tree_branches,
    budget,
    kn_set,
    select_sparse,
    union_measure,
    union_scope,
)


def mk_cover(sizes_levels):
    entries = [(0, LevelSet(0, 0))]
    for n, size in sizes_levels:
        entries.append((n, LevelSet(n, (1 << size) - 1)))
    return LevelCover(tuple(entries))


def test_cover_validation():
    with pytest.raises(ValueError):
        LevelCover(((1, LevelSet(1, 0)),))  # must start at level 0
    with pytest.raises(ValueError):
        LevelCover(((0, LevelSet(0, 0)), (2, LevelSet(2, 1)), (2, LevelSet(2, 2))))


def test_budget_examples():
    assert budget(LevelCover(())).total == 0
    # exact-size sets: sum of 2^-m over m = 1..4 plus the empty head
    cover = mk_cover([(m + 1, 1 << ((m + 1) - (m + 1))) for m in range(0)])
    cover = mk_cover([(2, 2), (4, 4), (6, 8), (8, 16)])  # |Z_m| = 2^(n_m - m)
    rep = budget(cover)
    assert rep.total == sum(Fraction(1, 2**m) for m in range(1, 5))
    assert rep.ok
    oversize = mk_cover([(2, 3)])
    rep = budget(oversize)
    assert not rep.ok and rep.sizes_ok == (True, False)


def test_union_measure_basics():
    cover = mk_cover([(2, 2), (4, 4)])
    assert union_measure(cover, []) == 0
    assert union_measure(cover, [1]) == Fraction(2, 4)
    assert union_measure(cover, [0, 1]) == Fraction(2, 4)  # index 0 is empty
    # distinct indices ascending, at the deepest of their levels
    assert union_scope(cover, [2, 0, 2]) == ([0, 2], 4)
    assert union_scope(cover, []) == ([], 0)
    for bad in ([3], [-1, 1]):
        with pytest.raises(ValueError, match="index set off the cover"):
            union_measure(cover, bad)


def test_union_measure_absorption():
    # second set refines below the first: the union is just the first
    z1 = LevelSet(1, 0b01)
    z2 = LevelSet(3, 0b00001111 & lift_mask(0b01, 1, 3))
    cover = LevelCover(((0, LevelSet(0, 0)), (1, z1), (3, z2)))
    assert union_measure(cover, [1, 2]) == Fraction(1, 2)


def test_union_measure_matches_direct_union():
    rng = random.Random(31)
    for _ in range(40):
        entries = [(0, LevelSet(0, 0))]
        n = 0
        for _ in range(rng.randint(1, 4)):
            n += rng.randint(1, 3)
            entries.append((n, LevelSet(n, rng.randrange(1 << (1 << min(n, 4))))))
        cover = LevelCover(tuple(entries))
        S = [
            m
            for m in range(1, len(entries))
            if rng.random() < 0.7
        ]
        depth = max((entries[m][0] for m in S), default=0)
        direct = 0
        for m in S:
            direct |= lift_mask(entries[m][1].mask, entries[m][0], depth)
        expected = Fraction(bin(direct).count("1"), 1 << depth)
        assert union_measure(cover, S) == expected
        # union bound and monotonicity
        assert union_measure(cover, S) <= sum(
            (
                Fraction(entries[m][1].mask.bit_count(), 1 << entries[m][0])
                for m in S
            ),
            Fraction(0),
        )
        if S:
            assert union_measure(cover, S[:-1]) <= union_measure(cover, S)


def sparse_cover(rng, count, depth, nodes_max):
    """count entries after the empty head at distinct levels up to depth
    (the last at depth), each of at most nodes_max random nodes: most of
    their lifted intersections are empty."""
    levels = sorted(rng.sample(range(1, depth), count - 1)) + [depth]
    entries = [(0, LevelSet(0, 0))]
    for n in levels:
        mask = 0
        for _ in range(rng.randint(0, nodes_max)):
            mask |= 1 << rng.randrange(1 << n)
        entries.append((n, LevelSet(n, mask)))
    return LevelCover(tuple(entries))


def test_union_measure_matches_direct_union_on_sparse_covers():
    # 8 to 16 indices up to depth 16, where an empty intersection prunes
    # the subtree of terms below it
    rng = random.Random(2828)
    for _ in range(60):
        count = rng.randint(8, 16)
        depth = rng.randint(count, 16)
        cover = sparse_cover(rng, count, depth, rng.choice((1, 2, 4, 8)))
        S = [m for m in range(1, count + 1) if rng.random() < 0.9]
        top = max((cover.entries[m][0] for m in S), default=0)
        direct = 0
        for m in S:
            n, z = cover.entries[m]
            direct |= lift_mask(z.mask, n, top)
        assert union_measure(cover, S) == Fraction(direct.bit_count(), 1 << top)
        # budget's integer sum against one Fraction per entry
        assert budget(cover).total == sum(
            (Fraction(len(z), 1 << n) for n, z in cover.entries), Fraction(0))


def test_summability_matches_a_fraction_per_interval():
    rng = random.Random(2829)
    for _ in range(100):
        part = random_trap_instance(rng, rng.randint(2, 12))[1]
        assert part.summability() == sum(
            (Fraction(len(J), 1 << hi - lo) for (lo, hi), J in zip(part.intervals, part.traps)),
            Fraction(0))


def test_sparse_union_measure_runs_in_time():
    # 16 indices at depth 16, each set 5 % of its level: forming all 2^16
    # terms from the full masks took 0.6 s on a 2-core VM; the walk stops
    # below the first empty intersection.  Then 20 one-node sets with
    # disjoint cylinders ("1", "01", "001", ...): every pair is empty, so
    # 210 ANDs stand for the 2^20 terms
    code = (
        "import random, time\n"
        "from clopenforce.cantor import LevelSet\n"
        "from clopenforce.nullcover import LevelCover, union_measure\n"
        "rng = random.Random(16)\n"
        "entries = [(0, LevelSet(0, 0))]\n"
        "for n in range(1, 17):\n"
        "    mask = sum(1 << i for i in range(1 << n) if rng.random() < 0.05)\n"
        "    entries.append((n, LevelSet(n, mask)))\n"
        "chain = [(0, LevelSet(0, 0))]\n"
        "chain += [(n, LevelSet.from_nodes(n, ['0' * (n - 1) + '1'])) for n in range(1, 21)]\n"
        "for cover, S in ((LevelCover(tuple(entries)), range(1, 17)),\n"
        "                 (LevelCover(tuple(chain)), range(1, 21))):\n"
        "    start = time.perf_counter()\n"
        "    value = union_measure(cover, S)\n"
        "    print(value, time.perf_counter() - start)\n"
    )
    src = str(Path(nullcover.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    (sparse, sparse_s), (chain, chain_s) = (line.split() for line in done.stdout.splitlines())
    assert 0 < Fraction(sparse) < 1
    assert Fraction(chain) == 1 - Fraction(1, 1 << 20)
    assert float(sparse_s) < 0.1 and float(chain_s) < 0.1


def part(intervals, traps=None):
    traps = traps or [frozenset() for _ in intervals]
    return IntervalPartition(tuple(intervals), tuple(frozenset(t) for t in traps))


def test_partition_validation():
    with pytest.raises(ValueError):
        part([(1, 3)])  # must start at 0
    with pytest.raises(ValueError):
        part([(0, 2), (3, 4)])  # gap
    with pytest.raises(ValueError):
        IntervalPartition(((0, 2),), (frozenset({"0"}),))  # trap wrong width
    p = part([(0, 2), (2, 5)], [{"01"}, {"000", "111"}])
    assert p.summability() == Fraction(1, 4) + Fraction(2, 8)
    assert p.interval_index(3) == 1 and p.interval_index(7) is None


def test_select_sparse_examples():
    unit = part([(i, i + 1) for i in range(6)])
    assert select_sparse([0, 2, 5], [unit]) == [0, 2, 5]
    two = part([(0, 2), (2, 4)])
    assert select_sparse([0, 1, 2, 3], [two]) == [0, 2]
    with pytest.raises(SelectionExhausted):
        select_sparse([0, 1], [two], count=2)


def test_select_sparse_two_misaligned_partitions():
    rng = random.Random(12)
    for _ in range(50):
        cuts1 = sorted(rng.sample(range(1, 12), rng.randint(1, 4)))
        cuts2 = sorted(rng.sample(range(1, 12), rng.randint(1, 4)))
        p1 = part(list(zip([0] + cuts1, cuts1 + [12])))
        p2 = part(list(zip([0] + cuts2, cuts2 + [12])))
        S = [x for x in range(12) if rng.random() < 0.6]
        chosen = select_sparse(S, [p1, p2])
        for p in (p1, p2):
            for lo, hi in p.intervals:
                assert sum(1 for x in chosen if lo <= x < hi) <= 1


def test_kn_set_examples():
    assert kn_set([], (0, 3), 1) == frozenset()
    # unit interval: splices collapse onto identity and flip
    assert kn_set({"0"}, (4, 5), 4) == {"0", "1"}
    J = {"0110", "0000"}
    K = kn_set(J, (2, 6), 4)
    assert J <= K and len(K) <= 4 * len(J)
    # four-way closure is idempotent (the splice maps form a group)
    assert kn_set(K, (2, 6), 4) == K


def test_kn_set_explicit_images():
    K = kn_set({"0110"}, (0, 4), 2)
    assert K == {"0110", "1001", "0101", "1010"}
    with pytest.raises(ValueError):
        kn_set({"01"}, (0, 2), 2)  # split point outside


def test_block_tree_examples():
    t = BlockTree("0000", (0, 2, 4), 4)
    assert block_tree_branches(t).nodes() == ("0000", "0011", "1100", "1111")
    unit = BlockTree("010", (0, 1, 2, 3), 3)
    assert len(block_tree_branches(unit)) == 8
    single = BlockTree("0110", (0, 4), 4)
    assert block_tree_branches(single).nodes() == ("0110", "1001")


def test_block_tree_validation():
    with pytest.raises(ValueError):
        BlockTree("0000", (0, 3), 4)  # depth not on a boundary
    with pytest.raises(ValueError):
        BlockTree("0000", (1, 4), 4)  # must start at 0
    with pytest.raises(ValueError):
        BlockTree("00", (0, 4), 4)  # r shorter than depth


def test_block_tree_splits_at_every_boundary():
    t = BlockTree("010011", (0, 2, 3, 6), 6)
    branches = block_tree_branches(t)
    assert len(branches) == 2 ** len(t.blocks())
    for level in (2, 3):
        prefixes = {s[:level] for s in branches.nodes()}
        deeper = {s[: level + (level != 6)] for s in branches.nodes()}
        assert len(prefixes) * 2 >= len(deeper)


def test_null_cover_inputs_fail_by_name():
    deep = LevelCover(tuple((n, LevelSet(n, 0)) for n in range(22)))
    tree = BlockTree("0000", (0, 2, 4), 4)
    whole = part([(0, 4)])
    halves = part([(0, 2), (2, 4)], [{"00"}, set()])
    assert_value_errors([
        (lambda: LevelCover(((0, LevelSet(0, 0)), (2, LevelSet(1, 0)))),
         "set at index 2 lives at the wrong level"),
        (lambda: union_measure(deep, range(1, 22)),
         "inclusion-exclusion restricted to <= 20 indices"),
        (lambda: select_sparse([3, -1], [whole]), "points must be nonnegative"),
        (lambda: BlockTree("0000", (0, 2, 2, 4), 4), "boundaries must increase strictly"),
        (lambda: avoidance_check(tree, whole, [], [2]),
         "need one K set and one split point per interval"),
        (lambda: avoidance_check(tree, whole, [frozenset()], []),
         "need one K set and one split point per interval"),
        (lambda: avoidance_check(tree, whole, [frozenset()], [4]),
         "split point for interval 0 outside [0, 4)"),
        # "0" and "00" are both 0 as integers: a K string shorter than its
        # interval once registered r's segment and passed the check
        (lambda: avoidance_check(tree, halves, [frozenset({"0"}), frozenset()], [1, 3]),
         "trap '0' does not index [0, 2)"),
        (lambda: avoidance_check(tree, halves, [frozenset({"0b0"}), frozenset()], [1, 3]),
         "trap '0b0' does not index [0, 2)"),
        # every K set is checked, also on an interval the tree does not reach
        (lambda: avoidance_check(BlockTree("0000", (0, 2), 2), halves,
                                 [frozenset(), frozenset({"1"})], [1, 3]),
         "trap '1' does not index [2, 4)"),
        (lambda: BlockTree("0" * 100, (0, 100), 100), "level 100 outside 0..24"),
    ])


def test_avoidance_vacuous_and_aligned():
    t = BlockTree("0110", (0, 4), 4)
    p = part([(0, 4)])
    rep = avoidance_check(t, p, [frozenset()], [0])
    assert rep.ok and rep.trap_hits == 0 and rep.branches == 2
    # the base real's own restriction is always registered: J <= K
    p = part([(0, 4)], [{"0110"}])
    rep = avoidance_check(t, p, [kn_set({"0110"}, (0, 4), 0)], [0])
    assert rep.ok and rep.trap_hits >= 1


def test_avoidance_needs_the_splice_closure():
    # with traps on a branch but K too small, the counterexample is found
    t = BlockTree("0000", (0, 2, 4), 4)
    p = part([(0, 4)], [{"0011"}])
    rep = avoidance_check(t, p, [frozenset({"0011"})], [2])
    assert not rep.ok
    # the full splice closure at the boundary point repairs it
    rep = avoidance_check(t, p, [kn_set({"0011"}, (0, 4), 2)], [2])
    assert rep.ok


def test_trap_layer_matches_restated_on_trap_instances():
    rng = random.Random(18)
    counterexamples = misaligned = short = 0
    for _ in range(600):
        tree, p, K, points = random_trap_instance(rng, rng.randint(4, 12))
        rep = avoidance_check(tree, p, K, points)
        assert rep == ref.avoidance_check(tree, p, K, points)
        for J, interval, point in zip(p.traps, p.intervals, points):
            assert kn_set(J, interval, point) == ref.kn_set(J, interval, point)
        end = p.intervals[-1][1]
        S = [x for x in range(end + 2) if rng.random() < 0.6]
        cuts = sorted(rng.sample(range(1, end), rng.randint(0, 3)))
        parts = [p, part(list(zip([0, *cuts], [*cuts, end])))]
        assert select_sparse(S, parts) == ref.select_sparse(S, parts)
        counterexamples += bool(rep.counterexamples)
        misaligned += bool(rep.misaligned_intervals)
        short += tree.depth < p.intervals[-1][1]
    # the generator reaches every kind of report
    assert min(counterexamples, misaligned, short) > 30


def test_kn_set_matches_restated_at_every_split_point():
    rng = random.Random(19)
    for width in range(1, 11):
        lo = rng.randint(0, 5)
        for i_point in range(lo, lo + width):
            for size in (0, 1, 3):
                J = {random_bits(rng, width) for _ in range(size)}
                interval = (lo, lo + width)
                assert kn_set(J, interval, i_point) == ref.kn_set(J, interval, i_point)


def test_block_tree_branches_match_restated():
    rng = random.Random(20)
    for _ in range(600):
        tree = random_block_tree(rng)
        assert block_tree_branches(tree) == ref.block_tree_branches(tree)


def test_deep_block_tree_builds_in_time():
    # 13 blocks at depth 24: listing 8,192 branch ints and ORing one bit per
    # branch into the 2^24-bit mask took 4 to 7 s on a 2-core VM
    code = (
        "import time\n"
        "from clopenforce.nullcover import BlockTree, block_tree_branches\n"
        "tree = BlockTree('01' * 12, (0, *range(12, 25)), 24)\n"
        "start = time.perf_counter()\n"
        "branches = block_tree_branches(tree)\n"
        "print(len(tree.blocks()), len(branches), time.perf_counter() - start)\n"
    )
    src = str(Path(nullcover.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    blocks, branches, seconds = done.stdout.split()
    assert (blocks, branches) == ("13", str(1 << 13))
    assert float(seconds) < 1.0
