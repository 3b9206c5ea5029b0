import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from kernel_restated import bits, dense_by_counts, leaves, lift_by_strings, prefix_projection
from support import assert_value_errors

from clopenforce import cantor
from clopenforce.cantor import (
    MAX_DEPTH,
    ClopenSet,
    LevelSet,
    boolean_op,
    canonicalize,
    clopen_from_json,
    clopen_to_json,
    complement,
    cyl_mask,
    cylinder_meet,
    dense_mask,
    densities,
    density_ok,
    full_set,
    level_set,
    levelset_mask,
    lift_mask,
    measure,
    parse_clopen,
    positions,
    projections,
)
from clopenforce.coverlemmas import WeightFamily


def _kernel_cases(exhaustive=3):
    """Every (mask, depth) at depth <= `exhaustive`, then a seeded sample at
    the other depths up to 5."""
    for depth in range(exhaustive + 1):
        for mask in range(1 << (1 << depth)):
            yield mask, depth
    rng = random.Random(2024)
    for depth in (4, 5):
        # drawn either way, so the depth-5 sample does not depend on it
        sample = [rng.getrandbits(1 << depth) for _ in range(300)]
        if depth > exhaustive:
            for mask in sample + [(1 << (1 << depth)) - 1, 0]:
                yield mask, depth


def test_levelset_mask_matches_prefix_restatement():
    # exhaustive through depth 4, where every projection is one table read
    for mask, depth in _kernel_cases(exhaustive=4):
        spelled = leaves(mask, depth)
        for level in range(depth + 1):
            assert levelset_mask(mask, depth, level) == prefix_projection(
                spelled, level
            ), (mask, depth, level)


def test_density_predicate_matches_node_counts():
    # exhaustive through depth 4, where every density test is one table read
    for mask, depth in _kernel_cases(exhaustive=4):
        spelled = leaves(mask, depth)
        for level in range(depth + 1):
            want = dense_by_counts(spelled, depth, level)
            assert dense_mask(mask, depth, level) == want, (mask, depth, level)
            assert density_ok(ClopenSet(depth, mask), level) == want


def test_table_readers_match_the_kernel():
    # every mask at depth <= 4 (all 2^16 at depth 4), seeded ones at depths 5
    # and 6, at every level
    rng = random.Random(6)
    cases = [(depth, range(1 << (1 << depth))) for depth in range(5)]
    for depth in (5, 6):
        size = 1 << depth
        sample = [rng.getrandbits(size) for _ in range(100)]
        sample += [1 << rng.randrange(size) | 1 << rng.randrange(size) for _ in range(100)]
        cases.append((depth, sample + [0, (1 << size) - 1]))
    for depth, masks in cases:
        P, D = projections(depth), densities(depth)
        assert len(P) == len(D) == depth + 1
        for level in range(depth + 1):
            at, dense = P[level], D[level]
            for mask in masks:
                assert at[mask] == levelset_mask(mask, depth, level), (mask, depth, level)
                assert dense[mask] == dense_mask(mask, depth, level), (mask, depth, level)
    for depth in (-1, MAX_DEPTH + 1):
        for tables in (projections, densities):
            with pytest.raises(ValueError):
                tables(depth)


def _deep_cases(rng, depth):
    """Seeded depth-`depth` masks for the byte passes beyond the tables: a
    few leaves, many leaves, unions of cylinders with a few leaves dropped,
    so that some are dense at some levels, and masks whose one thin node is
    their first or their last."""
    size = 1 << depth
    for count in (0, 1, 3, 16, 17, 40, size // 2):
        mask = 0
        for _ in range(count):
            mask |= 1 << rng.randrange(size)
        yield mask
    yield rng.getrandbits(size)
    yield (1 << size) - 1
    for _ in range(12):
        mask = 0
        for _ in range(rng.randint(1, 40)):
            level = rng.randint(0, depth)
            mask |= cyl_mask(depth, level, rng.randrange(1 << level))
        for _ in range(rng.randint(0, 3)):
            mask &= ~(1 << rng.randrange(size))
        yield mask
    # 16 and 17 nonempty nodes at a level at least 2 above the depth, each
    # with exactly the leaves it needs but one, first or last, that lacks a
    # leaf: a read may stop at the first node, or must reach the 17th
    for count in (16, 17):
        levels = range((count - 1).bit_length(), depth - 1)
        for thin in (0, count - 1) if levels else ():
            level = rng.choice(levels)
            half = 1 << depth - level - 1
            mask = 0
            for i, j in enumerate(sorted(rng.sample(range(1 << level), count))):
                mask |= (1 << half - (i == thin)) - 1 << (j << depth - level)
            yield mask


def _deeper_cases(rng, depth):
    """Seeded masks at depths 13 to 20, few enough leaves for the string
    restatements: sparse in the lowest and in the highest 256 leaves, and
    dense (a random half) in one 2^12-leaf cylinder, so most of the bytes
    the projection passes over are zero."""
    size = 1 << depth
    for base in (0, size - 256):
        mask = 0
        for _ in range(rng.randint(1, 20)):
            mask |= 1 << base + rng.randrange(256)
        yield mask
    yield rng.getrandbits(1 << 12) << (rng.randrange(1 << depth - 12) << 12)


def test_deep_kernel_matches_restatements():
    # every level, the coarse ones that project through depth - 3 again too
    rng = random.Random(512)
    for depth in range(5, 21):
        outcomes = set()
        cases = _deep_cases(rng, depth) if depth <= 12 else _deeper_cases(rng, depth)
        for mask in cases:
            spelled = leaves(mask, depth)
            for level in range(depth + 1):
                want = prefix_projection(spelled, level)
                assert levelset_mask(mask, depth, level) == want, (mask, depth, level)
                dense = dense_by_counts(spelled, depth, level)
                assert dense_mask(mask, depth, level) == dense, (mask, depth, level)
                outcomes.add(dense)
        assert outcomes == {True, False}


def test_dense_mask_makes_no_projection_call(monkeypatch):
    # beyond the tables dense_mask range checks the mask itself: a density
    # read is not also a projection
    calls = []

    def counted(*args):
        calls.append(args)
        return levelset_mask(*args)

    monkeypatch.setattr(cantor, "levelset_mask", counted)
    rng = random.Random(300)
    for depth in (5, 8, 12):
        masks = list(_deep_cases(rng, depth))
        for i in range(100):
            dense_mask(masks[i % len(masks)], depth, rng.randint(0, depth))
    assert calls == []


def test_deep_kernel_is_linear_in_the_mask():
    # one half of the tree at depth 20: 2^18 level-19 nodes, each of which
    # took a pass over the whole 2^20-bit mask (0.98 s at depth 18)
    mask = cyl_mask(20, 1, 0)
    start = time.perf_counter()
    assert levelset_mask(mask, 20, 19) == (1 << (1 << 18)) - 1
    assert dense_mask(mask, 20, 19) and dense_mask(mask, 20, 14)
    assert not dense_mask(mask & ~31, 20, 17)  # 3 of 8 leaves left below 0^17
    assert not dense_mask(sum(1 << p for p in (3, 70_000, 500_000, 1_048_575)), 20, 14)
    assert time.perf_counter() - start < 1


def test_levelset_mask_level_out_of_range_raises():
    for depth in (0, 2, 3, 4, 5):  # tables to depth 4, the byte pass beyond
        for level in (-1, depth + 1):
            with pytest.raises(ValueError):
                levelset_mask(1, depth, level)


def test_levelset_mask_mask_out_of_range_raises():
    for depth in range(7):  # tables to depth 4, the byte pass beyond
        bad = [1 << (1 << depth), 1 << 70]
        if depth <= 4:  # a negative mask beyond the tables: see the next test
            bad += [-1, -(1 << 40)]
        for mask in bad:
            with pytest.raises(ValueError):
                levelset_mask(mask, depth, min(1, depth))


def test_dense_mask_out_of_range_raises():
    for mask, depth, level in ((-1, 0, 0), (1 << 99, 2, 2), (-5, 3, 7)):
        with pytest.raises(ValueError):
            dense_mask(mask, depth, level)
    for depth in range(7):
        bad = [1 << (1 << depth), 1 << 70]
        if depth <= 4:  # a negative mask beyond the tables: see the next test
            bad += [-1, -(1 << 40)]
        for mask in bad:
            for level in {0, depth, depth + 1}:
                with pytest.raises(ValueError):
                    dense_mask(mask, depth, level)
        with pytest.raises(ValueError):
            dense_mask(1, depth, -1)


def test_levelset_mask_negative_on_loop_path_raises_in_time():
    # beyond the tables no byte pass can read a negative mask, so it must
    # be rejected first; a child process lets a hang fail the test
    src = str(Path(cantor.__file__).parents[1])
    for call in ("levelset_mask(-1, 5, 1)", "dense_mask(-1, 5, 1)"):
        code = f"from clopenforce.cantor import *\n{call}\n"
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert "ValueError: mask out of range for depth" in done.stderr, call


def test_importing_the_cli_builds_no_depth4_table():
    # each depth's tables are built on its first use, so start-up and
    # depth-3 work do not pay for the depth-4 ones
    code = (
        "import clopenforce.cli\n"
        "from clopenforce import cantor\n"
        "kernel = (cantor.projections, cantor.densities)\n"
        "print([f.cache_info().currsize for f in kernel])\n"
        "cantor.levelset_mask(1, 4, 2)\n"
        "cantor.dense_mask(1, 4, 2)\n"
        "misses = [f.cache_info().misses for f in kernel]\n"
        "print([f(4) is f(4) for f in kernel])\n"
        "print([f.cache_info().misses for f in kernel] == misses)\n"
    )
    src = str(Path(cantor.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout == "[0, 0]\n[True, True]\nTrue\n", done.stderr


def test_depth_bound():
    assert ClopenSet(MAX_DEPTH, 1).depth == MAX_DEPTH
    assert LevelSet(MAX_DEPTH, 1).level == MAX_DEPTH
    assert cyl_mask(MAX_DEPTH, MAX_DEPTH, 0) == 1
    for depth in (-1, MAX_DEPTH + 1, 2**64):
        for make in (ClopenSet, LevelSet, lambda d, _: cyl_mask(d, 0, 0)):
            with pytest.raises(ValueError):
                make(depth, 0)
        with pytest.raises(ValueError):
            levelset_mask(0, depth, 0)


def test_full_set_checks_the_depth_before_it_shifts():
    # checked before the shift: -1 must not reach 1 << -1, nor 28 build a
    # 2^28-bit int
    assert_value_errors([
        (lambda: full_set(-1), f"depth -1 outside 0..{MAX_DEPTH}"),
        (lambda: full_set(28), f"depth 28 outside 0..{MAX_DEPTH}"),
    ])
    assert full_set(0) == ClopenSet(0, 1) and full_set(3).mask == 0xFF


def test_range_checks_accept_exactly_the_masks_below_2_to_the_2_to_the_d():
    for d in (0, 3, 12):
        top, over = (1 << (1 << d)) - 1, 1 << (1 << d)
        Z = LevelSet(d, top)
        assert ClopenSet(d, top).mask == Z.mask == top
        assert WeightFamily(d, 1, Z, ((top, Fraction(1)),)).weights == ((top, 1),)
        assert_value_errors([
            (lambda: ClopenSet(d, over), "mask out of range for depth"),
            (lambda: LevelSet(d, over), "mask out of range for level"),
            (lambda: WeightFamily(d, 1, Z, ((over, Fraction(1)),)),
             "weighted set out of range"),
        ])


def sparse_mask(size: int, bits) -> int:
    """The mask of `size` bits with the given set bits, built in one pass."""
    data = bytearray((size + 7) // 8)
    for i in bits:
        data[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(data, "little")


def test_positions_matches_bin():
    # 0, single bits, seeded masks of 63 to 65 bits (where the bit walk hands
    # over to the byte pass) and of any density, and full masks, to depth 20
    rng = random.Random(5)
    masks = [0, 1, 2, 0b1011] + [rng.getrandbits(70) for _ in range(200)]
    for depth in range(21):
        size = 1 << depth
        masks += [1 << rng.randrange(size), 1 << size - 1, (1 << size) - 1]
        masks.append(rng.getrandbits(size))
        for count in (63, 64, 65):
            if count < size:
                masks.append(sum(1 << i for i in rng.sample(range(size), count)))
    # 2^16- and 2^20-bit masks, where zero bytes are skipped when sparse:
    # sparse (either side of 6 set bits, the walk's limit there), set in the
    # first or last byte only, runs far apart, and either side of the cutoff
    # in density (a set bit per two bytes)
    for size in (1 << 16, 1 << 20):
        nbytes = size // 8
        masks += [sparse_mask(size, rng.sample(range(size), count)) for count in (6, 7, 64, 65, 300)]
        masks += [1 | 1 << size - 1, 0xFF | 1 << size - 1, 1 << size - 1 | 0xA5 << size - 16]
        masks += [0xFF << size - 8, 0xFF | 0xFF << size - 8]
        runs = [i for start in range(0, size, size // 4) for i in range(start, start + 40)]
        masks.append(sparse_mask(size, runs) | 1 << size - 1)
        for count in (nbytes // 2 - 1, nbytes // 2):
            mask = sparse_mask(size, rng.sample(range(size - 1), count - 1)) | 1 << size - 1
            assert mask.bit_count() == count
            masks.append(mask)
    # either side of the cutoff in size (1 KB): 1,023 to 1,026 bytes, sparse and dense
    for nbytes in (1023, 1024, 1025, 1026):
        size = 8 * nbytes
        top = 1 << size - 1
        masks += [top | 1, top | rng.getrandbits(64), top | rng.getrandbits(size - 1)]
        masks += [top | sparse_mask(size, rng.sample(range(size - 1), count)) for count in (63, 200)]
    for mask in masks:
        want = [i for i, ch in enumerate(bin(mask)[:1:-1]) if ch == "1"]
        assert positions(mask) == want


def test_positions_is_linear_in_the_mask():
    # a full half of the tree at depth 20 took 1.5 s at depth 18 when each
    # set bit cost a pass over the whole mask
    start = time.perf_counter()
    assert len(positions(cyl_mask(20, 1, 0))) == 1 << 19
    assert positions(cyl_mask(20, 1, 1))[0] == 1 << 19
    assert time.perf_counter() - start < 1


def test_positions_skips_zero_bytes_in_linear_time():
    # 30,000 set bits among 2^20: a pass over the mask per set bit took 1.5 s
    bits = sorted(random.Random(13).sample(range(1 << 20), 30_000))
    mask = sparse_mask(1 << 20, bits)
    start = time.perf_counter()
    assert positions(mask) == bits
    assert time.perf_counter() - start < 0.5


def test_lift_mask_matches_string_restatement():
    # lifts by 0 to 5 levels of empty, full, random, sparse masks and masks
    # of 64 and 65 set bits
    rng = random.Random(7)
    for level_from in range(11):
        size = 1 << level_from
        masks = [0, 1 << size - 1, (1 << size) - 1, rng.getrandbits(size),
                 1 << rng.randrange(size) | 1 << rng.randrange(size)]
        for count in (64, 65):
            if count < size:
                masks.append(sum(1 << i for i in rng.sample(range(size), count)))
        for level_to in range(level_from, level_from + 6):
            for mask in masks:
                assert lift_mask(mask, level_from, level_to) == lift_by_strings(
                    mask, level_from, level_to), (mask, level_from, level_to)


def test_lift_mask_is_linear_in_the_mask():
    # each set bit once regrew the whole output: this lift took 215 s, and a
    # full level-17 mask lifted to 24 (a `diag verify` payload) about a minute
    mask = random.Random(21).getrandbits(1 << 21)
    start = time.perf_counter()
    lifted = lift_mask(mask, 21, 24)
    assert lift_mask((1 << (1 << 17)) - 1, 17, 24) == (1 << (1 << 24)) - 1
    assert time.perf_counter() - start < 3
    # every level-24 leaf below a node of mask, and no other
    assert levelset_mask(lifted, 24, 21) == mask
    assert lifted.bit_count() == 8 * mask.bit_count()


def test_cyl_mask_blocks():
    for depth in range(5):
        for level in range(depth + 1):
            for j in range(1 << level):
                node = bits(j, level)
                assert cyl_mask(depth, level, j) == sum(
                    1 << i
                    for i in range(1 << depth)
                    if bits(i, depth).startswith(node)
                )


def test_kernel_inputs_fail_by_name():
    assert_value_errors([
        (lambda: cyl_mask(3, 4, 0), "level out of range"),
        (lambda: cyl_mask(3, -1, 0), "level out of range"),
        (lambda: cyl_mask(3, 1, 2), "node index out of range for level"),
        (lambda: cyl_mask(3, 1, -1), "node index out of range for level"),
        (lambda: lift_mask(1, 2, 1), "lift must refine"),
        (lambda: lift_mask(-1, 0, 1), "mask out of range for depth"),  # never returned
        (lambda: lift_mask(4, 1, 3), "mask out of range for depth"),
        (lambda: lift_mask(1, 0, MAX_DEPTH + 1), "level out of range"),
        (lambda: lift_mask(0, -1, 0), "level out of range"),
        (lambda: LevelSet(1, 1 << 2), "mask out of range for level"),
        (lambda: LevelSet(1, -1), "mask out of range for level"),
        (lambda: parse_clopen("x=2:{00}"), "bad clopen literal: 'x=2:{00}'"),
    ])


def test_canonicalize_examples():
    assert canonicalize([""], 2).nodes() == ("00", "01", "10", "11")
    assert canonicalize(["0", "10"], 2).nodes() == ("00", "01", "10")
    assert canonicalize([], 3).nodes() == ()


def test_canonicalize_rejects_deep_nodes():
    with pytest.raises(ValueError):
        canonicalize(["0101"], 3)


def test_measure_examples():
    assert measure(full_set(3)) == 1
    assert measure(canonicalize(["010"], 3)) == Fraction(1, 8)
    assert measure(canonicalize(["00", "01", "10"], 2)) == Fraction(3, 4)


def test_level_set_examples():
    assert level_set(full_set(3), 1).nodes() == ("0", "1")
    assert level_set(canonicalize(["000", "001"], 3), 1).nodes() == ("0",)
    assert level_set(ClopenSet(3, 0), 2).nodes() == ()
    with pytest.raises(ValueError):
        level_set(full_set(2), 3)


def test_boolean_ops():
    B = canonicalize(["00", "11"], 2)
    assert boolean_op(B, full_set(2), "meet") == B
    assert boolean_op(B, B, "diff").is_empty()
    with pytest.raises(ValueError):
        boolean_op(B, B, "xor")


def test_inclusion_exclusion_exhaustive_depth2():
    for bm in range(16):
        for cm in range(16):
            B, C = ClopenSet(2, bm), ClopenSet(2, cm)
            lhs = measure(boolean_op(B, C, "meet")) + measure(boolean_op(B, C, "join"))
            assert lhs == measure(B) + measure(C)


def test_boolean_ops_mixed_depth():
    B = canonicalize(["0"], 1)
    C = canonicalize(["01", "10"], 2)
    assert boolean_op(B, C, "meet").nodes() == ("01",)


def test_complement_measure_exhaustive():
    for depth in range(5):
        for mask in range(1 << (1 << depth)):
            B = ClopenSet(depth, mask)
            assert measure(complement(B)) == 1 - measure(B)


def test_cylinder_meet_examples():
    assert cylinder_meet(full_set(2), "0").nodes() == ("00", "01")
    assert cylinder_meet(canonicalize(["00", "11"], 2), "0").nodes() == ("00",)
    B = canonicalize(["01", "10"], 2)
    assert cylinder_meet(B, "") == B
    with pytest.raises(ValueError):
        cylinder_meet(B, "011")


def test_density_ok_examples():
    for n in range(4):
        assert density_ok(full_set(3), n)
    assert not density_ok(canonicalize(["000"], 3), 1)
    assert density_ok(canonicalize(["00", "01"], 2), 1)
    with pytest.raises(ValueError):
        density_ok(full_set(2), 3)


def test_prefix_coherence():
    rng = random.Random(7)
    for _ in range(200):
        depth = rng.randint(0, 5)
        B = ClopenSet(depth, rng.randrange(1 << (1 << depth)))
        for m1 in range(depth + 1):
            lv1 = level_set(B, m1)
            for m2 in range(m1 + 1):
                prefixes = {s[:m2] for s in lv1.nodes()}
                assert prefixes == set(level_set(B, m2).nodes())


def test_decreasing_chain_meet_stays_dense():
    # chains in the dense part with one commitment level: the meet is the
    # last link, so it inherits density; enumerated at depth 3
    rng = random.Random(11)
    for _ in range(100):
        depth = 3
        m = rng.randint(0, 2)
        mask = rng.randrange(1, 1 << (1 << depth))
        B = ClopenSet(depth, mask)
        if not density_ok(B, m):
            continue
        chain = [B]
        for _ in range(3):
            # drop leaves while keeping the level-m trace and density
            cur = chain[-1]
            candidates = [
                ClopenSet(depth, cur.mask & ~(1 << i))
                for i in range(1 << depth)
                if cur.mask >> i & 1
            ]
            candidates = [
                c
                for c in candidates
                if c.mask
                and level_set(c, m).mask == level_set(B, m).mask
                and density_ok(c, m)
            ]
            if not candidates:
                break
            chain.append(rng.choice(candidates))
        meet = chain[0].mask
        for c in chain[1:]:
            meet &= c.mask
        assert meet == chain[-1].mask
        assert density_ok(ClopenSet(depth, meet), m)


def test_text_and_json_round_trip():
    B = canonicalize(["00", "01", "11"], 2)
    assert str(B) == "d=2:{00,01,11}"
    assert parse_clopen(str(B)) == B
    assert parse_clopen("d=0:{}").is_empty()
    assert clopen_from_json(clopen_to_json(B)) == B


def test_at_depth_lifts():
    B = canonicalize(["0"], 1)
    assert B.at_depth(3).nodes() == ("000", "001", "010", "011")
    with pytest.raises(ValueError):
        B.at_depth(0)


def test_levelset_container():
    L = LevelSet.from_nodes(2, ["01", "10"])
    assert len(L) == 2
    assert "01" in L and "11" not in L
    with pytest.raises(ValueError):
        LevelSet.from_nodes(2, ["0"])


def test_at_depth_own_depth_is_identity():
    B = canonicalize(["01", "1"], 3)
    assert B.at_depth(B.depth) is B
    deeper = B.at_depth(5)
    assert deeper.depth == 5
    assert all((deeper.mask >> i & 1) == (B.mask >> (i >> 2) & 1) for i in range(32))
    assert deeper.nodes() == canonicalize(["01", "1"], 5).nodes()
