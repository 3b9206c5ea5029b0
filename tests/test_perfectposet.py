import copy
import dataclasses
import functools
import hashlib
import operator
import os
import pickle
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import main_cover_restated
import oracle_restated
from kernel_restated import dense_by_counts, leaves, prefix_projection
from support import (
    assert_value_errors,
    automorphism,
    canon_sweep,
    counting_builds,
    pair_orbits,
    random_pprime_condition,
)

from clopenforce import cantor, perfectposet
from clopenforce.cantor import (
    MAX_DEPTH,
    TABLE_DEPTH,
    ClopenSet,
    canonicalize,
    cyl_mask,
    full_set,
    levelset_mask,
    positions,
)
from clopenforce.errors import DepthExhausted, PruneFailed
from clopenforce.perfectposet import (
    DeskPoset,
    PCondition,
    compat_oracle,
    cover_oracle,
    enumerate_pprime,
    in_pprime,
    iterate_cover,
    main_cover,
    p_compatible,
    p_leq,
    parse_pcondition,
    pcondition_from_json,
    pcondition_to_json,
    prune_to_dense,
    top_condition,
)


def cond(nodes, depth, n):
    return PCondition(canonicalize(nodes, depth), n)


def test_pcondition_validation():
    # every constructor check of a condition and of its set, with its
    # message, and the checks of the calls that take one
    wide = PCondition(full_set(5), 0)
    assert_value_errors([
        (lambda: ClopenSet(-1, 0), f"depth -1 outside 0..{MAX_DEPTH}"),
        (lambda: ClopenSet(MAX_DEPTH + 1, 0), f"depth {MAX_DEPTH + 1} outside 0..{MAX_DEPTH}"),
        (lambda: ClopenSet(2, 1 << 4), "mask out of range for depth"),
        (lambda: ClopenSet(2, -1), "mask out of range for depth"),
        (lambda: PCondition(full_set(2), 3), "commitment level 3 out of range"),
        (lambda: PCondition(full_set(2), -1), "commitment level -1 out of range"),
        (lambda: PCondition(ClopenSet(2, 0), 0), "conditions need positive measure"),
        (lambda: parse_pcondition("d=2:{00}, n=1"), "bad condition literal: 'd=2:{00}, n=1'"),
        (lambda: parse_pcondition("(d=2:{00}, k=1)"), "bad condition literal: '(d=2:{00}, k=1)'"),
        (lambda: compat_oracle(wide, wide), "oracle restricted to intersections of <= 24 nodes"),
        (lambda: prune_to_dense(full_set(2), 3), "level exceeds depth"),
    ])


def test_conditions_are_slotted_values():
    B = canonicalize(["000", "001", "110"], 3)
    c = PCondition(B, 1)
    assert (B.depth, B.mask) == (3, 0b01000011)
    for value, fields in ((B, (3, B.mask)), (c, (B, 1))):
        assert not hasattr(value, "__dict__")
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, f.name)
        # a new name has no slot; the frozen __setattr__ of a slotted
        # dataclass raises TypeError for it on Python 3.10 to 3.13
        with pytest.raises((AttributeError, TypeError)):
            value.extra = 0
        # hashed as the tuple of fields, so orders of sets and dicts of
        # conditions (soft layer, CLI output) do not depend on the class
        assert hash(value) == hash(fields)
        assert value == type(value)(*fields) and value != fields
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
    assert c != PCondition(B, 2) and B != ClopenSet(4, B.mask)
    assert repr(B) == "ClopenSet(depth=3, mask=67)"
    assert repr(c) == "PCondition(B=ClopenSet(depth=3, mask=67), n=1)"
    assert str(c) == "(d=3:{000,001,110}, n=1)"
    assert c.depth == 3


def test_constructor_errors_are_unchanged():
    B = ClopenSet(3, 0b101)
    assert ClopenSet(depth=3, mask=0b101) == B
    assert PCondition(B=B, n=1) == PCondition(B, 1)
    assert_value_errors([
        (lambda: ClopenSet(MAX_DEPTH + 1, 1), f"depth {MAX_DEPTH + 1} outside 0..{MAX_DEPTH}"),
        # the depth is checked before the mask
        (lambda: ClopenSet(-1, -1), f"depth -1 outside 0..{MAX_DEPTH}"),
        (lambda: ClopenSet(3, -1), "mask out of range for depth"),
        (lambda: ClopenSet(3, 1 << 8), "mask out of range for depth"),
        (lambda: ClopenSet(depth=3, mask=1 << 8), "mask out of range for depth"),
        (lambda: PCondition(B, 4), "commitment level 4 out of range"),
        (lambda: PCondition(B, -1), "commitment level -1 out of range"),
        (lambda: PCondition(B=B, n=4), "commitment level 4 out of range"),
        (lambda: PCondition(ClopenSet(3, 0), 1), "conditions need positive measure"),
        (lambda: top_condition(-1), f"depth -1 outside 0..{MAX_DEPTH}"),
        (lambda: dataclasses.replace(PCondition(B, 1), n=99), "commitment level 99 out of range"),
        (lambda: dataclasses.replace(B, mask=1 << 8), "mask out of range for depth"),
    ])
    assert dataclasses.replace(PCondition(B, 1), n=2) == PCondition(B, 2)


def test_batch_builds_equal_the_constructors():
    # main_cover's members beyond depth 3 and enumerate_pprime(4)'s elements
    # are built in batches whose checks run once: each batch is the list of
    # per-member constructions, value for value and error for error
    sets, conditions = cantor._clopen_sets, perfectposet._conditions

    def batch(depth, n, masks):
        return conditions(sets(depth, masks), n)

    def per_member(depth, n, masks):
        return [PCondition(ClopenSet(depth, mask), n) for mask in masks]

    rng = random.Random(27)
    for depth in range(TABLE_DEPTH + 1):
        size = 1 << (1 << depth)
        for masks in ([], [size - 1], sorted(rng.sample(range(1, size), min(size - 1, 40)))):
            for n in range(depth + 1):
                built, want = batch(depth, n, masks), per_member(depth, n, masks)
                assert built == want
                assert [(type(q), type(q.B)) for q in built] == [(PCondition, ClopenSet)] * len(want)
                assert list(map(hash, built)) == list(map(hash, want))
                assert list(map(repr, built)) == list(map(repr, want))
                assert list(map(str, built)) == list(map(str, want))
                assert pickle.loads(pickle.dumps(built)) == want
    q = batch(4, 2, [0b1011, 0xFFFF])[1]
    for value in (q, q.B):
        assert not hasattr(value, "__dict__")
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, 0)
    # a bad depth, n, zero mask or out-of-range mask: the constructors' error
    cases = [
        (-1, 0, [1]), (MAX_DEPTH + 1, 0, [1]), (3, 4, [1, 2]), (3, -1, [1, 2]),
        (3, 1, [0, 1, 2]), (3, 1, [1, 2, 1 << 8]), (3, 1, [-1, 1]), (4, 0, [1 << 16]),
    ]
    for depth, n, masks in cases:
        with pytest.raises(ValueError) as want:
            per_member(depth, n, masks)
        with pytest.raises(ValueError) as raised:
            batch(depth, n, masks)
        assert type(raised.value) is type(want.value) is ValueError
        assert str(raised.value) == str(want.value), (depth, n, masks)


def test_every_depth_check_names_the_mismatch():
    shallow, deep = cond(["0"], 2, 1), cond(["0"], 3, 1)
    top = top_condition(3)
    cover = main_cover(deep, top, 3)
    calls = [
        lambda: p_leq(shallow, deep),
        lambda: p_compatible(deep, shallow),
        lambda: compat_oracle(shallow, deep),
        lambda: main_cover(shallow, top, 2),
        lambda: main_cover(deep, top_condition(2), 2),
        # the cover of top is empty, so only the check up front sees shallow
        lambda: iterate_cover([top, deep, shallow], 2),
        lambda: cover_oracle(deep, top, 3, cover[:1] + [shallow] + cover[1:]),
    ]
    for call in calls:
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == "conditions live at different depths"
    assert cover_oracle(deep, top, 3, cover).ok


def test_p_leq_examples():
    b = cond(["0"], 2, 1)
    assert p_leq(b, b)
    assert p_leq(cond(["0"], 2, 2), cond(["0"], 2, 1))
    # same level sets required at the weaker commitment
    assert not p_leq(b, PCondition(full_set(2), 1))
    with pytest.raises(ValueError):
        p_leq(b, cond(["0"], 3, 1))


def leq_clauses(c1, c2):
    """c1 <= c2 restated over node bit strings, clause by clause: a subset,
    a commitment at least as deep, and the same prefixes at c2's level."""
    l1, l2 = leaves(c1.B.mask, c1.depth), leaves(c2.B.mask, c2.depth)
    return (
        set(l1) <= set(l2),
        c1.n >= c2.n,
        prefix_projection(l1, c2.n) == prefix_projection(l2, c2.n),
    )


def leq_pairs(rng, depth, count):
    """Seeded (c1, c2) at depth: c1 is c2 with a few leaves or one cylinder
    dropped, sometimes a leaf added, and a commitment near c2's."""
    size = 1 << depth
    while count:
        bm, bn = rng.getrandbits(size) or 1, rng.randint(0, depth)
        am = bm
        for _ in range(rng.randint(0, 3)):
            am &= ~(1 << rng.randrange(size))
        if rng.random() < 0.3:
            level = rng.randint(0, depth)
            am &= ~cyl_mask(depth, level, rng.randrange(1 << level))
        if rng.random() < 0.2:
            am |= 1 << rng.randrange(size)
        if am:
            an = min(depth, max(0, bn + rng.randint(-1, 2)))
            yield PCondition(ClopenSet(depth, am), an), PCondition(ClopenSet(depth, bm), bn)
            count -= 1


def test_p_leq_matches_prefix_restatement():
    # every pair at depth 2, seeded pairs at depth 3 and, on the readers
    # beyond the kernel's tables, at depths 5 and 6; at each depth every
    # clause is seen to fail alone
    conds = [PCondition(ClopenSet(2, mask), n) for mask in range(1, 16) for n in range(3)]
    cases = [(2, [(a, b) for a in conds for b in conds])]
    rng = random.Random(15)
    cases += [(depth, leq_pairs(rng, depth, count)) for depth, count in
              ((3, 2000), (5, 400), (6, 400))]
    for depth, pairs in cases:
        seen = set()
        for c1, c2 in pairs:
            clauses = leq_clauses(c1, c2)
            assert p_leq(c1, c2) == all(clauses), (c1, c2)
            seen.add(clauses)
        assert {(True,) * 3, (False, True, True), (True, False, True),
                (True, True, False)} <= seen, depth


def test_p_compatible_examples():
    b = cond(["0"], 2, 1)
    c = cond(["1"], 2, 1)
    assert p_compatible(b, b)
    assert not p_compatible(b, c)
    assert not p_compatible(PCondition(full_set(2), 1), b)


def test_compat_closed_form_matches_oracle_exhaustively_small():
    for depth in (1, 2):
        conds = enumerate_pprime(depth)
        for a in conds:
            for b in conds:
                assert p_compatible(a, b) == compat_oracle(a, b)


def test_compat_matches_oracle_random_depth6():
    rng = random.Random(2025)
    for _ in range(10_000):
        a = random_pprime_condition(rng, 6)
        b = random_pprime_condition(rng, 6)
        assert p_compatible(a, b) == compat_oracle(a, b)


def test_prune_to_dense():
    # untouched when already dense
    B = canonicalize(["00", "01"], 2)
    pruned = prune_to_dense(B, 1)
    assert pruned.B == B and p_leq(pruned, PCondition(B, 1))
    # thin node dropped
    thin = canonicalize(["000", "100", "101", "110", "111"], 3)
    pruned = prune_to_dense(thin, 1)
    assert in_pprime(pruned)
    assert pruned.B.mask & ~thin.mask == 0
    assert pruned.B.nodes() == ("100", "101", "110", "111")
    with pytest.raises(PruneFailed):
        prune_to_dense(canonicalize(["000", "100"], 3), 1)


def test_prune_to_dense_matches_node_restatement():
    # every mask and level at depth <= 3: exactly the level-n nodes holding at
    # least half their cylinder are kept, and PruneFailed when none is
    for depth in range(4):
        for mask in range(1 << (1 << depth)):
            B = ClopenSet(depth, mask)
            leaves = B.nodes()
            for n in range(depth + 1):
                counts = Counter(leaf[:n] for leaf in leaves)
                kept = {u for u, c in counts.items() if 2 * c >= 1 << (depth - n)}
                if not kept:
                    with pytest.raises(PruneFailed):
                        prune_to_dense(B, n)
                    continue
                want = tuple(leaf for leaf in leaves if leaf[:n] in kept)
                pruned = prune_to_dense(B, n)
                assert (pruned.B.nodes(), pruned.n) == (want, n), (depth, mask, n)


def test_full_resolution_commitment_is_always_dense():
    # the desk-scale density witness: (B, depth) extends (B, n) inside the
    # dense part whatever B looks like
    rng = random.Random(3)
    for _ in range(100):
        depth = rng.randint(1, 4)
        mask = rng.randrange(1, 1 << (1 << depth))
        n = rng.randint(0, depth)
        refined = PCondition(ClopenSet(depth, mask), depth)
        assert in_pprime(refined)
        assert p_leq(refined, PCondition(ClopenSet(depth, mask), n))


def test_main_cover_top_is_empty():
    top = top_condition(2)
    assert main_cover(top, top, 2) == []


def test_main_cover_depth2_example():
    b = cond(["0"], 2, 1)
    cover = main_cover(b, top_condition(2), 1)
    masks = {(q.B.nodes(), q.n) for q in cover}
    assert (("10", "11"), 1) in masks
    assert (("00", "01", "10", "11"), 1) in masks
    for q in cover:
        assert p_leq(q, top_condition(2))
        assert not p_compatible(q, b)


def test_main_cover_rejects_deep_height():
    with pytest.raises(DepthExhausted):
        main_cover(top_condition(2), top_condition(2), 3)
    with pytest.raises(ValueError):
        main_cover(cond(["000"], 3, 1), top_condition(3), 2)  # b not dense


def test_main_cover_keeps_one_union_at_a_time():
    # c: 16 leaves 2^12 - 1, - 3, ..., - 31 at n = 11, b: one leaf at n = 12.
    # A list of all 2^16 unions of c's level-12 nodes, each a 2^12-bit int,
    # raised the peak RSS by 37 MB; a child process measures the call alone
    code = (
        "import resource\n"
        "from clopenforce.cantor import ClopenSet\n"
        "from clopenforce.perfectposet import PCondition, main_cover\n"
        "c = PCondition(ClopenSet(12, sum(1 << 4095 - 2 * i for i in range(16))), 11)\n"
        "b = PCondition(ClopenSet(12, 1 << 4095), 12)\n"
        "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "before = peak()\n"
        "print(len(main_cover(b, c, 12)), peak() - before)\n"
    )
    src = str(Path(perfectposet.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    members, grown_kb = map(int, done.stdout.split())
    assert members == 2
    assert grown_kb < 8 * 1024, grown_kb


def test_main_cover_passes_oracle_random_depth3():
    rng = random.Random(77)
    conds = enumerate_pprime(3, 2)
    for _ in range(60):
        b, c = rng.choice(conds), rng.choice(conds)
        k = rng.randint(0, 3)
        report = cover_oracle(b, c, k, main_cover(b, c, k))
        assert report.ok


# sha256 of the (n, mask) pairs of enumerate_pprime(4, 3), in order, frozen
# while it still built one ClopenSet per (mask, n)
ENUMERATE_D4_DIGEST = (
    "103c700ca7941010196d0c5c34c2f79803ecc22dc96da2c74cf87d6d3d8c46ad"
)


def test_enumerate_pprime_matches_node_counts():
    for depth in range(4):
        want = [
            (n, mask)
            for n in range(depth + 1)
            for mask in range(1, 1 << (1 << depth))
            if dense_by_counts(leaves(mask, depth), depth, n)
        ]
        assert [(q.n, q.B.mask) for q in enumerate_pprime(depth)] == want
    conds = enumerate_pprime(4, 3)
    assert len(conds) == 152_368
    digest = hashlib.sha256(repr([(q.n, q.B.mask) for q in conds]).encode())
    assert digest.hexdigest() == ENUMERATE_D4_DIGEST


def test_enumerate_pprime_checks_max_n():
    assert_value_errors([
        (lambda: enumerate_pprime(3, 4), "max_n 4 outside 0..3"),
        (lambda: enumerate_pprime(3, 5), "max_n 5 outside 0..3"),
        (lambda: enumerate_pprime(3, -1), "max_n -1 outside 0..3"),
        (lambda: enumerate_pprime(0, 1), "max_n 1 outside 0..0"),
    ])
    assert enumerate_pprime(3, 3) == enumerate_pprime(3) and len(enumerate_pprime(0, 0)) == 1


def test_enumerate_pprime_and_desk_poset_check_depth(monkeypatch):
    # beyond the byte tables enumerate_pprime would list 2^(2^depth) - 1
    # masks: all 2^32 - 1 at depth 5.  Checked before anything is built.
    assert_value_errors([
        (lambda: enumerate_pprime(-1), f"depth -1 outside 0..{TABLE_DEPTH}"),
        (lambda: enumerate_pprime(TABLE_DEPTH + 1), f"depth 5 outside 0..{TABLE_DEPTH}"),
        (lambda: enumerate_pprime(MAX_DEPTH, 0), f"depth {MAX_DEPTH} outside 0..{TABLE_DEPTH}"),
    ])
    # DeskPoset(4) would OR rows of 217,903 bits: refused before a single
    # element is listed
    def refuse(*args):
        raise AssertionError("DeskPoset listed its elements")

    monkeypatch.setattr(perfectposet, "enumerate_pprime", refuse)
    assert_value_errors([
        (lambda depth=depth: DeskPoset(depth), f"depth {depth} outside 0..3")
        for depth in (-1, 4, TABLE_DEPTH + 1, MAX_DEPTH)
    ])


# sha256 of main_cover's output over every depth-3 pair orbit of dense
# conditions (all commitment levels) and every height k in c.n..3, frozen
# before its two height branches were folded into one pass, so the fold is
# held to byte identity and not only to oracle validity
MAIN_COVER_D3_DIGEST = (
    "154b08398d599a1e34b4b0299b854134028d8b12cf2dc999174e8b5d28c92395"
)


@functools.cache
def depth3_pair_orbits():
    """One (b, c) per tree-automorphism orbit of ordered pairs of depth-3
    dense conditions (all commitment levels), in canonical-key order."""
    return [rep for _, rep in sorted(pair_orbits(enumerate_pprime(3)).items())]


def test_swap_bits_give_the_128_tree_automorphisms_at_depth3():
    # the automorphisms are the leaf permutations that keep every cylinder
    # a cylinder, and there are 2^7 of them
    cyls = {cyl_mask(3, level, i) for level in range(4) for i in range(1 << level)}
    for g in range(128):
        assert {automorphism(m, 3, g) for m in cyls} == cyls
    assert len({tuple(automorphism(1 << i, 3, g) for i in range(8)) for g in range(128)}) == 128


def test_canon_is_the_least_image_and_an_orbit_invariant():
    rng = random.Random(1100)
    for depth in (3, 4):
        canon = canon_sweep()
        for _ in range(300):
            pair = rng.getrandbits(1 << depth), rng.getrandbits(1 << depth)
            key = canon(depth, *pair)
            g = rng.getrandbits((1 << depth) - 1)
            moved = [automorphism(mask, depth, g) for mask in pair]
            assert canon(depth, *moved) == key and canon(depth, *key) == key
            if depth == 3:  # the whole group is small enough to walk
                images = [[automorphism(m, 3, h) for m in pair] for h in range(128)]
                assert key == tuple(min(images))


def test_condition_orbit_counts():
    # automorphisms fix levels: an orbit is a level and a mask's canonical form
    for depth, count in ((3, 67), (4, 586)):
        canon = canon_sweep()
        orbits = {(q.n, *canon(depth, q.B.mask, 0)) for q in enumerate_pprime(depth, 3)}
        assert len(orbits) == count


def test_main_cover_output_pinned_over_depth3_orbits():
    digest = hashlib.sha256()
    for b, c in depth3_pair_orbits():
        for k in range(c.n, 4):
            cover = [(q.n, q.B.mask) for q in main_cover(b, c, k)]
            digest.update(repr(cover).encode())
    assert digest.hexdigest() == MAIN_COVER_D3_DIGEST
    # one shared instance per condition at depth <= 3: (d + 1)(2^(2^d) - 1)
    # per depth d, 1,072 over depths 0..3
    assert perfectposet._shared.cache_info().currsize <= 1_072


# sha256 of main_cover's output over 150 seeded pairs of depth-4 dense
# conditions with n <= 3 and every height k in c.n..4, frozen before its
# family loops were folded into one pass per subset table
MAIN_COVER_D4_DIGEST = (
    "b90db09673bd67c217260b9e3680d061fcf64ea6af04d5b9c0407065f7b8c6cb"
)


def test_main_cover_output_pinned_over_depth4_sample():
    conds = enumerate_pprime(4, 3)
    rng = random.Random(404)
    digest = hashlib.sha256()
    for _ in range(150):
        b, c = rng.choice(conds), rng.choice(conds)
        for k in range(c.n, 5):
            cover = [(q.n, q.B.mask) for q in main_cover(b, c, k)]
            digest.update(repr(cover).encode())
    assert digest.hexdigest() == MAIN_COVER_D4_DIGEST


def test_main_cover_equals_the_restated_walk():
    # the bit algebra at depth <= 4 against the Gray walk it replaced: covers
    # of top, where family B's cuts carry most members, with b at heights
    # 0, 2, 3 and 4, then seeded pairs at every k
    rng = random.Random(2626)
    top = top_condition(4)
    calls = [(small_dense_condition(rng, 4, n, 16), top, 4) for n in (0, 2, 3, 4)]
    conds = enumerate_pprime(3)
    pairs = [(rng.choice(conds), rng.choice(conds)) for _ in range(20)]
    pairs += depth4_pairs(rng, 20)
    calls += [(b, c, k) for b, c in pairs for k in range(c.depth + 1)]
    sizes = []
    for b, c, k in calls:
        got = [(q.n, q.B.mask) for q in main_cover(b, c, k)]
        assert got == [(q.n, q.B.mask) for q in main_cover_restated.main_cover(b, c, k)], (b, c, k)
        sizes.append(len(got))
    assert min(sizes[:4]) > 60_000


def assert_oracles_agree(b, c, k, members):
    """The table-driven oracle's report equals the naive restatement's."""
    report = cover_oracle(b, c, k, members)
    assert report == oracle_restated.cover_oracle(b, c, k, members), (b, c, k)
    return report


def test_cover_oracle_equals_restatement_over_depth3_orbits():
    reps = depth3_pair_orbits()
    assert len(reps) == 15_713
    for b, c in reps:
        assert assert_oracles_agree(b, c, 3, main_cover(b, c, 3)).ok


def depth4_pairs(rng, count):
    """Seeded depth-4 (b, c) pairs of dense conditions, c with up to 16 leaves."""
    return [
        (random_pprime_condition(rng, 4, 16), random_pprime_condition(rng, 4, 16))
        for _ in range(count)
    ]


def test_cover_oracle_equals_restatement_depth4_sample():
    for b, c in depth4_pairs(random.Random(44), 12):
        for k in range(c.n, 5):
            assert assert_oracles_agree(b, c, k, main_cover(b, c, k)).ok


# ROADMAP's slowest depth-4 audits, b one or two leaves at n = 4 against
# top, k = 4, on the full cover and on every 7th member: (b's leaves, the
# step, members audited, checked, uncovered, sha256 of the uncovered
# (n, mask) list).  Pinned from the oracle that scanned a bucket of members
# per submask, which took 31 + 4.9 s (one leaf) and 42 + 6.3 s (two leaves)
# in process on a 2-core Xeon VM (Python 3.11).
TOP_AUDITS_D4 = (
    (["0000"], 1, 82_257, 194_975, 0,
     "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (["0000"], 7, 11_751, 194_975, 82_575,
     "03c854b5a69f72fd1124d22cd344df3a9d8f795324306433058d783b5cf44d1a"),
    (["0000", "0001"], 1, 92_211, 204_929, 0,
     "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (["0000", "0001"], 7, 13_173, 204_929, 42_807,
     "fdb56cbcb5de09d132859441075d3cdf64cb6f857a1bc8c2c06d041b7019ca62"),
)


def test_depth4_leaf_audits_against_top_run_in_time():
    top, spent = top_condition(4), 0.0
    for nodes, step, size, checked, missed, digest in TOP_AUDITS_D4:
        b = cond(nodes, 4, 4)
        members = main_cover(b, top, 4)[::step]
        start = time.perf_counter()
        report = cover_oracle(b, top, 4, members)
        spent += time.perf_counter() - start
        uncovered = [(q.n, q.B.mask) for q in report.uncovered]
        assert (len(members), report.checked, len(uncovered)) == (size, checked, missed)
        assert not report.bad_members
        assert hashlib.sha256(repr(uncovered).encode()).hexdigest() == digest
    assert spent < 3.0, spent


def small_dense_condition(rng, depth, n, max_leaves):
    """A seeded dense condition of height n with at most max_leaves leaves:
    some level-n nodes, each given the half of its cylinder it needs, then
    a few more leaves below them."""
    width = 1 << depth - n
    need = max(1, width // 2)
    nodes = rng.sample(range(1 << n), rng.randint(1, min(1 << n, max_leaves // need)))
    mask = 0
    for j in nodes:
        for leaf in rng.sample(range(width), need):
            mask |= 1 << j * width + leaf
    for _ in range(rng.randint(0, max_leaves - mask.bit_count())):
        mask |= 1 << rng.choice(nodes) * width + rng.randrange(width)
    return PCondition(ClopenSet(depth, mask), n)


def depth5_pairs(rng, count):
    """Seeded depth-5 (b, c) pairs of dense conditions, past the kernel's
    tables, where the oracle tabulates its own: c of every height 1..5 with
    at most 10 leaves (height 0 needs 16), b of every height with at most
    16."""
    return [
        (small_dense_condition(rng, 5, rng.randint(0, 5), 16),
         small_dense_condition(rng, 5, 1 + i % 5, 10))
        for i in range(count)
    ]


def test_cover_oracle_equals_restatement_depth5_sample():
    checked = Counter()
    for b, c in depth5_pairs(random.Random(55), 40):
        for k in range(c.n, 6):
            checked[k] += assert_oracles_agree(b, c, k, main_cover(b, c, k)).checked
    assert sorted(checked) == [1, 2, 3, 4, 5] and all(checked.values())


def mutation_cases():
    """Seeded (b, c, k, cover) audits at depths 3, 4 and 5 with a nonempty
    cover."""
    rng = random.Random(808)
    conds = enumerate_pprime(3)
    pairs = [(rng.choice(conds), rng.choice(conds)) for _ in range(300)]
    pairs += depth4_pairs(rng, 6)
    pairs += depth5_pairs(random.Random(505), 40)
    for b, c in pairs:
        k = rng.randint(c.n, c.depth)
        cover = main_cover(b, c, k)
        if cover:
            yield rng, b, c, k, cover


def test_cover_oracle_reports_a_dropped_member():
    # dropping a member that extends no other one leaves it uncovered
    seen = Counter()
    for rng, b, c, k, cover in mutation_cases():
        tops = [q for q in cover if not any(p_leq(q, r) for r in cover if r != q)]
        gone = rng.choice(tops)
        report = assert_oracles_agree(b, c, k, [q for q in cover if q != gone])
        assert gone in report.uncovered and not report.bad_members
        seen[c.depth] += 1
    assert sum(seen.values()) >= 100 and seen[5] >= 10


def test_cover_oracle_reports_a_compatible_member():
    # b itself is compatible with b, so it is a bad member wherever it sits
    for rng, b, c, k, cover in mutation_cases():
        at = rng.randrange(len(cover) + 1)
        report = assert_oracles_agree(b, c, k, cover[:at] + [b] + cover[at:])
        assert report.bad_members == (b,) and not report.uncovered


def test_cover_oracle_reports_a_member_outside_c():
    # a member grown by a leaf outside c no longer sits below c; whatever it
    # then fails to cover, both oracles report alike
    seen = 0
    for rng, b, c, k, cover in mutation_cases():
        outside = ~c.B.mask & (1 << (1 << c.depth)) - 1
        if not outside:
            continue
        at = rng.randrange(len(cover))
        q = cover[at]
        leaf = rng.choice(positions(outside))
        moved = PCondition(ClopenSet(c.depth, q.B.mask | 1 << leaf), q.n)
        report = assert_oracles_agree(
            b, c, k, cover[:at] + [moved] + cover[at + 1:])
        assert report.bad_members == (moved,)
        seen += 1
    assert seen >= 100


def test_a_member_outside_c_covers_through_its_trace_on_c():
    # a top member q (extending no other member) grown by a leaf outside c:
    # inside a level-q.n node that q meets, it keeps its trace on c and still
    # covers what q covered; in a node q does not meet, it covers nothing,
    # so q goes uncovered as if dropped.  Either way it is the one bad member.
    seen = Counter()
    for rng, b, c, k, cover in mutation_cases():
        depth = c.depth
        outside = ~c.B.mask & (1 << (1 << depth)) - 1
        tops = [q for q in cover if not any(p_leq(q, r) for r in cover if r != q)]
        q = rng.choice(tops)
        at = cover.index(q)
        near = 0
        for j in positions(levelset_mask(q.B.mask, depth, q.n)):
            near |= cyl_mask(depth, q.n, j)
        dropped = assert_oracles_agree(b, c, k, cover[:at] + cover[at + 1:])
        assert q in dropped.uncovered
        for leaves, want in ((outside & near, ()), (outside & ~near, dropped.uncovered)):
            if leaves:
                leaf = rng.choice(positions(leaves))
                grown = PCondition(ClopenSet(depth, q.B.mask | 1 << leaf), q.n)
                report = assert_oracles_agree(b, c, k, cover[:at] + [grown] + cover[at + 1:])
                assert report.bad_members == (grown,) and report.uncovered == want
                seen[depth, bool(want)] += 1
    assert min(seen[depth, kind] for depth in (3, 5) for kind in (False, True)) >= 10, seen


def test_cover_oracle_reports_a_member_outside_the_dense_part():
    # one committed node of a member keeps a single leaf: the trace stands,
    # the density goes
    seen = 0
    for rng, b, c, k, cover in mutation_cases():
        depth = c.depth
        thick = [q for q in cover if q.n <= depth - 2]
        if not thick:
            continue
        at = cover.index(rng.choice(thick))
        q = cover[at]
        node = cyl_mask(depth, q.n, rng.choice(positions(levelset_mask(q.B.mask, depth, q.n))))
        below = q.B.mask & node
        thin = PCondition(ClopenSet(depth, q.B.mask & ~node | below & -below), q.n)
        assert not in_pprime(thin)
        report = assert_oracles_agree(b, c, k, cover[:at] + [thin] + cover[at + 1:])
        assert thin in report.bad_members
        seen += 1
    assert seen >= 100


def test_cover_oracle_reports_a_member_above_height_k():
    # a member pruned to be dense one level above k
    seen = 0
    for rng, b, c, k, cover in mutation_cases():
        if k == c.depth:
            continue
        at = rng.randrange(len(cover))
        q = prune_to_dense(cover[at].B, k + 1)
        report = assert_oracles_agree(b, c, k, cover[:at] + [q] + cover[at + 1:])
        assert q in report.bad_members
        seen += 1
    assert seen >= 100


def test_depth4_cover_oracle_projects_no_submask(monkeypatch):
    # every predicate is one int over all submasks, built from a few node
    # sets per level: the oracle lists set bits a bounded number of times,
    # neither once per member nor once per submask
    b = cond(["00", "011", "101", "110"], 4, 2)
    calls = 0

    def counted(mask):
        nonlocal calls
        calls += 1
        return positions(mask)

    for c in (cond(["00", "01", "10", "1100"], 4, 1), top_condition(4)):
        assert c.B.mask.bit_count() >= 12
        cover = main_cover(b, c, 4)
        for members in (cover, cover[:10]):
            calls = 0
            with monkeypatch.context() as patch:
                patch.setattr(perfectposet, "positions", counted)
                report = cover_oracle(b, c, 4, members)
            assert report.checked > 1 << 12
            assert calls <= 2 * (4 + 1), (c, len(members), calls)


def test_depth5_cover_oracle_reads_the_kernel_per_level_not_per_submask(monkeypatch):
    # beyond the kernel's tables every projection or density read is a
    # `cantor._project` or `cantor._dense` call: the oracle makes a few per
    # level, none for a member inside c, however many submasks c has
    reads = 0
    read = cantor._Reader.__getitem__

    def counted(reader, mask):
        nonlocal reads
        reads += 1
        return read(reader, mask)

    b = cond(["0000"], 5, 4)
    for c in (cond(["00", "01"], 5, 1), cond(["000", "001", "010", "110"], 5, 3)):
        assert c.B.mask.bit_count() == 16
        cover = main_cover(b, c, 5)
        counts = []
        for members in (cover, cover[::7]):
            reads = 0
            with monkeypatch.context() as patch:
                patch.setattr(cantor._Reader, "__getitem__", counted)
                report = cover_oracle(b, c, 5, members)
            assert report.checked > 1 << 16 and not report.bad_members
            counts.append(reads)
        assert counts[0] == counts[1] <= 5 * (c.depth + 1), counts


def test_iterate_cover_examples():
    top = top_condition(2)
    assert iterate_cover([top], 2) == []
    b = cond(["0"], 2, 1)
    assert iterate_cover([b], 2) == main_cover(b, top, 2)


def test_iterate_cover_two_conditions_oracle():
    # every dense condition of bounded height incompatible with both inputs
    # extends a member, and members are incompatible with both
    ps = [cond(["0"], 3, 1), cond(["00", "01", "10"], 3, 1)]
    k = 2
    family = iterate_cover(ps, k)
    assert family
    for q in family:
        assert all(not p_compatible(q, p) for p in ps)
    for e in enumerate_pprime(3, k):
        if all(not p_compatible(e, p) for p in ps):
            assert any(p_leq(e, q) for q in family), e


def test_desk_poset_agrees_with_module_predicates():
    desk = DeskPoset(2)
    rng = random.Random(13)
    for _ in range(300):
        a = rng.choice(desk.elements)
        b = rng.choice(desk.elements)
        assert desk.leq(a, b) == p_leq(a, b)
        assert desk.compatible(a, b) == p_compatible(a, b)
    assert desk.top == top_condition(2)
    assert desk.heights()[desk.top] == 0
    # a condition of another depth is no element: the order says no, the
    # compatibility lookup fails
    outsider = cond(["0"], 3, 1)
    assert not desk.leq(outsider, desk.top)
    with pytest.raises(KeyError):
        desk.compatible(outsider, desk.top)


def test_depth3_conditions_are_built_once():
    b3, c3 = cond(["000", "011", "101", "110"], 3, 3), top_condition(3)
    b4, c4 = cond(["00", "011", "101", "110"], 4, 2), cond(["00", "01", "10", "1100"], 4, 1)
    first = main_cover(b3, c3, 3)
    with counting_builds() as builds:  # conditions constructed, by depth
        again = main_cover(b3, c3, 3)
        assert builds.total() == 0
        assert len(again) > 100 and all(map(operator.is_, again, first))
        # beyond depth 3 every call builds its members afresh
        for _ in range(2):
            builds.clear()
            members = main_cover(b4, c4, 4)
            assert builds == {4: len(members)} and len(members) > 100


def test_shared_conditions_stay_bounded():
    cached = perfectposet._shared.cache_info
    enumerate_pprime(3)
    size = cached().currsize
    assert 816 <= size <= 1_072  # the 816 dense ones at depth 3 among them
    b4, c4 = cond(["00", "011", "101", "110"], 4, 2), cond(["00", "01", "10", "1100"], 4, 1)
    assert main_cover(b4, c4, 4)
    enumerate_pprime(4, 1)
    b5, c5 = cond(["1"], 5, 1), cond(["00"], 5, 1)
    assert len(cover_oracle(b5, c5, 5, []).uncovered) > 500
    assert cached().currsize == size
    # an invalid key raises and stores nothing
    for n, mask in ((4, 1), (0, 0), (0, 1 << 8)):
        with pytest.raises(ValueError):
            perfectposet._shared(3, n, mask)
    assert cached().currsize == size


def test_desk_poset_and_covers_share_their_conditions():
    desk = DeskPoset(3)
    by_key = {(e.n, e.B.mask): e for e in desk.elements}
    family = iterate_cover([cond(["0"], 3, 1), cond(["00", "01", "10"], 3, 1)], 3)
    assert family
    for q in family:
        assert q is by_key[q.n, q.B.mask]


def test_cli_import_builds_no_condition():
    # cold CLI start-up fills no cache and constructs no condition
    code = (
        "from support import counting_builds\n"
        "from clopenforce import perfectposet as pp\n"
        "with counting_builds() as builds:\n"
        "    import clopenforce.cli\n"
        "print(builds.total(), pp._shared.cache_info().currsize)\n"
    )
    src = str(Path(perfectposet.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, str(Path(__file__).parent)])},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0"]


def test_condition_wire_formats():
    c = cond(["000", "001", "110"], 3, 1)
    assert str(c) == "(d=3:{000,001,110}, n=1)"
    assert parse_pcondition(str(c)) == c
    assert pcondition_from_json(pcondition_to_json(c)) == c
