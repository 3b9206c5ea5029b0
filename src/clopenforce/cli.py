"""Single command-line entry point with machine-readable output.

Exit status: 0 on success, 1 when a checked property fails (cover oracle
violation, failed validation, oversize cover, avoidance counterexample),
2 on usage errors, malformed payloads included.  Identical invocations
produce byte-identical output: JSON is emitted with sorted keys and all
randomness is seeded.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import sys
from fractions import Fraction
from typing import Callable

from . import (
    cantor,
    coverlemmas,
    diagonal,
    nullcover,
    numerics,
    perfectposet,
    soft,
)
from .cantor import ClopenSet, LevelSet
from .errors import ConstructionError
from .numerics import rational, rational_str
from .perfectposet import parse_pcondition


def _load_payload(args) -> dict | list:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            return json.load(fh)
    if args.json:
        return json.loads(args.json)
    raise ValueError("provide --file or --json")


def _emit(lines: list[str]) -> None:
    for line in lines:
        print(line)


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=None, separators=(",", ":")))


def _poset_from_json(obj: dict) -> tuple[soft.FinitePoset, dict]:
    elements, top = list(obj["elements"]), obj["top"]
    # the height map is a JSON object, whose keys can only name strings
    for e in (*elements, top):
        if not isinstance(e, str):
            raise ValueError(f"element {json.dumps(e)} is not a JSON string")
    poset = soft.FinitePoset(elements, [tuple(p) for p in obj["leq"]], top)
    return poset, _int_map(obj, "height")


def _int_map(obj: dict, key: str) -> dict:
    """obj[key], a JSON object (empty when absent), with int values."""
    value = obj.get(key, {})
    if not isinstance(value, dict):
        raise ValueError(f"{key!r} must be a JSON object")
    return {k: int(v) for k, v in value.items()}


def _weight_family_from_json(obj: dict) -> coverlemmas.WeightFamily:
    n = int(obj["n"])
    z = LevelSet.from_nodes(n, obj["Z"])
    weights = tuple(
        (LevelSet.from_nodes(n, w["T"]).mask, rational(w["a"]))
        for w in obj["weights"]
    )
    return coverlemmas.WeightFamily(n, int(obj["k"]), z, weights)


def _schedule_from_json(obj: dict) -> diagonal.ParamSchedule:
    return diagonal.ParamSchedule(
        int(obj["m"]),
        rational(obj["delta"]),
        tuple(int(x) for x in obj["z"]),
        tuple(int(x) for x in obj["y"]),
        rational(obj["eps"]),
        int(obj["v"]),
    )


def _schedule_to_json(ps: diagonal.ParamSchedule) -> dict:
    return {
        "m": ps.m,
        "delta": rational_str(ps.delta),
        "z": list(ps.z),
        "y": list(ps.y),
        "eps": rational_str(ps.eps),
        "v": ps.v,
    }


def _chain_to_json(chain: diagonal.DiagonalChain) -> dict:
    entries = [
        {
            "sigma": list(sigma),
            "tau": list(tau),
            "i": i,
            "p": cantor.clopen_to_json(cond.p),
            "q": cantor.clopen_to_json(cond.q),
        }
        for (sigma, tau, i), cond in sorted(chain.entries.items())
    ]
    return {"order": chain.order, "entries": entries}


def _chain_from_json(obj: dict) -> diagonal.DiagonalChain:
    entries = {
        (
            tuple(e["sigma"]),
            tuple(e["tau"]),
            int(e["i"]),
        ): diagonal.ProductCondition(
            cantor.clopen_from_json(e["p"]), cantor.clopen_from_json(e["q"])
        )
        for e in obj["entries"]
    }
    return diagonal.DiagonalChain(int(obj["order"]), entries)


def _cover_from_json(obj: list) -> nullcover.LevelCover:
    return nullcover.LevelCover(
        tuple(
            (int(e["n"]), LevelSet.from_nodes(int(e["n"]), e["Z"])) for e in obj
        )
    )


def _partition_from_json(obj: dict) -> nullcover.IntervalPartition:
    return nullcover.IntervalPartition(
        tuple((int(lo), int(hi)) for lo, hi in obj["intervals"]),
        tuple(tuple(dict.fromkeys(js)) for js in obj["J"]),  # payload order
    )


def _c1_c2(args) -> tuple[perfectposet.PCondition, perfectposet.PCondition]:
    if args.c1 is None or args.c2 is None:
        raise ValueError(f"pforce {args.action} needs --c1 and --c2")
    return parse_pcondition(args.c1), parse_pcondition(args.c2)


# ------------------------------------------------------------ verb registry

# A flag: its argparse names and add_argument keywords.
Flag = tuple[tuple[str, ...], dict]

# verb path ("cover halve", or a bare verb) -> its handler, in CLI order
_HANDLERS: dict[str, Callable[[argparse.Namespace], int]] = {}
# verb path -> the flags its handler reads, the only ones its parser accepts
_FLAGS: dict[str, tuple[Flag, ...]] = {}
# Published verb table: verb path -> the library operations it reaches.
VERB_TABLE: dict[str, tuple[str, ...]] = {}


def _verb(path: str, *reaches: Callable, flags: tuple[Flag, ...]):
    """Register the decorated handler for `path` with the `flags` it reads;
    `reaches` are the library functions it calls, published in VERB_TABLE
    as "module.func"."""

    def register(handler):
        _HANDLERS[path] = handler
        _FLAGS[path] = flags
        VERB_TABLE[path] = tuple(
            f"{f.__module__.rpartition('.')[2]}.{f.__name__}" for f in reaches
        )
        return handler

    return register


class _OutOfRange(Exception):
    """A count outside its range.  Not a ValueError, so argparse lets it
    through to dispatch, which reports it as a usage error on stdout."""


def _flag(*names: str, ceiling: int | None = None, **kwargs) -> Flag:
    """A flag declaration; a `ceiling` makes it a count in 0..ceiling."""
    if ceiling is not None:

        def count(text: str) -> int:
            if not 0 <= int(text) <= ceiling:
                raise _OutOfRange(f"{names[0]} must be in 0..{ceiling}, got {text}")
            return int(text)

        kwargs["type"] = count
    return names, kwargs


# Flags that several paths read.  A count's ceiling keeps one call near a
# second (timed on a 2-core Xeon VM, Python 3.11); the work grows steeply
# past it, so a value above the ceiling exits 2.
PAYLOAD = (_flag("--file"), _flag("--json"))
FORMAT = _flag("--format", choices=("json", "tsv"), default="json")
KPRIME = _flag("--kprime", type=int, default=1)
EPS = _flag("--eps")
MIN_EPS = Fraction(1, 10**6)  # cover schedule --m 6: 0.5 s; 18 s at --eps 2^-64
MAX_ROUNDS = 6  # cover schedule --eps 1/10^6: 0.5 s at --m 6, 3.7 s at --m 7
ROUNDS = _flag("--m", ceiling=MAX_ROUNDS)
C1_C2 = (_flag("--c1"), _flag("--c2"))
COVER_ARGS = (_flag("-b", action="append", default=[]), _flag("--against"),
              _flag("--k", type=int, default=0))
SOFT_M = _flag("--m", type=int, default=0)
DIAG_M = _flag("--m", type=int, default=1)
V = _flag("--v", type=int, default=2)
VARIANT = _flag("--variant", choices=("2.5", "2.6"), default="2.5")

MAX_KPRIME = 256  # eps --bound 1/10^6: 0.15 s at --kprime 256
MAX_K = 4096  # eps --k 4096 --kprime 256: 0.2 s
MAX_BINOM = 10_000  # C(10000, 5000) has 3,009 digits; str() stops at 4,300


def _budget(text: str) -> Fraction:
    """--eps or --bound; the library rejects the non-positive ones."""
    value = rational(text)
    if 0 < value < MIN_EPS:
        raise ValueError(f"{text} is below the floor {MIN_EPS}")
    return value


@_verb("eps", numerics.epsilon, numerics.min_k_for, numerics.binom, flags=(
    _flag("--k", ceiling=MAX_K), _flag("--kprime", ceiling=MAX_KPRIME),
    _flag("--bound"),
    _flag("--binom", ceiling=MAX_BINOM, nargs=2, metavar=("N", "J"))))
def _eps(args) -> int:
    if args.binom:
        n, j = args.binom
        print(numerics.binom(n, j))
        return 0
    if args.bound is not None:
        if args.kprime is None:
            raise ValueError("min-k mode needs --kprime")
        print(numerics.min_k_for(args.kprime, _budget(args.bound)))
        return 0
    if args.k is None or args.kprime is None:
        raise ValueError("eps needs --k and --kprime (or --bound / --binom)")
    print(rational_str(numerics.epsilon(args.k, args.kprime)))
    return 0


@_verb("cover halve", coverlemmas.halve_once, flags=(*PAYLOAD, KPRIME))
def _cover_halve(args) -> int:
    fam = _weight_family_from_json(_load_payload(args))
    z = coverlemmas.halve_once(fam, args.kprime)
    _emit_json({"Z": list(z.nodes()), "level": z.level})
    return 0


@_verb("cover goodness", coverlemmas.split_goodness, flags=(*PAYLOAD, KPRIME))
def _cover_goodness(args) -> int:
    obj = _load_payload(args)
    level = int(obj["level"])
    z = LevelSet.from_nodes(level, obj["Z"])
    t = LevelSet.from_nodes(level, obj["T"])
    print(rational_str(coverlemmas.split_goodness(z, t, args.kprime)))
    return 0


@_verb("cover schedule", coverlemmas.schedule, flags=(EPS, ROUNDS, FORMAT))
def _cover_schedule(args) -> int:
    ks = coverlemmas.schedule(_budget(args.eps), args.m)
    if args.format == "tsv":
        _emit([f"{i}\t{k}" for i, k in enumerate(ks)])
    else:
        _emit_json(ks)
    return 0


@_verb("cover shrink", coverlemmas.shrink, flags=(*PAYLOAD, EPS, ROUNDS))
def _cover_shrink(args) -> int:
    fam = _weight_family_from_json(_load_payload(args))
    z = coverlemmas.shrink(fam, _budget(args.eps), args.m)
    hit = coverlemmas.hit_weight(fam, z.mask, 1)
    _emit_json(
        {
            "Z": list(z.nodes()),
            "level": z.level,
            "hit_weight": rational_str(hit),
            "total": rational_str(fam.total()),
        }
    )
    return 0


@_verb("pforce leq", perfectposet.p_leq, flags=C1_C2)
def _pforce_leq(args) -> int:
    _emit_json(perfectposet.p_leq(*_c1_c2(args)))
    return 0


@_verb("pforce compat", perfectposet.p_compatible, flags=C1_C2)
def _pforce_compat(args) -> int:
    _emit_json(perfectposet.p_compatible(*_c1_c2(args)))
    return 0


@_verb("pforce cover", perfectposet.main_cover, perfectposet.iterate_cover,
       flags=COVER_ARGS)
def _pforce_cover(args) -> int:
    ps = [parse_pcondition(text) for text in args.b]
    if args.against is not None and len(ps) == 1:
        members = perfectposet.main_cover(ps[0], parse_pcondition(args.against), args.k)
    else:
        if args.against is not None:
            raise ValueError("--against only pairs with a single -b condition")
        members = perfectposet.iterate_cover(ps, args.k)
    _emit_json([perfectposet.pcondition_to_json(q) for q in members])
    return 0


MAX_SAMPLES = 40_000  # 0.28 s at --depth 3, 0.34 s at --depth 4
MAX_SAMPLE_DEPTH = 5  # --samples 40000: 0.87 s at --depth 5, about 5 s at 12


def _drawn_conditions(rng: random.Random, depth: int):
    """Endless dense conditions at `depth`, each from one random word.

    The law: the leaf count is uniform on 1..6; the leaves are independent
    and uniform on the 2^depth leaves (so they may repeat); the level is
    uniform on 0..depth; a candidate is kept when it is dense.  The word's
    low field picks the leaf count and the level together, and a word whose
    field is out of range is redrawn whole; the fields of `depth` bits above
    it are the leaves, one per leaf of the count.
    """
    levels = depth + 1
    picks = 6 * levels  # (leaf count, level) pairs
    width = (picks - 1).bit_length()
    low, leaf = (1 << width) - 1, (1 << depth) - 1
    bits = width + 6 * depth
    dense = cantor.densities(depth)
    while True:
        word = rng.getrandbits(bits)
        pick = word & low
        if pick >= picks:
            continue
        count, n = divmod(pick, levels)
        word >>= width
        mask = 1 << (word & leaf)
        for _ in range(count):
            word >>= depth
            mask |= 1 << (word & leaf)
        if dense[n][mask]:
            yield perfectposet.PCondition(ClopenSet(depth, mask), n)


@_verb("pforce oracle-check", perfectposet.cover_oracle, perfectposet.compat_oracle,
       flags=(*COVER_ARGS, _flag("--samples", ceiling=MAX_SAMPLES, default=0),
              _flag("--seed", type=int, default=0),
              _flag("--depth", ceiling=MAX_SAMPLE_DEPTH, default=3)))
def _pforce_oracle_check(args) -> int:
    if args.samples:
        if args.b or args.against is not None:
            raise ValueError("--samples draws its own pairs: drop -b and --against")
        draws = _drawn_conditions(random.Random(args.seed), args.depth)
        disagreements = sum(
            perfectposet.p_compatible(a, b) != perfectposet.compat_oracle(a, b)
            for a, b in itertools.islice(zip(draws, draws), args.samples)
        )
        _emit_json({"samples": args.samples, "disagreements": disagreements})
        return 0 if disagreements == 0 else 1
    if not args.b or args.against is None:
        raise ValueError("oracle-check needs -b and --against (or --samples)")
    if len(args.b) > 1:
        raise ValueError("--against only pairs with a single -b condition")
    b, c = parse_pcondition(args.b[0]), parse_pcondition(args.against)
    # the cover and its audit reject an oversized c before the compatibility
    # oracle walks up to 2^24 submasks
    members = perfectposet.main_cover(b, c, args.k)
    report = perfectposet.cover_oracle(b, c, args.k, members)
    agree = perfectposet.p_compatible(b, c) == perfectposet.compat_oracle(b, c)
    _emit_json(
        {
            "compat_agrees": agree,
            "members": len(members),
            "checked": report.checked,
            "bad_members": [str(q) for q in report.bad_members],
            "uncovered": [str(q) for q in report.uncovered],
        }
    )
    return 0 if (agree and report.ok) else 1


@_verb("soft height", soft.check_height, flags=PAYLOAD)
def _soft_height(args) -> int:
    poset, heights = _poset_from_json(_load_payload(args))
    _emit_json(soft.check_height(poset, heights))
    return 0


@_verb("soft cover", soft.find_cover, soft.verify_cover, flags=(
    *PAYLOAD, _flag("--ps", nargs="*", default=[]), _flag("--qs", nargs="*"), SOFT_M,
    _flag("--strong", action="store_true")))
def _soft_cover(args) -> int:
    if args.strong and args.qs is None:
        raise ValueError("--strong needs --qs: the cover search is weak only")
    poset, heights = _poset_from_json(_load_payload(args))
    if args.qs is not None:
        ok = soft.verify_cover(
            poset, heights, args.ps, args.m, args.qs, strong=args.strong
        )
        _emit_json(ok)
        return 0 if ok else 1
    _emit_json(soft.find_cover(poset, heights, args.ps, args.m))
    return 0


@_verb("soft star", soft.star_witness,
       flags=(*PAYLOAD, _flag("--antichain", nargs="*", default=[]), SOFT_M))
def _soft_star(args) -> int:
    poset, heights = _poset_from_json(_load_payload(args))
    print(soft.star_witness(poset, heights, args.antichain, args.m))
    return 0


@_verb("soft escape", soft.escape_function, flags=PAYLOAD)
def _soft_escape(args) -> int:
    obj = _load_payload(args)
    poset, heights = _poset_from_json(obj)
    table = soft.NameTable(
        tuple(
            (tuple(c["antichain"]), tuple(int(v) for v in c["values"]))
            for c in obj["coords"]
        )
    )
    report = soft.escape_function(poset, heights, table)
    _emit_json(
        {
            "f": [c.f for c in report.coords],
            "prefix": [c.prefix for c in report.coords],
            "ok": report.ok,
        }
    )
    return 0 if report.ok else 1


MAX_PAIRS = 15  # 2^pairs blame sets: 0.9 s at 15 pairs of 4-element posets
# 2^blocks branches at depth 24: ncov tree lists 16,384 in 0.3 s; ncov avoid
# takes 1.4 s when each is a counterexample on 24 one-bit intervals
MAX_TREE_BLOCKS = 14


@_verb("soft product", soft.product_cover, soft.product_height_step,
       flags=(*PAYLOAD, SOFT_M))
def _soft_product(args) -> int:
    obj = _load_payload(args)
    pq, gq = _poset_from_json(obj["first"])
    supp = _int_map(obj["first"], "supp")
    if not supp:
        supp = {e: 0 for e in pq.elements}
    pp, hp = _poset_from_json(obj["second"])
    pairs = [tuple(pair) for pair in obj["pairs"]]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("each of pairs is [first, second]")
    if len(pairs) > MAX_PAIRS:
        raise ValueError(f"{len(pairs)} pairs: soft product stops at {MAX_PAIRS}")
    cover = soft.product_cover(pq, gq, supp, pp, hp, pairs, args.m)
    poset, heights = soft.product_poset(pq, gq, supp, pp, hp)
    ok = soft.verify_cover(poset, heights, pairs, args.m, cover)
    _emit_json({"cover": [list(p) for p in cover], "verified": ok})
    return 0 if ok else 1


MAX_BUILD_DEPTH = 15  # 0.5 s at --m 1 --granularity 1 (65,536 leaves listed)
# leaves listed over both coordinates of every entry: 0.7 s at --m 2
# --granularity 1 --depth 15 (6 entries), 1.5 s at --m 2 --granularity 5
# --depth 11 (31,776 entries)
MAX_CHAIN_LEAVES = 1 << 17


@_verb("diag build", diagonal.build_chain,
       flags=(DIAG_M, _flag("--granularity", type=int, default=2), V,
              _flag("--depth", ceiling=MAX_BUILD_DEPTH, default=3)))
def _diag_build(args) -> int:
    m, g, depth = args.m, args.granularity, args.depth
    if g > 0 and m * g <= depth:  # otherwise build_chain names the fault
        span = 1 << g
        # level l has span (span (span - 1))^l entries, each two cylinders
        # of 2^(depth - g (l + 1)) leaves
        listed = sum(2 * span * (span * (span - 1)) ** l << depth - g * (l + 1)
                     for l in range(m))
        if listed > MAX_CHAIN_LEAVES:
            raise ValueError(f"the chain lists {listed} leaves: diag build stops "
                             f"at {MAX_CHAIN_LEAVES}")
    chain = diagonal.build_chain(m, g, args.v, depth)
    _emit_json(_chain_to_json(chain))
    return 0


@_verb("diag verify", diagonal.verify_chain, flags=(*PAYLOAD, V))
def _diag_verify(args) -> int:
    chain = _chain_from_json(_load_payload(args))
    report = diagonal.verify_chain(chain, args.v)
    _emit_json(
        {
            "ok": report.ok,
            "families": report.families,
            "entries": report.entries,
            "violations": list(report.violations),
        }
    )
    return 0 if report.ok else 1


@_verb("diag zeta", diagonal.zeta,
       flags=(*PAYLOAD, _flag("--l", type=int, default=0), VARIANT))
def _diag_zeta(args) -> int:
    ps = _schedule_from_json(_load_payload(args))
    print(rational_str(diagonal.zeta(ps, args.l, args.variant)))
    return 0


@_verb("diag validate", diagonal.validate_params, flags=(*PAYLOAD, VARIANT, FORMAT))
def _diag_validate(args) -> int:
    ps = _schedule_from_json(_load_payload(args))
    report = diagonal.validate_params(ps, args.variant)
    if args.format == "tsv":
        _emit(
            [
                f"{c.name}\t{'pass' if c.passed else 'FAIL'}\t{c.message}"
                for c in report.checks
            ]
        )
    else:
        for c in report.checks:
            print(("ok " if c.passed else "FAIL ") + c.message)
    return 0 if report.ok else 1


@_verb("diag search", diagonal.find_params, flags=(DIAG_M,))
def _diag_search(args) -> int:
    ps = diagonal.find_params(args.m)
    _emit_json(_schedule_to_json(ps))
    return 0


@_verb("ncov budget", nullcover.budget, flags=(*PAYLOAD, FORMAT))
def _ncov_budget(args) -> int:
    cover = _cover_from_json(_load_payload(args))
    report = nullcover.budget(cover)
    if args.format == "tsv":
        _emit(
            [f"total\t{rational_str(report.total)}"]
            + [
                f"{m}\t{cover.entries[m][0]}\t{'ok' if ok else 'OVERSIZE'}"
                for m, ok in enumerate(report.sizes_ok)
            ]
        )
    else:
        print(rational_str(report.total))
        for m, ok in enumerate(report.sizes_ok):
            if not ok:
                print(f"OVERSIZE at index {m}")
    return 0 if report.ok else 1


@_verb("ncov measure", nullcover.union_measure,
       flags=(*PAYLOAD, _flag("--indices", type=int, nargs="*", default=[])))
def _ncov_measure(args) -> int:
    cover = _cover_from_json(_load_payload(args))
    print(rational_str(nullcover.union_measure(cover, args.indices)))
    return 0


@_verb("ncov sparse", nullcover.select_sparse, flags=(
    *PAYLOAD, _flag("--points", type=int, nargs="*", default=[]),
    _flag("--count", type=int)))
def _ncov_sparse(args) -> int:
    part_objs = _load_payload(args)
    parts = [_partition_from_json(p) for p in part_objs]
    chosen = nullcover.select_sparse(args.points, parts, args.count)
    _emit_json(chosen)
    return 0


@_verb("ncov kn", nullcover.kn_set, flags=(
    _flag("--traps", nargs="*", default=[]), _flag("--lo", type=int, default=0),
    _flag("--hi", type=int, default=1), _flag("--i", type=int, default=0)))
def _ncov_kn(args) -> int:
    out = nullcover.kn_set(args.traps, (args.lo, args.hi), args.i)
    _emit_json(sorted(out))
    return 0


def _block_tree(r: str, d: list, depth: int) -> nullcover.BlockTree:
    """The tree, refused before its branches are listed or walked when it
    has more than MAX_TREE_BLOCKS blocks."""
    tree = nullcover.BlockTree(r, tuple(d), depth)
    if len(tree.blocks()) > MAX_TREE_BLOCKS:
        raise ValueError(f"{len(tree.blocks())} blocks: block trees stop at "
                         f"{MAX_TREE_BLOCKS}")
    return tree


@_verb("ncov tree", nullcover.block_tree_branches, flags=(
    _flag("--r", default=""), _flag("--d", type=int, nargs="*", default=[0]),
    _flag("--level", type=int, default=0)))
def _ncov_tree(args) -> int:
    tree = _block_tree(args.r, args.d, args.level)
    branches = nullcover.block_tree_branches(tree)
    _emit_json(list(branches.nodes()))
    return 0


@_verb("ncov avoid", nullcover.avoidance_check, flags=PAYLOAD)
def _ncov_avoid(args) -> int:
    obj = _load_payload(args)
    tree = _block_tree(obj["r"], obj["d"], int(obj["depth"]))
    part = _partition_from_json(obj["partition"])
    k_sets = [tuple(dict.fromkeys(ks)) for ks in obj["K"]]  # payload order
    points = [int(x) for x in obj["points"]]
    report = nullcover.avoidance_check(tree, part, k_sets, points)
    _emit_json(
        {
            "ok": report.ok,
            "branches": report.branches,
            "trap_hits": report.trap_hits,
            "counterexamples": [list(c) for c in report.counterexamples],
            "misaligned": list(report.misaligned_intervals),
        }
    )
    return 0 if report.ok else 1


# ------------------------------------------------------------------ parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process from the registry, in registration
    order: a sub-parser per verb and, under it, one per action, each holding
    only the flags its path declares."""
    parser = argparse.ArgumentParser(prog="clopenforce")
    verbs = parser.add_subparsers(dest="verb", required=True)
    actions: dict[str, argparse._SubParsersAction] = {}
    for path, flags in _FLAGS.items():
        verb, _, action = path.partition(" ")
        if action and verb not in actions:
            sub = verbs.add_parser(verb)
            actions[verb] = sub.add_subparsers(dest="action", required=True)
        sub = actions[verb].add_parser(action) if action else verbs.add_parser(verb)
        for names, kwargs in flags:
            sub.add_argument(*names, **kwargs)
    return parser


def dispatch(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        handler = _HANDLERS[f"{args.verb} {getattr(args, 'action', '')}".rstrip()]
        return handler(args)
    except SystemExit as exc:  # argparse: -h, or an error reported on stderr
        return 2 if exc.code not in (0, None) else 0
    except ConstructionError as exc:
        print(f"{exc.kind}: {exc}")
        return 1
    except (_OutOfRange, ValueError, KeyError, TypeError, OSError) as exc:
        # malformed payloads (a missing JSON key, a wrong JSON type, no such
        # file) and counts above their ceilings
        print(f"usage-error: {exc}")
        return 2


def main() -> None:
    sys.exit(dispatch())
