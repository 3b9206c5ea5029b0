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
import json
import random
import sys
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
    poset = soft.FinitePoset(
        obj["elements"], [tuple(p) for p in obj["leq"]], obj["top"]
    )
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
        tuple(frozenset(js) for js in obj["J"]),
    )


def _c1_c2(args) -> tuple[perfectposet.PCondition, perfectposet.PCondition]:
    if args.c1 is None or args.c2 is None:
        raise ValueError(f"pforce {args.action} needs --c1 and --c2")
    return parse_pcondition(args.c1), parse_pcondition(args.c2)


# ------------------------------------------------------------ verb registry

# verb path ("cover halve", or a bare verb) -> its handler, in CLI order
_HANDLERS: dict[str, Callable[[argparse.Namespace], int]] = {}
# Published verb table: verb path -> the library operations it reaches.
VERB_TABLE: dict[str, tuple[str, ...]] = {}


def _verb(path: str, *reaches: Callable):
    """Register the decorated handler for `path`; `reaches` are the library
    functions it calls, published in VERB_TABLE as "module.func"."""

    def register(handler):
        _HANDLERS[path] = handler
        VERB_TABLE[path] = tuple(
            f"{f.__module__.rpartition('.')[2]}.{f.__name__}" for f in reaches
        )
        return handler

    return register


@_verb("eps", numerics.epsilon, numerics.min_k_for, numerics.binom)
def _eps(args) -> int:
    if args.binom:
        n, j = args.binom
        print(numerics.binom(n, j))
        return 0
    if args.bound is not None:
        if args.kprime is None:
            raise ValueError("min-k mode needs --kprime")
        print(numerics.min_k_for(args.kprime, rational(args.bound)))
        return 0
    if args.k is None or args.kprime is None:
        raise ValueError("eps needs --k and --kprime (or --bound / --binom)")
    print(rational_str(numerics.epsilon(args.k, args.kprime)))
    return 0


@_verb("cover halve", coverlemmas.halve_once)
def _cover_halve(args) -> int:
    fam = _weight_family_from_json(_load_payload(args))
    z = coverlemmas.halve_once(fam, args.kprime)
    _emit_json({"Z": list(z.nodes()), "level": z.level})
    return 0


@_verb("cover goodness", coverlemmas.split_goodness)
def _cover_goodness(args) -> int:
    obj = _load_payload(args)
    level = int(obj["level"])
    z = LevelSet.from_nodes(level, obj["Z"])
    t = LevelSet.from_nodes(level, obj["T"])
    print(rational_str(coverlemmas.split_goodness(z, t, args.kprime)))
    return 0


@_verb("cover schedule", coverlemmas.schedule)
def _cover_schedule(args) -> int:
    ks = coverlemmas.schedule(rational(args.eps), args.m)
    if args.format == "tsv":
        _emit([f"{i}\t{k}" for i, k in enumerate(ks)])
    else:
        _emit_json(ks)
    return 0


@_verb("cover shrink", coverlemmas.shrink)
def _cover_shrink(args) -> int:
    fam = _weight_family_from_json(_load_payload(args))
    z = coverlemmas.shrink(fam, rational(args.eps), args.m)
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


@_verb("pforce leq", perfectposet.p_leq)
def _pforce_leq(args) -> int:
    _emit_json(perfectposet.p_leq(*_c1_c2(args)))
    return 0


@_verb("pforce compat", perfectposet.p_compatible)
def _pforce_compat(args) -> int:
    _emit_json(perfectposet.p_compatible(*_c1_c2(args)))
    return 0


@_verb("pforce cover", perfectposet.main_cover, perfectposet.iterate_cover)
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


@_verb("pforce oracle-check", perfectposet.cover_oracle, perfectposet.compat_oracle)
def _pforce_oracle_check(args) -> int:
    if args.samples:
        rng = random.Random(args.seed)
        depth = cantor.check_depth(args.depth)
        disagreements = 0
        for _ in range(args.samples):
            conds = []
            while len(conds) < 2:
                mask = 0
                for _ in range(rng.randint(1, 6)):
                    mask |= 1 << rng.randrange(1 << depth)
                n = rng.randint(0, depth)
                if cantor.density_ok(ClopenSet(depth, mask), n):
                    conds.append(perfectposet.PCondition(ClopenSet(depth, mask), n))
            a, b = conds
            if perfectposet.p_compatible(a, b) != perfectposet.compat_oracle(a, b):
                disagreements += 1
        _emit_json({"samples": args.samples, "disagreements": disagreements})
        return 0 if disagreements == 0 else 1
    b = parse_pcondition(args.b[0]) if args.b else None
    if b is None or args.against is None:
        raise ValueError("oracle-check needs -b and --against (or --samples)")
    c = parse_pcondition(args.against)
    agree = perfectposet.p_compatible(b, c) == perfectposet.compat_oracle(b, c)
    members = perfectposet.main_cover(b, c, args.k)
    report = perfectposet.cover_oracle(b, c, args.k, members)
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


@_verb("soft height", soft.check_height)
def _soft_height(args) -> int:
    poset, heights = _poset_from_json(_load_payload(args))
    _emit_json(soft.check_height(poset, heights))
    return 0


@_verb("soft cover", soft.find_cover, soft.verify_cover)
def _soft_cover(args) -> int:
    poset, heights = _poset_from_json(_load_payload(args))
    if args.qs is not None:
        ok = soft.verify_cover(
            poset, heights, args.ps, args.m, args.qs, strong=args.strong
        )
        _emit_json(ok)
        return 0 if ok else 1
    _emit_json(soft.find_cover(poset, heights, args.ps, args.m))
    return 0


@_verb("soft star", soft.star_witness)
def _soft_star(args) -> int:
    poset, heights = _poset_from_json(_load_payload(args))
    print(soft.star_witness(poset, heights, args.antichain, args.m))
    return 0


@_verb("soft escape", soft.escape_function)
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


@_verb("soft product", soft.product_cover, soft.product_height_step)
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
    cover = soft.product_cover(pq, gq, supp, pp, hp, pairs, args.m)
    poset, heights = soft.product_poset(pq, gq, supp, pp, hp)
    ok = soft.verify_cover(poset, heights, pairs, args.m, cover)
    _emit_json({"cover": [list(p) for p in cover], "verified": ok})
    return 0 if ok else 1


@_verb("diag build", diagonal.build_chain)
def _diag_build(args) -> int:
    chain = diagonal.build_chain(args.m, args.granularity, args.v, args.depth)
    _emit_json(_chain_to_json(chain))
    return 0


@_verb("diag verify", diagonal.verify_chain)
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


@_verb("diag zeta", diagonal.zeta)
def _diag_zeta(args) -> int:
    ps = _schedule_from_json(_load_payload(args))
    print(rational_str(diagonal.zeta(ps, args.l, args.variant)))
    return 0


@_verb("diag validate", diagonal.validate_params)
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


@_verb("diag search", diagonal.find_params)
def _diag_search(args) -> int:
    ps = diagonal.find_params(args.m)
    _emit_json(_schedule_to_json(ps))
    return 0


@_verb("ncov budget", nullcover.budget)
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


@_verb("ncov measure", nullcover.union_measure)
def _ncov_measure(args) -> int:
    cover = _cover_from_json(_load_payload(args))
    print(rational_str(nullcover.union_measure(cover, args.indices)))
    return 0


@_verb("ncov sparse", nullcover.select_sparse)
def _ncov_sparse(args) -> int:
    part_objs = _load_payload(args)
    parts = [_partition_from_json(p) for p in part_objs]
    chosen = nullcover.select_sparse(args.points, parts, args.count)
    _emit_json(chosen)
    return 0


@_verb("ncov kn", nullcover.kn_set)
def _ncov_kn(args) -> int:
    out = nullcover.kn_set(args.traps, (args.lo, args.hi), args.i)
    _emit_json(sorted(out))
    return 0


@_verb("ncov tree", nullcover.block_tree_branches)
def _ncov_tree(args) -> int:
    tree = nullcover.BlockTree(args.r, tuple(args.d), args.level)
    branches = nullcover.block_tree_branches(tree)
    _emit_json(list(branches.nodes()))
    return 0


@_verb("ncov avoid", nullcover.avoidance_check)
def _ncov_avoid(args) -> int:
    obj = _load_payload(args)
    tree = nullcover.BlockTree(obj["r"], tuple(obj["d"]), int(obj["depth"]))
    part = _partition_from_json(obj["partition"])
    k_sets = [frozenset(ks) for ks in obj["K"]]
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
    """The parser, built once per process: its verbs and their action
    choices are read from the registry, in registration order."""
    parser = argparse.ArgumentParser(prog="clopenforce")
    parser.add_argument("--format", choices=("auto", "json", "tsv"), default="auto")
    parser.add_argument("--depth", type=int, default=3, help="global resolution depth")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled modes")
    # the same flags are accepted after the verb as well
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("auto", "json", "tsv"), default=argparse.SUPPRESS
    )
    common.add_argument("--depth", type=int, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    payload = argparse.ArgumentParser(add_help=False)
    payload.add_argument("--file")
    payload.add_argument("--json")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name: str, *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common, *parents])
        actions = [path.split()[1] for path in _HANDLERS if path.startswith(name + " ")]
        if actions:
            p.add_argument("action", choices=actions)
        return p

    eps = verb("eps")
    eps.add_argument("--k", type=int)
    eps.add_argument("--kprime", type=int)
    eps.add_argument("--bound", type=str)
    eps.add_argument("--binom", type=int, nargs=2, metavar=("N", "J"))

    cover = verb("cover", payload)
    cover.add_argument("--kprime", type=int, default=1)
    cover.add_argument("--eps", type=str)
    cover.add_argument("--m", type=int)

    pforce = verb("pforce")
    pforce.add_argument("--c1")
    pforce.add_argument("--c2")
    pforce.add_argument("-b", action="append", default=[])
    pforce.add_argument("--against")
    pforce.add_argument("--k", type=int, default=0)
    pforce.add_argument("--samples", type=int, default=0)

    softp = verb("soft", payload)
    softp.add_argument("--ps", nargs="*", default=[])
    softp.add_argument("--qs", nargs="*", default=None)
    softp.add_argument("--antichain", nargs="*", default=[])
    softp.add_argument("--m", type=int, default=0)
    softp.add_argument("--strong", action="store_true")

    diag = verb("diag", payload)
    diag.add_argument("--m", type=int, default=1)
    diag.add_argument("--granularity", type=int, default=2)
    diag.add_argument("--v", type=int, default=2)
    diag.add_argument("--l", type=int, default=0)
    diag.add_argument("--variant", choices=("2.5", "2.6"), default="2.5")

    ncov = verb("ncov", payload)
    ncov.add_argument("--indices", type=int, nargs="*", default=[])
    ncov.add_argument("--points", type=int, nargs="*", default=[])
    ncov.add_argument("--count", type=int, default=None)
    ncov.add_argument("--traps", nargs="*", default=[])
    ncov.add_argument("--lo", type=int, default=0)
    ncov.add_argument("--hi", type=int, default=1)
    ncov.add_argument("--i", type=int, default=0)
    ncov.add_argument("--r", default="")
    ncov.add_argument("--d", type=int, nargs="*", default=[0])
    ncov.add_argument("--level", type=int, default=0)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handler = _HANDLERS[f"{args.verb} {getattr(args, 'action', '')}".rstrip()]
    try:
        return handler(args)
    except ConstructionError as exc:
        print(f"{exc.kind}: {exc}")
        return 1
    except (ValueError, KeyError, TypeError, OSError) as exc:
        # malformed payloads: a missing JSON key, a wrong JSON type, no such file
        print(f"usage-error: {exc}")
        return 2


def main() -> None:
    sys.exit(dispatch())
