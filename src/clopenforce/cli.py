"""Single command-line entry point with machine-readable output.

Exit status: 0 on success, 1 when a checked property fails (cover oracle
violation, failed validation, oversize cover, avoidance counterexample),
2 on usage errors, malformed payloads included.  Identical invocations
produce byte-identical output: JSON is emitted with sorted keys and all
randomness is seeded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

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

# Published verb table: operation -> the one verb that reaches it.
VERB_TABLE: dict[str, tuple[str, ...]] = {
    "eps": ("numerics.epsilon", "numerics.min_k_for", "numerics.binom"),
    "cover halve": ("coverlemmas.halve_once",),
    "cover goodness": ("coverlemmas.split_goodness",),
    "cover schedule": ("coverlemmas.schedule",),
    "cover shrink": ("coverlemmas.shrink",),
    "pforce leq": ("perfectposet.p_leq",),
    "pforce compat": ("perfectposet.p_compatible",),
    "pforce cover": ("perfectposet.main_cover", "perfectposet.iterate_cover"),
    "pforce oracle-check": (
        "perfectposet.cover_oracle",
        "perfectposet.compat_oracle",
    ),
    "soft height": ("soft.check_height",),
    "soft cover": ("soft.find_cover", "soft.verify_cover"),
    "soft star": ("soft.star_witness",),
    "soft escape": ("soft.escape_function",),
    "soft product": ("soft.product_cover", "soft.product_height_step"),
    "diag build": ("diagonal.build_chain",),
    "diag verify": ("diagonal.verify_chain",),
    "diag zeta": ("diagonal.zeta",),
    "diag validate": ("diagonal.validate_params",),
    "diag search": ("diagonal.find_params",),
    "ncov budget": ("nullcover.budget",),
    "ncov measure": ("nullcover.union_measure",),
    "ncov sparse": ("nullcover.select_sparse",),
    "ncov kn": ("nullcover.kn_set",),
    "ncov tree": ("nullcover.block_tree_branches",),
    "ncov avoid": ("nullcover.avoidance_check",),
}


def _load_payload(args) -> dict | list:
    if getattr(args, "file", None):
        with open(args.file, "r", encoding="utf-8") as fh:
            return json.load(fh)
    if getattr(args, "json", None):
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
    heights = {k: int(v) for k, v in obj.get("height", {}).items()}
    return poset, heights


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


def _condition(text: str) -> perfectposet.PCondition:
    return perfectposet.parse_pcondition(text)


# ---------------------------------------------------------------- handlers


def _run_eps(args) -> int:
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


def _run_cover(args) -> int:
    if args.action == "halve":
        fam = _weight_family_from_json(_load_payload(args))
        z = coverlemmas.halve_once(fam, args.kprime)
        _emit_json({"Z": list(z.nodes()), "level": z.level})
        return 0
    if args.action == "goodness":
        obj = _load_payload(args)
        level = int(obj["level"])
        z = LevelSet.from_nodes(level, obj["Z"])
        t = LevelSet.from_nodes(level, obj["T"])
        print(rational_str(coverlemmas.split_goodness(z, t, args.kprime)))
        return 0
    if args.action == "schedule":
        ks = coverlemmas.schedule(rational(args.eps), args.m)
        if args.format == "tsv":
            _emit([f"{i}\t{k}" for i, k in enumerate(ks)])
        else:
            _emit_json(ks)
        return 0
    if args.action == "shrink":
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
    raise ValueError(f"unknown cover action {args.action!r}")


def _run_pforce(args) -> int:
    if args.action == "leq":
        print(str(perfectposet.p_leq(_condition(args.c1), _condition(args.c2))).lower())
        return 0
    if args.action == "compat":
        print(
            str(
                perfectposet.p_compatible(_condition(args.c1), _condition(args.c2))
            ).lower()
        )
        return 0
    if args.action == "cover":
        ps = [_condition(text) for text in args.b]
        if args.against is not None and len(ps) == 1:
            members = perfectposet.main_cover(ps[0], _condition(args.against), args.k)
        else:
            if args.against is not None:
                raise ValueError("--against only pairs with a single -b condition")
            members = perfectposet.iterate_cover(ps, args.k)
        _emit_json([perfectposet.pcondition_to_json(q) for q in members])
        return 0
    if args.action == "oracle-check":
        if args.samples:
            return _oracle_samples(args)
        b = _condition(args.b[0]) if args.b else None
        if b is None or args.against is None:
            raise ValueError("oracle-check needs -b and --against (or --samples)")
        c = _condition(args.against)
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
    raise ValueError(f"unknown pforce action {args.action!r}")


def _oracle_samples(args) -> int:
    rng = random.Random(args.seed)
    depth = args.depth
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


def _run_soft(args) -> int:
    if args.action == "height":
        poset, heights = _poset_from_json(_load_payload(args))
        print(str(soft.check_height(poset, heights)).lower())
        return 0
    if args.action == "cover":
        poset, heights = _poset_from_json(_load_payload(args))
        if args.qs is not None:
            ok = soft.verify_cover(
                poset, heights, args.ps, args.m, args.qs, strong=args.strong
            )
            print(str(ok).lower())
            return 0 if ok else 1
        _emit_json(soft.find_cover(poset, heights, args.ps, args.m))
        return 0
    if args.action == "star":
        poset, heights = _poset_from_json(_load_payload(args))
        print(soft.star_witness(poset, heights, args.antichain, args.m))
        return 0
    if args.action == "escape":
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
    if args.action == "product":
        obj = _load_payload(args)
        pq, gq = _poset_from_json(obj["first"])
        supp = {k: int(v) for k, v in obj["first"].get("supp", {}).items()}
        if not supp:
            supp = {e: 0 for e in pq.elements}
        pp, hp = _poset_from_json(obj["second"])
        pairs = [tuple(pair) for pair in obj["pairs"]]
        cover = soft.product_cover(pq, gq, supp, pp, hp, pairs, args.m)
        poset, heights = soft.product_poset(pq, gq, supp, pp, hp)
        ok = soft.verify_cover(poset, heights, pairs, args.m, cover)
        _emit_json({"cover": [list(p) for p in cover], "verified": ok})
        return 0 if ok else 1
    raise ValueError(f"unknown soft action {args.action!r}")


def _run_diag(args) -> int:
    if args.action == "build":
        chain = diagonal.build_chain(args.m, args.granularity, args.v, args.depth)
        _emit_json(_chain_to_json(chain))
        return 0
    if args.action == "verify":
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
    if args.action == "zeta":
        ps = _schedule_from_json(_load_payload(args))
        print(rational_str(diagonal.zeta(ps, args.l, args.variant)))
        return 0
    if args.action == "validate":
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
    if args.action == "search":
        ps = diagonal.find_params(args.m)
        _emit_json(_schedule_to_json(ps))
        return 0
    raise ValueError(f"unknown diag action {args.action!r}")


def _run_ncov(args) -> int:
    if args.action == "budget":
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
    if args.action == "measure":
        cover = _cover_from_json(_load_payload(args))
        print(rational_str(nullcover.union_measure(cover, args.indices)))
        return 0
    if args.action == "sparse":
        part_objs = _load_payload(args)
        parts = [_partition_from_json(p) for p in part_objs]
        chosen = nullcover.select_sparse(args.points, parts, args.count)
        _emit_json(chosen)
        return 0
    if args.action == "kn":
        out = nullcover.kn_set(args.traps, (args.lo, args.hi), args.i)
        _emit_json(sorted(out))
        return 0
    if args.action == "tree":
        tree = nullcover.BlockTree(args.r, tuple(args.d), args.level)
        branches = nullcover.block_tree_branches(tree)
        _emit_json(list(branches.nodes()))
        return 0
    if args.action == "avoid":
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
    raise ValueError(f"unknown ncov action {args.action!r}")


def _build_parser() -> argparse.ArgumentParser:
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
    sub = parser.add_subparsers(dest="verb", required=True)

    eps = sub.add_parser("eps", parents=[common])
    eps.add_argument("--k", type=int)
    eps.add_argument("--kprime", type=int)
    eps.add_argument("--bound", type=str)
    eps.add_argument("--binom", type=int, nargs=2, metavar=("N", "J"))
    eps.set_defaults(func=_run_eps)

    cover = sub.add_parser("cover", parents=[common])
    cover.add_argument("action", choices=("halve", "goodness", "schedule", "shrink"))
    cover.add_argument("--file")
    cover.add_argument("--json")
    cover.add_argument("--kprime", type=int, default=1)
    cover.add_argument("--eps", type=str)
    cover.add_argument("--m", type=int)
    cover.set_defaults(func=_run_cover)

    pforce = sub.add_parser("pforce", parents=[common])
    pforce.add_argument("action", choices=("leq", "compat", "cover", "oracle-check"))
    pforce.add_argument("--c1")
    pforce.add_argument("--c2")
    pforce.add_argument("-b", action="append", default=[])
    pforce.add_argument("--against")
    pforce.add_argument("--k", type=int, default=0)
    pforce.add_argument("--samples", type=int, default=0)
    pforce.set_defaults(func=_run_pforce)

    softp = sub.add_parser("soft", parents=[common])
    softp.add_argument("action", choices=("height", "cover", "star", "escape", "product"))
    softp.add_argument("--file")
    softp.add_argument("--json")
    softp.add_argument("--ps", nargs="*", default=[])
    softp.add_argument("--qs", nargs="*", default=None)
    softp.add_argument("--antichain", nargs="*", default=[])
    softp.add_argument("--m", type=int, default=0)
    softp.add_argument("--strong", action="store_true")
    softp.set_defaults(func=_run_soft)

    diag = sub.add_parser("diag", parents=[common])
    diag.add_argument("action", choices=("build", "verify", "zeta", "validate", "search"))
    diag.add_argument("--file")
    diag.add_argument("--json")
    diag.add_argument("--m", type=int, default=1)
    diag.add_argument("--granularity", type=int, default=2)
    diag.add_argument("--v", type=int, default=2)
    diag.add_argument("--l", type=int, default=0)
    diag.add_argument("--variant", choices=("2.5", "2.6"), default="2.5")
    diag.set_defaults(func=_run_diag)

    ncov = sub.add_parser("ncov", parents=[common])
    ncov.add_argument("action", choices=("budget", "measure", "sparse", "kn", "tree", "avoid"))
    ncov.add_argument("--file")
    ncov.add_argument("--json")
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
    ncov.set_defaults(func=_run_ncov)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # `--depth` is consumed where relevant; keep args.depth for handlers.
    try:
        return args.func(args)
    except ConstructionError as exc:
        print(f"{exc.kind}: {exc}")
        return 1
    except (ValueError, KeyError, TypeError, OSError) as exc:
        # malformed payloads: a missing JSON key, a wrong JSON type, no such file
        print(f"usage-error: {exc}")
        return 2


def main() -> None:
    sys.exit(dispatch())
