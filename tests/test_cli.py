import argparse
import collections
import hashlib
import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

from clopenforce import cantor, cli, coverlemmas, perfectposet
from clopenforce.cli import VERB_TABLE, dispatch
from clopenforce.errors import ConstructionError
from clopenforce.perfectposet import MAX_TABLE_NODES


def run(capsys, *argv):
    code = dispatch(list(argv))
    return code, capsys.readouterr().out


POSET = {"elements": ["a", "b", "top"], "leq": [], "top": "top",
         "height": {"a": 0, "b": 0, "top": 0}}
CHAIN = {"elements": ["a", "b", "top"], "leq": [["a", "b"]], "top": "top",
         "height": {"a": 2, "b": 1, "top": 0}}
FAMILY = {"n": 2, "k": 2, "Z": ["00", "01", "10", "11"],
          "weights": [{"T": ["00", "01", "10", "11"], "a": "1"}]}
SCHED = {"m": 2, "delta": "1/256", "z": [2, 2048], "y": [8],
         "eps": "1/68719476736", "v": 2049}
SCHED_FAIL = {"m": 1, "delta": "1/10", "z": [2], "y": [], "eps": "1/4000", "v": 3}
COVER = [{"n": 0, "Z": []}, {"n": 2, "Z": ["00", "11"]}, {"n": 3, "Z": ["010"]}]
OVERSIZE = [{"n": 0, "Z": []}, {"n": 2, "Z": ["00", "01", "10", "11"]}]
AVOID = {"r": "0000", "d": [0, 2, 4], "depth": 4,
         "partition": {"intervals": [[0, 4]], "J": [["0011"]]},
         "K": [["0011", "1100", "0000", "1111"]], "points": [2]}
CHAIN_D2 = {"order": 1, "entries": [
    {"i": i, "p": {"depth": 2, "nodes": [node]}, "q": {"depth": 2, "nodes": [node]},
     "sigma": [], "tau": []}
    for i, node in enumerate(("00", "01", "10", "11"))]}
B = "(d=2:{00,01}, n=1)"
TOP = "(d=2:{00,01,10,11}, n=0)"


def pinned_calls() -> list[list[str]]:
    """Every verb path with a valid payload, the tsv renderings, flags
    misplaced before the verb, exit-1 cases and usage errors, counts above
    their ceilings among them; files are read from the working directory
    (see `write_pinned_files`)."""
    j = json.dumps
    return [
        ["eps", "--k", "3", "--kprime", "1"],
        ["eps", "--kprime", "1", "--bound", "1/16"],
        ["eps", "--binom", "4", "2"],
        ["eps", "--k", "3", "--kprime", "9"],
        ["eps"],
        ["eps", "--kprime", "2", "--bound", "0"],
        ["eps", "--k", "4097", "--kprime", "1"],
        ["eps", "--kprime", "257", "--bound", "1/16"],
        ["cover", "halve", "--json", j(FAMILY), "--kprime", "1"],
        ["cover", "goodness", "--kprime", "1", "--json",
         j({"level": 2, "Z": ["00", "01", "10", "11"], "T": ["00", "01"]})],
        ["cover", "schedule", "--eps", "1/2", "--m", "2"],
        ["--format", "tsv", "cover", "schedule", "--eps", "1/3", "--m", "3"],
        ["cover", "schedule", "--eps", "1/2", "--m", "2", "--format", "tsv"],
        ["cover", "schedule", "--eps", "1/2", "--m", "2", "--format", "auto"],
        ["cover", "schedule", "--eps", "1/2", "--m", "7"],
        ["cover", "shrink", "--eps", "1/2", "--m", "1", "--json", j(dict(FAMILY, k=3))],
        ["cover", "shrink", "--eps", "1/2", "--m", "2", "--json", j(dict(FAMILY, k=3))],
        ["cover", "nonsense"],
        ["cover", "halve", "--json", "{}"],
        ["pforce", "leq", "--c1", B, "--c2", "(d=2:{00,01}, n=0)"],
        ["pforce", "compat", "--c1", B, "--c2", "(d=2:{10,11}, n=1)"],
        ["pforce", "cover", "-b", B, "--k", "2"],
        ["pforce", "cover", "-b", B, "-b", "(d=2:{00,10}, n=2)", "--k", "2"],
        ["pforce", "cover", "-b", B, "--against", TOP, "--k", "2"],
        ["pforce", "oracle-check", "-b", B, "--against", TOP, "--k", "2"],
        ["pforce", "oracle-check", "--samples", "40", "--seed", "7", "--depth", "4"],
        ["--seed", "7", "--depth", "4", "pforce", "oracle-check", "--samples", "40"],
        ["--seed", "5", "pforce", "oracle-check", "--samples", "30", "--depth", "2"],
        ["--depth", "2", "pforce", "oracle-check", "--samples", "30", "--seed", "5"],
        ["pforce", "oracle-check"],
        ["pforce", "oracle-check", "--samples", "-5"],
        ["pforce", "oracle-check", "-b", B, "-b", "(d=2:{00,10}, n=2)",
         "--against", TOP, "--k", "2"],
        ["soft", "height", "--json", j(POSET)],
        ["soft", "height", "--json", j(dict(CHAIN, height={"a": 0, "b": 1, "top": 0}))],
        ["soft", "cover", "--ps", "a", "--m", "1", "--json", j(POSET)],
        ["soft", "cover", "--ps", "a", "--qs", "b", "--m", "1", "--json", j(POSET)],
        ["soft", "cover", "--ps", "a", "--qs", "b", "--m", "1", "--strong",
         "--json", j(CHAIN)],
        ["soft", "cover", "--ps", "b", "--qs", "--m", "0", "--json", j(CHAIN)],
        ["soft", "cover", "--ps", "a", "--m", "1", "--strong", "--json", j(POSET)],
        ["soft", "star", "--antichain", "a", "b", "--m", "0", "--json", j(POSET)],
        ["soft", "star", "--antichain", "a", "--m", "1", "--json", j(CHAIN)],
        ["soft", "escape", "--json",
         j(dict(POSET, coords=[{"antichain": ["a", "b"], "values": [5, 3]}]))],
        ["soft", "product", "--m", "1", "--json", j({
            "first": dict(POSET, supp={"a": 0, "b": 0, "top": 0}),
            "second": POSET, "pairs": [["top", "a"]]})],
        ["soft", "product", "--m", "1", "--json",
         j({"first": CHAIN, "second": POSET, "pairs": [["a", "b"]]})],
        ["soft", "star", "--json", "{}"],
        ["soft", "escape", "--json", j(POSET)],
        ["soft", "cover", "--file", "/nonexistent/poset.json"],
        ["soft", "star", "--antichain", "zz", "--json", j(POSET)],
        ["soft", "cover", "--ps", "zz", "--json", j(POSET)],
        ["diag", "build", "--m", "1", "--granularity", "2", "--v", "3", "--depth", "2"],
        ["diag", "build", "--m", "1", "--granularity", "1", "--v", "2"],
        ["diag", "verify", "--v", "3", "--json", j(CHAIN_D2)],
        ["diag", "verify", "--v", "2", "--json", j(CHAIN_D2)],
        ["diag", "zeta", "--l", "1", "--json", j(SCHED)],
        ["diag", "zeta", "--l", "0", "--variant", "2.6", "--json", j(SCHED)],
        ["diag", "validate", "--file", "sched.json"],
        ["diag", "validate", "--variant", "2.6", "--json", j(SCHED)],
        ["diag", "validate", "--file", "sched_fail.json"],
        ["--format", "tsv", "diag", "validate", "--file", "sched_fail.json"],
        ["diag", "validate", "--json", j(SCHED), "--format", "tsv"],
        ["diag", "search", "--m", "1"],
        ["diag", "search", "--m", "2"],
        ["ncov", "budget", "--file", "cover.json"],
        ["ncov", "budget", "--json", "[]"],
        ["ncov", "budget", "--json", j(OVERSIZE)],
        ["--format", "tsv", "ncov", "budget", "--json", j(COVER)],
        ["ncov", "budget", "--format", "tsv", "--json", j(OVERSIZE)],
        ["ncov", "measure", "--indices", "1", "2", "--json", j(COVER)],
        ["ncov", "sparse", "--points", "0", "1", "2", "3", "--json",
         j([{"intervals": [[0, 2], [2, 4]], "J": [[], []]}])],
        ["ncov", "kn", "--traps", "0110", "--lo", "0", "--hi", "4", "--i", "2"],
        ["ncov", "tree", "--r", "0000", "--d", "0", "2", "4", "--level", "4"],
        ["ncov", "avoid", "--json", j(AVOID)],
        ["ncov", "avoid", "--json", j(dict(AVOID, K=[["0011"]]))],
        ["nonsense"],
    ]


def write_pinned_files(directory: Path) -> None:
    for name, obj in (("sched.json", SCHED), ("sched_fail.json", SCHED_FAIL),
                      ("cover.json", COVER)):
        (directory / name).write_text(json.dumps(obj))


def test_eps_example(capsys):
    code, out = run(capsys, "eps", "--k", "3", "--kprime", "1")
    assert code == 0 and out == "1/4\n"


def python_m(argv, preexec_fn=None, **env):
    """`python -m clopenforce argv` in a child process given 60 s, extra env
    applied; `preexec_fn` runs in the child before the interpreter starts."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    return subprocess.run(
        [sys.executable, "-m", "clopenforce", *argv], capture_output=True, env=env,
        timeout=60, preexec_fn=preexec_fn,
    )


def test_python_dash_m_matches_dispatch(capsys):
    argv = ["eps", "--k", "3", "--kprime", "1"]
    code, out = run(capsys, *argv)
    proc = python_m(argv)
    assert (proc.returncode, proc.stdout) == (code, out.encode())


def test_pinned_entry_point_calls_replay_through_dispatch(capsys):
    # CI replays the same file through the installed `clopenforce` script
    path = Path(__file__).with_name("entry_point_calls.json")
    calls = json.loads(path.read_text(encoding="utf-8"))
    assert calls
    for index, call in enumerate(calls):
        assert run(capsys, *call["argv"]) == (call["exit"], call["stdout"]), (index, call["argv"])


def test_eps_min_k_and_binom(capsys):
    code, out = run(capsys, "eps", "--kprime", "1", "--bound", "1/16")
    assert code == 0 and out == "5\n"
    code, out = run(capsys, "eps", "--binom", "4", "2")
    assert code == 0 and out == "6\n"


def test_usage_errors(capsys):
    code, _ = run(capsys, "eps")
    assert code == 2
    assert dispatch(["nonsense"]) == 2
    code, out = run(capsys, "eps", "--k", "3", "--kprime", "9")
    assert code == 2 and out.startswith("usage-error")
    # malformed payloads: missing keys, a missing file, a non-element, zero
    # denominators, non-object maps, missing flags, short pairs, v = 0
    poset = {"elements": ["a", "top"], "leq": [], "top": "top",
             "height": {"a": 0, "top": 0}}
    product = {"first": dict(POSET, supp=["a"]), "second": POSET,
               "pairs": [["top", "a"]]}
    for argv in (
        ("soft", "star", "--json", "{}"),
        ("soft", "escape", "--json", json.dumps(poset)),
        ("soft", "cover", "--file", "/nonexistent/poset.json"),
        ("cover", "halve", "--json", "{}"),
        ("soft", "star", "--json", json.dumps(poset), "--antichain", "zz"),
        ("soft", "cover", "--json", json.dumps(poset), "--ps", "zz"),
        ("eps", "--kprime", "1", "--bound", "1/0"),
        ("cover", "schedule", "--eps", "1/0", "--m", "2"),
        ("cover", "schedule", "--eps", "one", "--m", "2"),
        ("diag", "zeta", "--json", json.dumps(dict(SCHED, delta="1/0"))),
        ("cover", "halve", "--json",
         json.dumps(dict(FAMILY, weights=[{"T": ["00"], "a": "1/0"}]))),
        ("soft", "height", "--json", json.dumps(dict(POSET, height=[]))),
        ("soft", "product", "--json", json.dumps(product)),
        ("pforce", "leq", "--c1", B),
        ("soft", "product", "--json", json.dumps(dict(product, pairs=[["top"]]))),
        ("diag", "verify", "--v", "0", "--json", json.dumps(CHAIN_D2)),
        ("pforce", "oracle-check", "-b", B, "-b", B, "--against", TOP),
        ("soft", "cover", "--json", json.dumps(POSET), "--ps", "a", "--strong"),
        # --samples draws its own pairs, so a given pair is not ignored
        ("pforce", "oracle-check", "--samples", "5", "-b", B, "--against", TOP,
         "--k", "2"),
        ("pforce", "oracle-check", "--samples", "5", "-b", B),
    ):
        code, out = run(capsys, *argv)
        assert code == 2 and out.startswith("usage-error:"), argv
    code, out = run(capsys, "pforce", "cover", "-b", B, "-b", B, "--against", TOP, "--k", "2")
    assert (code, out) == (2, "usage-error: --against only pairs with a single -b condition\n")
    # a height map is a JSON object, so its keys name only string elements;
    # the first element (or top) of another JSON type is named
    for elements, top, named in (([1, 2, "top"], "top", "1"), ([["a"], "top"], "top", '["a"]'),
                                 (["a", None, "top"], "top", "null"), (["a", "top"], 0, "0")):
        poset = {"elements": elements, "leq": [], "top": top,
                 "height": {"1": 0, "2": 0, "a": 0, "top": 0}}
        argv = ("soft", "star", "--json", json.dumps(poset), "--antichain", "1", "2", "--m", "0")
        assert run(capsys, *argv) == (
            2, f"usage-error: element {named} is not a JSON string\n"), elements


def test_poset_errors_do_not_depend_on_the_hash_seed():
    leq = {"elements": ["a", "b", "c", "d", "t"], "top": "t",
           "leq": [["a", "b"], ["b", "c"], ["c", "d"]]}
    cycle = {"elements": ["a", "b", "c", "t"], "top": "t",
             "leq": [["a", "b"], ["b", "c"], ["c", "b"], ["b", "a"]]}
    outputs = [
        [python_m(["soft", "height", "--json", json.dumps(poset)],
                  PYTHONHASHSEED=seed).stdout for poset in (leq, cycle)]
        for seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0] == [
        b"usage-error: transitivity violated at ('a', 'b', 'c')\n",
        b"usage-error: antisymmetry violated at ('a', 'b')\n",
    ]


def test_diag_validate_failing_schedule(tmp_path, capsys):
    sched = {"m": 1, "delta": "1/10", "z": [2], "y": [], "eps": "1/4000", "v": 3}
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(sched))
    code, out = run(capsys, "diag", "validate", "--file", str(path))
    assert code == 1
    assert "zeta0 601/2000 >= 1/4" in out


def test_diag_search_and_zeta(capsys):
    code, out = run(capsys, "diag", "search", "--m", "1")
    assert code == 0
    sched = json.loads(out)
    code, out = run(capsys, "diag", "validate", "--json", json.dumps(sched))
    assert code == 0
    code, out = run(capsys, "diag", "zeta", "--json", json.dumps(sched), "--l", "1")
    assert code == 0 and out == "0\n"


def test_diag_build_and_verify_round_trip(capsys):
    code, out = run(capsys, "diag", "build", "--m", "1", "--granularity", "2",
                    "--v", "3", "--depth", "2")
    assert code == 0
    code, verified = run(capsys, "diag", "verify", "--json", out, "--v", "3")
    assert code == 0 and json.loads(verified)["ok"] is True
    code, _ = run(capsys, "diag", "build", "--m", "1", "--granularity", "1", "--v", "2")
    assert code == 1  # granularity-too-coarse is a property failure


def test_ncov_budget_empty(capsys):
    code, out = run(capsys, "ncov", "budget", "--json", "[]")
    assert code == 0 and out == "0\n"


def test_ncov_budget_oversize(capsys):
    cover = [{"n": 0, "Z": []}, {"n": 2, "Z": ["00", "01", "10"]}]
    code, out = run(capsys, "ncov", "budget", "--json", json.dumps(cover))
    assert code == 1 and "OVERSIZE" in out


def test_ncov_tree_and_kn(capsys):
    code, out = run(capsys, "ncov", "tree", "--r", "0000", "--d", "0", "2", "4",
                    "--level", "4")
    assert code == 0 and json.loads(out) == ["0000", "0011", "1100", "1111"]
    code, out = run(capsys, "ncov", "kn", "--traps", "0110", "--lo", "0",
                    "--hi", "4", "--i", "2")
    assert code == 0 and json.loads(out) == ["0101", "0110", "1001", "1010"]


def test_ncov_sparse_and_measure(capsys):
    parts = [{"intervals": [[0, 2], [2, 4]], "J": [[], []]}]
    code, out = run(capsys, "ncov", "sparse", "--json", json.dumps(parts),
                    "--points", "0", "1", "2", "3")
    assert code == 0 and json.loads(out) == [0, 2]
    cover = [{"n": 0, "Z": []}, {"n": 2, "Z": ["00", "11"]}]
    code, out = run(capsys, "ncov", "measure", "--json", json.dumps(cover),
                    "--indices", "1")
    assert code == 0 and out == "1/2\n"


def measure_args(count: int, depth: int, bit: str = "0") -> list[str]:
    """`ncov measure` flags for the last `count` entries of a cover with
    one entry per level 0..depth, each the node `bit * n` of its level n."""
    cover = [{"n": n, "Z": [bit * n] if n else []} for n in range(depth + 1)]
    return ["--indices", *map(str, range(depth + 1 - count, depth + 1)),
            "--json", json.dumps(cover)]


def test_ncov_measure_answers_every_index_of_a_depth_24_cover(capsys):
    assert run(capsys, "ncov", "measure", *measure_args(12, 20)) == (0, "1/512\n")
    argv = ("ncov", "measure", "--indices", *map(str, range(22)),
            *measure_args(20, 20)[-2:])  # entries 0..20
    assert run(capsys, *argv) == (2, "usage-error: index set off the cover\n")
    # all 25 entries at depth 24, the nodes 1, 11, 111, ...: the union is
    # lifted through every level, to a mask of 2^24 bits
    start = time.perf_counter()
    proc = python_m(["ncov", "measure", *measure_args(25, 24, "1")])
    assert (proc.returncode, proc.stdout) == (0, b"1/2\n"), proc.stderr
    assert time.perf_counter() - start < 10


def test_trap_errors_do_not_depend_on_the_hash_seed():
    # trap and K sets keep payload order, so the first bad string of the
    # payload is named, under every hash seed
    bad = ["0", "1", "00", "11"]
    avoid = json.dumps(dict(AVOID, K=[bad]))
    sparse = json.dumps([{"intervals": [[0, 4]], "J": [bad]}])
    for argv in (["ncov", "avoid", "--json", avoid],
                 ["ncov", "sparse", "--points", "0", "--json", sparse]):
        for seed in range(1, 7):
            proc = python_m(argv, PYTHONHASHSEED=str(seed))
            assert (proc.returncode, proc.stdout) == (
                2, b"usage-error: trap '0' does not index [0, 4)\n"), (argv, seed)


def test_diag_verify_lifts_a_full_deep_piece_in_time():
    # a full level-17 piece lifted to depth 24 once regrew the mask per leaf
    # and took about a minute
    piece = {"sigma": [], "tau": []}
    chain = {"order": 1, "entries": [
        dict(piece, i=0, p={"depth": 17, "nodes": [""]}, q={"depth": 17, "nodes": [""]}),
        dict(piece, i=1, p={"depth": 24, "nodes": ["1"]}, q={"depth": 24, "nodes": ["1"]})]}
    start = time.perf_counter()
    proc = python_m(["diag", "verify", "--v", "1", "--json", json.dumps(chain)])
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stdout) == (1, b'{"entries":2,"families":1,"ok":false,'
        b'"violations":["sigma=[] tau=[] i=1: overlaps an earlier piece",'
        b'"sigma=[] tau=[]: mass 5/4 not below 1"]}\n'), proc.stderr


def test_ncov_avoid(capsys):
    instance = {
        "r": "0000",
        "d": [0, 2, 4],
        "depth": 4,
        "partition": {"intervals": [[0, 4]], "J": [["0011"]]},
        "K": [["0011", "1100", "0000", "1111"]],
        "points": [2],
    }
    code, out = run(capsys, "ncov", "avoid", "--json", json.dumps(instance))
    assert code == 0 and json.loads(out)["ok"] is True
    instance["K"] = [["0011"]]
    code, out = run(capsys, "ncov", "avoid", "--json", json.dumps(instance))
    assert code == 1 and json.loads(out)["ok"] is False


def test_pforce_verbs(capsys):
    b = "(d=2:{00,01}, n=1)"
    c = "(d=2:{10,11}, n=1)"
    code, out = run(capsys, "pforce", "compat", "--c1", b, "--c2", c)
    assert code == 0 and out == "false\n"
    code, out = run(capsys, "pforce", "leq", "--c1", b, "--c2", b)
    assert code == 0 and out == "true\n"
    code, out = run(capsys, "pforce", "cover", "-b", b, "--k", "2")
    assert code == 0
    members = json.loads(out)
    assert members
    code, out = run(capsys, "pforce", "oracle-check", "-b", b,
                    "--against", "(d=2:{00,01,10,11}, n=0)", "--k", "2")
    assert code == 0 and json.loads(out)["uncovered"] == []
    code, out = run(capsys, "pforce", "oracle-check", "--samples", "50",
                    "--seed", "7", "--depth", "4")
    assert code == 0 and json.loads(out)["disagreements"] == 0


def test_cover_verbs(capsys):
    fam = {
        "n": 2,
        "k": 2,
        "Z": ["00", "01", "10", "11"],
        "weights": [{"T": ["00", "01", "10", "11"], "a": "1"}],
    }
    code, out = run(capsys, "cover", "halve", "--json", json.dumps(fam),
                    "--kprime", "1")
    assert code == 0 and json.loads(out)["Z"] == ["00"]
    code, out = run(capsys, "cover", "schedule", "--eps", "1/2", "--m", "2")
    assert code == 0 and json.loads(out) == [1, 3, 9]
    goodness = {"level": 2, "Z": ["00", "01", "10", "11"], "T": ["00", "01"]}
    code, out = run(capsys, "cover", "goodness", "--json", json.dumps(goodness),
                    "--kprime", "1")
    assert code == 0 and out == "1/2\n"


def test_soft_verbs(capsys):
    poset = {
        "elements": ["a", "b", "top"],
        "leq": [],
        "top": "top",
        "height": {"a": 0, "b": 0, "top": 0},
    }
    code, out = run(capsys, "soft", "height", "--json", json.dumps(poset))
    assert code == 0 and out == "true\n"
    code, out = run(capsys, "soft", "cover", "--json", json.dumps(poset),
                    "--ps", "a", "--m", "1")
    assert code == 0 and json.loads(out) == ["b"]
    code, out = run(capsys, "soft", "star", "--json", json.dumps(poset),
                    "--antichain", "a", "b", "--m", "0")
    assert code == 0 and out == "2\n"
    escape = dict(poset, coords=[{"antichain": ["a", "b"], "values": [5, 3]}])
    code, out = run(capsys, "soft", "escape", "--json", json.dumps(escape))
    assert code == 0 and json.loads(out) == {"f": [5], "ok": True, "prefix": [2]}
    product = {
        "first": dict(poset, supp={"a": 0, "b": 0, "top": 0}),
        "second": poset,
        "pairs": [["top", "a"]],
    }
    code, out = run(capsys, "soft", "product", "--json", json.dumps(product),
                    "--m", "1")
    assert code == 0 and json.loads(out)["verified"] is True


def onto_maps(k: int, j: int) -> int:
    """Maps of k leaf draws onto j leaves: j! S(k, j), S a Stirling number
    of the second kind."""
    return sum((-1) ** i * math.comb(j, i) * (j - i) ** k for i in range(j + 1))


def test_sampled_conditions_follow_the_stated_law():
    # P(n, mask) is proportional to the sum over leaf counts K = 1..6 of
    # j! S(K, j) / 2^(depth K), j = |mask|, for dense (mask, n) and 0 else;
    # the chi-square of 40,000 draws against it stays below dof + 6 sd
    for depth in (2, 3):
        leaves = 1 << depth
        law = {}
        for mask in range(1, 1 << leaves):
            j = mask.bit_count()
            weight = sum(onto_maps(k, j) / leaves**k for k in range(j, 7))
            for n in range(depth + 1):
                if weight and cantor.dense_mask(mask, depth, n):
                    law[n, mask] = weight
        total = sum(law.values())
        draws = 40_000
        seen = collections.Counter(
            (c.n, c.B.mask) for c in itertools.islice(
                cli._drawn_conditions(random.Random(depth), depth), draws))
        assert set(seen) <= set(law)
        chi2 = sum((seen[cell] - draws * w / total) ** 2 / (draws * w / total)
                   for cell, w in law.items())
        dof = len(law) - 1
        assert chi2 < dof + 6 * math.sqrt(2 * dof), (depth, chi2, dof)


def test_sampled_conditions_are_dense_and_in_range():
    for depth in range(cli.MAX_SAMPLE_DEPTH + 1):
        draws = cli._drawn_conditions(random.Random(29), depth)
        for c in itertools.islice(draws, 2000):
            assert type(c) is perfectposet.PCondition and c.depth == depth
            assert 0 <= c.n <= depth and 1 <= c.B.mask.bit_count() <= 6
            assert c.B.mask < 1 << (1 << depth)
            assert cantor.dense_mask(c.B.mask, depth, c.n)


def test_sampled_audit_fails_on_a_wrong_closed_form(capsys, monkeypatch):
    # the closed form without its joint-mass clause: traces at the coarser
    # level agree
    def traces_agree(c1, c2):
        level = min(c1.n, c2.n)
        return (cantor.levelset_mask(c1.B.mask, c1.depth, level)
                == cantor.levelset_mask(c2.B.mask, c2.depth, level))

    monkeypatch.setattr(perfectposet, "p_compatible", traces_agree)
    code, out = run(capsys, "pforce", "oracle-check", "--samples", "300", "--depth", "3")
    report = json.loads(out)
    assert code == 1 and report["samples"] == 300 and report["disagreements"] > 0


def test_determinism_byte_identical(capsys):
    argv = ["diag", "search", "--m", "2"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second
    argv = ["pforce", "oracle-check", "--samples", "25", "--seed", "3",
            "--depth", "3"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_verb_table_reaches_each_operation_once():
    ops = [op for verbs in VERB_TABLE.values() for op in verbs]
    assert len(ops) == len(set(ops)), "an operation is reachable from two verbs"
    # every published verb path is dispatchable: verb plus action split
    for path in VERB_TABLE:
        parts = path.split()
        assert parts[0] in ("eps", "cover", "pforce", "soft", "diag", "ncov")
        if len(parts) == 2:
            assert parts[1]
    # and every operation named in the table exists
    import importlib

    for op in ops:
        module, func = op.split(".")
        assert hasattr(
            importlib.import_module(f"clopenforce.{module}"), func
        ), op


def test_cli_bytes_pinned(tmp_path, monkeypatch, capsys):
    # sha256 over (argv, exit code, stdout) of `pinned_calls` and over
    # VERB_TABLE.  Each row keeps the bytes of the hand-written dispatch the
    # verb registry replaced, except those that now exit 2: a flag before
    # the verb, --format auto, a count above its ceiling, oracle-check with
    # several -b, soft cover --strong without --qs
    write_pinned_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    rows = [[argv, *run(capsys, *argv)] for argv in pinned_calls()]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "79b0e9c3ca7b466e2a176398a4c8079a1f5e92e162f2f84c510e9f8a6bbcce37"
    table = json.dumps(list(VERB_TABLE.items())).encode()
    assert hashlib.sha256(table).hexdigest() == (
        "efa8c0e259914941b7995356dd1219e31bfbc8c55d591705758a5bd70738bfb7"
    )


def _subparsers(parser: argparse.ArgumentParser) -> dict | None:
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), None)


def path_parsers() -> dict[str, argparse.ArgumentParser]:
    """Verb path -> its parser, walked from the CLI parser."""
    paths = {}
    for verb, sub in _subparsers(cli._parser()).items():
        actions = _subparsers(sub)
        if actions is None:
            paths[verb] = sub
        else:
            paths.update((f"{verb} {action}", p) for action, p in actions.items())
    return paths


def test_parser_accepts_exactly_the_registry_paths():
    parser = cli._parser()
    assert list(path_parsers()) == list(cli._HANDLERS) == list(VERB_TABLE)
    assert [a.dest for a in parser._actions] == ["help", "verb"]  # no root flags
    assert cli._parser() is parser  # built once per process


def test_each_path_accepts_exactly_the_flags_its_handler_reads(
        tmp_path, monkeypatch, capsys):
    # every pinned call that parses runs through its handler on a namespace
    # that records the attributes read; summed over a path's pinned calls,
    # the flags read are the flags that path's parser accepts
    write_pinned_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    seen = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            seen.add(name)
            return super().__getattribute__(name)

    parsers = path_parsers()
    read = {path: set() for path in parsers}
    for argv in pinned_calls():
        try:
            args = cli._parser().parse_args(argv)
        except (SystemExit, cli._OutOfRange):
            continue
        path = f"{args.verb} {getattr(args, 'action', '')}".rstrip()
        seen.clear()
        try:
            cli._HANDLERS[path](Recording(**vars(args)))
        except (ConstructionError, ValueError, KeyError, TypeError, OSError):
            pass
        read[path] |= seen - {"verb", "action"}
    capsys.readouterr()
    for path, parser in parsers.items():
        assert read[path] == {a.dest for a in parser._actions} - {"help"}, path


HUGE = 2**64
# the last value is a list too long to walk: 2^64 blame sets as soft
# product pairs
BAD_JSON = (None, True, 1.5, "x", "", "1/0", "one", "0a", "2", [], {}, [[]], ["0a"],
            {"a": 1}, -1, -3, HUGE, [["top", "top"]] * 64)
BAD_FLAGS = ("-1", "0", "x", "", "1/0", "one", "0a", str(HUGE), "(d=2:{0a}, n=1)",
             "(d=2:{}, n=0)", "(d=9, n=1)", "(d=2:{00}, n=5)", "d=2:{00}")


def _slots(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _slots(value, path + (key,))


def _malformed(rng, argv):
    """argv with one bad JSON value, a dropped JSON key, a missing --file, a
    bad flag value or a dropped flag."""
    argv = list(argv)
    if "--json" in argv and rng.random() < 0.6:
        at = argv.index("--json") + 1
        obj = json.loads(argv[at])
        path = rng.choice(list(_slots(obj)))
        if not path:
            return argv[:at] + [json.dumps(rng.choice(BAD_JSON))] + argv[at + 1:]
        holder = obj
        for key in path[:-1]:
            holder = holder[key]
        if isinstance(holder, dict) and rng.random() < 0.3:
            del holder[path[-1]]
        else:
            holder[path[-1]] = rng.choice(BAD_JSON)
        argv[at] = json.dumps(obj)
        return argv
    if "--json" in argv and rng.random() < 0.2:
        at = argv.index("--json")
        return argv[:at] + ["--file", "/nonexistent/payload.json"] + argv[at + 2:]
    at = rng.choice([i for i, a in enumerate(argv[:-1]) if a.startswith("-")])
    if rng.random() < 0.2:
        return argv[:at] + argv[at + 2:]
    argv[at + 1] = rng.choice(BAD_FLAGS)
    return argv


def test_deep_one_leaf_calls_run_in_little_memory():
    # one-leaf conditions at depth 18..24 under a 1 GiB address-space cap: no
    # kernel step may build a table over the 2^level cylinders of a level,
    # and a cover whose subset table cannot be built is a usage error
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    calls = [(["pforce", "cover", "-b", "(d=5:{00000}, n=5)", "--k", "0"], 2,
              "usage-error: 32 level-5 nodes: subset tables stop at 16\n"),
             # b is projected only at the levels the cover reads, and the
             # level-22 table is refused before its 2^21 nodes are listed
             (["pforce", "cover", "-b", "(d=22:{0}, n=22)", "--against",
               "(d=22:{0}, n=0)", "--k", "0"], 2,
              "usage-error: 2097152 level-22 nodes: subset tables stop at 16\n")]
    for depth in (18, 20, 24):
        low, high = "0" * depth, "1" * depth
        one = f"(d={depth}:{{{high}}}, n={depth})"
        up = f"(d={depth}:{{{high}}}, n={depth - 1})"
        calls += [
            (["pforce", "compat", "--c1", one, "--c2", up], 0, "true\n"),
            (["pforce", "compat", "--c1", one, "--c2",
              f"(d={depth}:{{{low}}}, n={depth - 1})"], 0, "false\n"),
            (["pforce", "leq", "--c1", one, "--c2", up], 0, "true\n"),
            (["pforce", "oracle-check", "-b", one, "--against", up, "--k",
              str(depth)], 0, '{"bad_members":[],"checked":0,"compat_agrees":true,'
             '"members":0,"uncovered":[]}\n'),
        ]
    for argv, code, out in calls:
        proc = python_m(argv, preexec_fn=cap)
        assert (proc.returncode, proc.stdout.decode()) == (code, out), (
            argv, proc.stderr)


def test_deep_half_tree_compat_runs_in_time():
    # 2^20 committed level-21 nodes: the node walk once took a pass over the
    # whole 2^22-bit mask per node and did not end in 30 s
    proc = python_m(["pforce", "compat", "--c1", "(d=22:{0}, n=21)",
                     "--c2", "(d=22:{0}, n=21)"])
    assert (proc.returncode, proc.stdout) == (0, b"true\n"), proc.stderr


def test_oracle_check_rejects_an_oversized_c_before_compat_oracle(capsys, monkeypatch):
    # the compatibility oracle would walk the 2^24 submasks of b & c first
    def refuse(*args):
        raise AssertionError("compat_oracle ran before the size checks")

    monkeypatch.setattr(perfectposet, "compat_oracle", refuse)
    code, out = run(capsys, "pforce", "oracle-check", "-b", leaves(5, 24, 5),
                    "--against", leaves(5, 25, 5), "--k", "5")
    assert (code, out) == (2, "usage-error: 25 level-5 nodes: subset tables stop at 16\n")


def test_malformed_input_never_escapes(tmp_path, monkeypatch):
    # every verb path, a fixed seed, bad inputs derived from the pinned calls
    # of that path: each exits 0, 1 or 2 and none raises
    write_pinned_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    calls = pinned_calls()
    for path in VERB_TABLE:
        words = path.split()
        bases = [argv for argv in calls if argv[:len(words)] == words
                 and len(argv) > len(words)]
        rng = random.Random(path)
        for _ in range(100):
            argv = _malformed(rng, rng.choice(bases))
            assert dispatch(argv) in (0, 1, 2), argv


def leaves(depth: int, count: int, n: int = 0) -> str:
    """The condition on the first `count` leaves at `depth`, committed at n."""
    nodes = ",".join(format(i, f"0{depth}b") for i in range(count))
    return f"(d={depth}:{{{nodes}}}, n={n})"


def product_pairs(count: int) -> str:
    """A `soft product` payload with `count` pairs over two antichains."""
    names = ["a", "b", "top"]
    pairs = [[names[i % 3], names[i // 3 % 3]] for i in range(count)]
    return json.dumps({"first": dict(POSET, supp={"a": 0, "b": 0, "top": 0}),
                       "second": POSET, "pairs": pairs})


def test_soft_product_searches_share_one_bound():
    # a 21-element antichain and one pair at the pair ceiling: the blame
    # sets that hold the pair share one search, refused at the subset bound
    names = [f"a{i:02d}" for i in range(21)]
    first = {"elements": [*names, "top"], "leq": [], "top": "top",
             "height": dict.fromkeys([*names, "top"], 0)}
    payload = json.dumps({"first": first, "second": POSET,
                          "pairs": [["a20", "a"]] * cli.MAX_PAIRS})
    start = time.perf_counter()
    proc = python_m(["soft", "product", "--json", payload])
    assert (proc.returncode, proc.stdout) == (
        2, b"usage-error: 20 candidates: covers of size 18 would take find_cover "
           b"past 1048576 subsets\n"), proc.stderr
    assert time.perf_counter() - start < 10


def antichain_cover_args(count: int) -> list[str]:
    """`soft cover` over an antichain below a top whose smallest cover of
    the last element's incompatibles is all `count` of them."""
    names = [f"a{i:02d}" for i in range(count + 1)]
    poset = {"elements": [*names, "top"], "leq": [], "top": "top",
             "height": dict.fromkeys([*names, "top"], 0)}
    return ["soft", "cover", "--json", json.dumps(poset), "--ps", names[-1], "--m", "0"]


def block_tree_args(blocks: int) -> list[str]:
    """`ncov tree` flags for a tree of `blocks` one-bit blocks."""
    return ["--r", "0" * blocks, "--d", *map(str, range(blocks + 1)),
            "--level", str(blocks)]


def block_tree_instance(blocks: int) -> str:
    """An `ncov avoid` payload over a tree of `blocks` one-bit blocks, each
    its own trap-free interval."""
    units = [[i, i + 1] for i in range(blocks)]
    return json.dumps({"r": "0" * blocks, "d": list(range(blocks + 1)),
                       "depth": blocks, "points": list(range(blocks)),
                       "K": [[]] * blocks,
                       "partition": {"intervals": units, "J": [[]] * blocks}})


def halving_family(nodes: int, sets: int) -> str:
    """A `cover halve|shrink` payload at level 5: Z the first `nodes` nodes,
    k = 2 and `sets` unit masses, each on Z plus its own choice of the nodes
    outside Z.  At k' = 1 the first node alone keeps half the mass."""
    width = 32
    z = [format(i, "05b") for i in range(nodes)]
    weights = [{"T": z + [format(nodes + j, "05b") for j in range(width - nodes) if i >> j & 1],
                "a": "1"} for i in range(sets)]
    return json.dumps({"n": 5, "k": 2, "Z": z, "weights": weights})


def test_oversized_depths_exit_2(capsys):
    # a depth or level above cantor.MAX_DEPTH, a count above its ceiling, an
    # eps below its floor, a subset table over MAX_TABLE_NODES nodes, a
    # block tree over MAX_TREE_BLOCKS blocks, a weight family over
    # MAX_HIT_NODES or MAX_WEIGHTED_SETS or a cover search past
    # soft.MAX_COVER_SUBSETS is a usage error, raised before any mask of
    # 2^depth bits or any table is built, any round run, any branch walked
    # or any subset of Z (or the rest of the candidates) tried
    huge = str(HUGE)
    for argv in (
        ("eps", "--k", str(cli.MAX_K + 1), "--kprime", "1"),
        ("eps", "--kprime", str(cli.MAX_KPRIME + 1), "--bound", "1/16"),
        ("eps", "--k", huge, "--kprime", huge),
        ("cover", "schedule", "--eps", "1/2", "--m", str(cli.MAX_ROUNDS + 1)),
        ("cover", "shrink", "--eps", "1/2", "--m", huge, "--json", json.dumps(FAMILY)),
        ("pforce", "oracle-check", "--samples", str(cli.MAX_SAMPLES + 1)),
        ("pforce", "oracle-check", "--samples", "-5"),
        ("pforce", "oracle-check", "--samples", "4", "--depth", "40"),
        ("pforce", "oracle-check", "--samples", "4", "--depth", huge),
        ("diag", "build", "--m", "1", "--granularity", "2", "--v", "3", "--depth", "40"),
        ("diag", "build", "--m", "1", "--granularity", huge, "--v", "3", "--depth", huge),
        ("ncov", "budget", "--json", json.dumps([{"n": HUGE, "Z": []}])),
        ("pforce", "leq", "--c1", "(d=40:{0}, n=0)", "--c2", B),
        ("pforce", "oracle-check", "--samples", "4",
         "--depth", str(cli.MAX_SAMPLE_DEPTH + 1)),
        ("eps", "--binom", str(cli.MAX_BINOM + 1), "2"),
        ("eps", "--binom", "4", str(cli.MAX_BINOM + 1)),
        ("eps", "--kprime", "1", "--bound", f"1/{cli.MIN_EPS.denominator + 1}"),
        ("cover", "schedule", "--eps", f"1/{cli.MIN_EPS.denominator + 1}", "--m", "1"),
        ("cover", "shrink", "--eps", f"1/{cli.MIN_EPS.denominator + 1}", "--m", "1",
         "--json", json.dumps(FAMILY)),
        ("pforce", "cover", "-b", "(d=5:{00000}, n=5)", "--against",
         leaves(5, MAX_TABLE_NODES + 1), "--k", "0"),
        # main_cover's tables stay at one level-0 node; the oracle's would
        # span c's leaves
        ("pforce", "oracle-check", "-b", leaves(5, MAX_TABLE_NODES), "--against",
         leaves(5, MAX_TABLE_NODES + 1), "--k", "0"),
        ("soft", "product", "--json", product_pairs(cli.MAX_PAIRS + 1)),
        ("ncov", "tree", *block_tree_args(cli.MAX_TREE_BLOCKS + 1)),
        ("ncov", "avoid", "--json", block_tree_instance(cli.MAX_TREE_BLOCKS + 1)),
        ("diag", "build", "--m", "1", "--granularity", "2", "--v", "3",
         "--depth", str(cli.MAX_BUILD_DEPTH + 1)),
        # chains listing 196,608, 7,929,856 and 3,735,552 leaves
        ("diag", "build", "--m", "3", "--granularity", "1", "--v", "1", "--depth", "15"),
        ("diag", "build", "--m", "5", "--granularity", "2", "--v", "3", "--depth", "15"),
        ("diag", "build", "--m", "3", "--granularity", "3", "--v", "3", "--depth", "15"),
        # a halving walks the subsets of Z up to half its size
        ("cover", "halve", "--json", halving_family(coverlemmas.MAX_HIT_NODES + 1, 1)),
        ("cover", "halve", "--json",
         halving_family(coverlemmas.MAX_HIT_NODES, coverlemmas.MAX_WEIGHTED_SETS + 1)),
        ("cover", "shrink", "--eps", "1/2", "--m", "1", "--json",
         halving_family(32, 1)),
        # sizes 0..8 take 600,370 subsets, size 9 would pass 2^20
        antichain_cover_args(22),
    ):
        code, out = run(capsys, *argv)
        assert code == 2 and out.startswith("usage-error:"), argv
    # each count is accepted at its ceiling
    for path, flag, ceiling in (
        ("eps", "--k", cli.MAX_K),
        ("eps", "--kprime", cli.MAX_KPRIME),
        ("cover schedule", "--m", cli.MAX_ROUNDS),
        ("cover shrink", "--m", cli.MAX_ROUNDS),
        ("pforce oracle-check", "--samples", cli.MAX_SAMPLES),
        ("pforce oracle-check", "--depth", cli.MAX_SAMPLE_DEPTH),
        ("diag build", "--depth", cli.MAX_BUILD_DEPTH),
    ):
        args = cli._parser().parse_args([*path.split(), flag, str(ceiling)])
        assert getattr(args, flag[2:]) == ceiling
    # and each call at its ceiling or floor runs
    for argv, want in (
        (("eps", "--binom", str(cli.MAX_BINOM), "1"), f"{cli.MAX_BINOM}\n"),
        (("eps", "--kprime", "1", "--bound", str(cli.MIN_EPS)), "21\n"),
        (("cover", "schedule", "--eps", str(cli.MIN_EPS), "--m", "1"), "[1,21]\n"),
        (("pforce", "oracle-check", "--samples", "5", "--depth",
          str(cli.MAX_SAMPLE_DEPTH)), '{"disagreements":0,"samples":5}\n'),
        (("pforce", "cover", "-b", "(d=5:{00000}, n=5)", "--against",
          leaves(5, MAX_TABLE_NODES), "--k", "0"), "[]\n"),
        (("pforce", "oracle-check", "-b", leaves(5, MAX_TABLE_NODES), "--against",
          leaves(5, MAX_TABLE_NODES), "--k", "0"),
         '{"bad_members":[],"checked":0,"compat_agrees":true,"members":0,'
         '"uncovered":[]}\n'),
        (("soft", "product", "--m", "1", "--json", product_pairs(cli.MAX_PAIRS)),
         '{"cover":[],"verified":true}\n'),
        (("cover", "halve", "--json",
          halving_family(coverlemmas.MAX_HIT_NODES, coverlemmas.MAX_WEIGHTED_SETS)),
         '{"Z":["00000"],"level":5}\n'),
        (("ncov", "avoid", "--json", block_tree_instance(cli.MAX_TREE_BLOCKS)),
         f'{{"branches":{1 << cli.MAX_TREE_BLOCKS},"counterexamples":[],'
         '"misaligned":[],"ok":true,"trap_hits":0}\n'),
    ):
        assert run(capsys, *argv) == (0, want), argv
    # a chain listing exactly MAX_CHAIN_LEAVES leaves is built
    code, out = run(capsys, "diag", "build", "--m", "2", "--granularity", "1", "--v", "1",
                    "--depth", str(cli.MAX_BUILD_DEPTH))
    entries = json.loads(out)["entries"]
    assert code == 0 and len(entries) == 6
    assert sum(len(e[x]["nodes"]) for e in entries for x in "pq") == cli.MAX_CHAIN_LEAVES
    # a huge granularity within a small depth is the depth check's failure
    argv = ("diag", "build", "--m", "1", "--granularity", huge, "--v", "3", "--depth", "2")
    code, out = run(capsys, *argv)
    assert code == 1 and out.startswith("depth-exhausted:")
