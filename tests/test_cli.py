import json
import os
import subprocess
import sys
from pathlib import Path

from clopenforce.cli import VERB_TABLE, dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    return code, capsys.readouterr().out


def test_eps_example(capsys):
    code, out = run(capsys, "eps", "--k", "3", "--kprime", "1")
    assert code == 0 and out == "1/4\n"


def test_python_dash_m_matches_dispatch(capsys):
    argv = ["eps", "--k", "3", "--kprime", "1"]
    code, out = run(capsys, *argv)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "clopenforce", *argv], capture_output=True, env=env
    )
    assert (proc.returncode, proc.stdout) == (code, out.encode())


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
    # malformed payloads: missing keys, a missing file, a non-element
    poset = {"elements": ["a", "top"], "leq": [], "top": "top",
             "height": {"a": 0, "top": 0}}
    for argv in (
        ("soft", "star", "--json", "{}"),
        ("soft", "escape", "--json", json.dumps(poset)),
        ("soft", "cover", "--file", "/nonexistent/poset.json"),
        ("cover", "halve", "--json", "{}"),
        ("soft", "star", "--json", json.dumps(poset), "--antichain", "zz"),
        ("soft", "cover", "--json", json.dumps(poset), "--ps", "zz"),
    ):
        code, out = run(capsys, *argv)
        assert code == 2 and out.startswith("usage-error:"), argv


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
