"""Self-test of the benchmark at tiny sizes: verdict counts, exact per-layer
counts across traced runs, traced == untraced verdicts, that planted
wrong answers are caught, and the host-speed scaling.  Run from the
repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from clopenforce import perfectposet  # noqa: E402
from speed import Meter  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PER_KIND = 3
COMPAT_SIDE = 12
# items per tiny pass: kinds in the pass times PER_KIND, plus the compat phase
EXPECTED_ATTEMPTS = {
    "audit_d3": COMPAT_SIDE**2 + PER_KIND,
    "audit_d4": PER_KIND,
    "desk_soft": 2 * PER_KIND + min(PER_KIND, workloads.DeskSoft.escapes),
    "lemmas_cli": 10 * PER_KIND,
}


def shrink(workload, per_kind: int = PER_KIND) -> None:
    """Keep the first `per_kind` items of each kind and a corner of the
    first compat block, so one pass takes well under a second."""
    full = workload.pass_items

    def items(seed, k):
        kept, seen = [], Counter()
        for kind, payload in full(seed, k):
            if kind == "compat":
                payload = (payload[0][:COMPAT_SIDE], payload[1][:COMPAT_SIDE])
            if seen[kind] < (1 if kind == "compat" else per_kind):
                kept.append((kind, payload))
                seen[kind] += 1
        return kept

    workload.pass_items = items


def tiny(name: str, tracer=None, per_kind: int = PER_KIND):
    workload, _, _ = run.timed_setup(name, tracer)
    shrink(workload, per_kind)
    workload.prepare(7)
    return workload


@pytest.fixture(autouse=True)
def results_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    monkeypatch.setattr(workloads, "COLD_CALLS", 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_counts_and_trace_agreement(name):
    workload = tiny(name)
    plan = workload.pass_items(7, 0)
    _, verdicts, _ = run.run_pass(workload, plan)
    assert run.check_pass(workload, plan, verdicts) == (EXPECTED_ATTEMPTS[name], 0)

    counts = []
    for _ in range(2):
        tracer = Tracer()
        values, detail, attempted, failed = run.measure_traced(tiny(name, tracer), 7, tracer)
        assert (attempted, failed) == (EXPECTED_ATTEMPTS[name] + 1, 0)
        assert detail["traced_matches_untraced"]
        assert detail["pass0_verdicts_sha256"] == run.digest(verdicts)
        counts.append({k: v for k, v in values.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]


def test_trace_counts_reach_named_layers():
    workload = tiny("audit_d3")
    values, _, _, _ = run.measure_traced(workload, 7, Tracer())
    assert values["cantor.levelset_mask.calls"] > 0
    assert values["perfectposet.main_cover.calls"] == PER_KIND
    assert values["perfectposet.cover_oracle.checked"] > 0
    # each submask is checked at most once per height 0..3
    assert 0 < values["perfectposet.cover_oracle.checked_per_submask"] <= 4
    workload = tiny("lemmas_cli")
    values, _, _, _ = run.measure_traced(workload, 7, Tracer())
    assert values["cli.dispatch.calls"] == PER_KIND
    assert values["coverlemmas.halve_once.tries_per_call"] >= 1


def test_planted_dropped_member_counts_as_failure(monkeypatch):
    original = perfectposet.main_cover

    def drop_first(b, c, k):
        return original(b, c, k)[1:]

    workload = tiny("audit_d3", per_kind=40)
    monkeypatch.setattr(perfectposet, "main_cover", drop_first)
    _, _, attempted, failed = run.measure(workload, 7, 0)
    assert attempted == COMPAT_SIDE**2 + 40 + 1  # compat checks, audits, one cold call
    assert failed >= 1


def test_meter_scales_by_nearby_samples():
    meter = Meter(lambda: None, 2.0, 0.5, 3, warm=False)
    meter.stamps = [0.0, 0.1, 0.2, 10.0, 10.1, 10.2]
    meter.samples = [1.0, 1.0, 1.0, 4.0, 4.0, 4.0]
    assert meter.factor(0.05, 0.15) == 2.0
    assert meter.factor(10.05, 10.15) == 0.5
    # no sample within the window: the three nearest to the middle
    assert meter.factor(5.0, 5.0) == 0.5


def test_golden_byte_difference_fails():
    workload = tiny("lemmas_cli")
    entry = dict(workload.golden[0])
    verdict = workload.run("cli", entry)
    assert workload.check("cli", entry, verdict) == (1, 0)
    entry["stdout"] += " "
    assert workload.check("cli", entry, verdict) == (1, 1)
    entry = dict(workload.golden[0], exit=1)
    assert workload.check("cli", entry, verdict) == (1, 1)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_result_line(trace):
    cmd = SPEC["command"] + ["--workload", "lemmas_cli", "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(
        [sys.executable if c == "python3" else c for c in cmd],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in wanted
    }


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = SPEC["command"] + ["--workload", "audit_d3", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable if c == "python3" else c for c in cmd],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
