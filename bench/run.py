"""Run one benchmark workload and print its result as the last stdout line.

    python3 bench/run.py --workload audit_d3 --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout: it imports clopenforce from `src/` and
exits with status 2, printing no result, when that is missing.  With
`--trace 0` it reports the end-to-end metrics of BENCHMARK.json, with
`--trace 1` the per-layer ones.  A JSON record with the environment and the
details behind each figure is printed on the line before the result and
written under `bench/results/`; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from math import ceil
from pathlib import Path
from time import perf_counter

from speed import Meter
from tracer import AFTER, LEAVES, SPANS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_SAMPLES = 5  # this process plus fresh interpreters; setup_s is their median
BRACKET = 5  # reference samples before and after each set-up
COLD = "from clopenforce.cli import main; main()"


class Raised:
    """Verdict of an item whose library call raised."""

    def __init__(self, exc: BaseException) -> None:
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"Raised({self.text!r})"


def timed_setup(name: str, tracer=None):
    """Cold import of the library, then the workload's library-side set-up
    and warm-up.  Returns the workload, the import time and the whole time."""
    t0 = perf_counter()
    importlib.import_module("clopenforce.cli")
    t1 = perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name]()
    if tracer is None:
        workload.setup()
    else:
        tracer.install()
        tracer.call("setup", workload.setup)
        tracer.uninstall()
    return workload, t1 - t0, perf_counter() - t0


def scaled_setup(name: str, tracer=None):
    """`timed_setup` with reference samples before and after it; returns the
    workload, the import time, the set-up time and the set-up time scaled."""
    meter = Meter.loop()
    meter.sample(BRACKET)
    t0 = perf_counter()
    workload, import_s, setup_s = timed_setup(name, tracer)
    t1 = perf_counter()
    meter.sample(BRACKET)
    return workload, import_s, setup_s, setup_s * meter.factor(t0, t1)


def setup_probe(name: str) -> tuple[float, float, float]:
    """The same set-up in a fresh interpreter, so nothing is warm."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe", name],
        cwd=ROOT, capture_output=True, timeout=170, check=True,
    )
    sample = json.loads(proc.stdout.decode().splitlines()[-1])
    return sample["import_s"], sample["setup_s"], sample["scaled_s"]


def run_pass(workload, plan, tracer=None, meter=None):
    """Run one pass closed-loop; returns (seconds, verdicts, intervals).

    The seconds are the sum of the item times, so the reference samples the
    meter takes between items are not in them; the intervals are the start
    and end times and whether it is an item, per plan entry, kept in flat
    arrays so that their memory does not move `peak_rss_mb`."""
    gc.collect()
    run, phases = workload.run, workload.phases
    verdicts, starts, ends, items = [], array("d"), array("d"), bytearray()
    took = 0.0
    for kind, payload in plan:
        t0 = perf_counter()
        try:
            if tracer is None:
                verdict = run(kind, payload)
            else:
                verdict = tracer.call("item." + kind, run, kind, payload)
        except Exception as exc:  # counted as a failed check, never hidden
            verdict = Raised(exc)
        t1 = perf_counter()
        took += t1 - t0
        starts.append(t0)
        ends.append(t1)
        items.append(kind not in phases)
        verdicts.append(verdict)
        if meter is not None:
            meter.tick()
    return took, verdicts, (starts, ends, items)


def check_pass(workload, plan, verdicts) -> tuple[int, int]:
    attempted = failed = 0
    for (kind, payload), verdict in zip(plan, verdicts):
        if isinstance(verdict, Raised):
            made, bad = 1, 1
        else:
            try:
                made, bad = workload.check(kind, payload, verdict)
            except Exception:
                made, bad = 1, 1
        attempted += made
        failed += bad
    return attempted, failed


def digest(verdicts) -> str:
    return hashlib.sha256(repr(verdicts).encode()).hexdigest()


def cold_cli(calls, starts) -> tuple[list[tuple[float, float]], int]:
    """Cold CLI processes one at a time, each after a bare interpreter start
    for reference; returns their (start, end) times and the failures."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    intervals, failed = [], 0
    for argv, checker in calls:
        starts.sample()
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", COLD, *argv], cwd=ROOT, env=env, capture_output=True, timeout=120
        )
        intervals.append((t0, perf_counter()))
        try:
            ok = checker(proc.returncode, proc.stdout)
        except Exception:
            ok = False
        failed += not ok
    return intervals, failed


def percentile(values, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def figures(passes, colds, tail_pct: float, scale, cold_scale) -> dict:
    """The time metrics from the pass and cold-call intervals, each interval
    weighted by `scale(start, end)` or `cold_scale(start, end)`."""
    pass_s, latencies = [], []
    for intervals in passes:
        total = 0.0
        for t0, t1, item in zip(*intervals):
            took = (t1 - t0) * scale(t0, t1)
            total += took
            if item:
                latencies.append(took)
        pass_s.append(total)
    return {
        "verdict_s": statistics.median(pass_s),
        "items_per_s": len(latencies) / sum(pass_s),
        "item_ms_p50": statistics.median(latencies) * 1000,
        "item_ms_tail": percentile(latencies, tail_pct)[0] * 1000,
        "cli_cold_ms_p50": statistics.median((t1 - t0) * cold_scale(t0, t1) for t0, t1 in colds) * 1000,
        "pass_s": pass_s,
        "items": len(latencies),
        "tail_samples_beyond": percentile(latencies, tail_pct)[1],
    }


def measure(workload, seed: int, seconds: float) -> tuple[dict, dict, int, int]:
    """Untraced passes until `seconds` of pass time; pass k gets fresh inputs.

    The cold CLI calls run between passes, spread over the run in proportion
    to the pass time spent, so their median samples the whole run rather
    than the few seconds after it.  Every time is scaled to the nominal host
    speed by the reference samples taken around it (see `speed.py`); the
    raw figures are in the detail."""
    meter = Meter.loop()
    starts = Meter.start()
    passes, durations = [], []
    attempted = failed = 0
    first = None
    calls = workload.cold_calls(seed)
    colds, cold_failed = [], 0
    meter.sample(BRACKET)
    while not durations or sum(durations) < seconds:
        due = min(len(calls), int(len(calls) * sum(durations) / seconds)) if seconds > 0 else 0
        more, bad = cold_cli(calls[len(colds) : due], starts)
        colds, cold_failed = colds + more, cold_failed + bad
        plan = workload.pass_items(seed, len(durations))
        took, verdicts, intervals = run_pass(workload, plan, meter=meter)
        made, bad = check_pass(workload, plan, verdicts)
        attempted, failed = attempted + made, failed + bad
        durations.append(took)
        passes.append(intervals)
        first = first or digest(verdicts)
    meter.sample(BRACKET)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    more, bad = cold_cli(calls[len(colds) :], starts)
    colds, cold_failed = colds + more, cold_failed + bad
    values = figures(passes, colds, workload.tail_pct, meter.factor, starts.factor)
    one = lambda t0, t1: 1.0  # noqa: E731
    raw = figures(passes, colds, workload.tail_pct, one, one)
    detail = {
        "pass_s": values.pop("pass_s"),
        "items": values.pop("items"),
        "tail_percentile": workload.tail_pct,
        "tail_samples_beyond": values.pop("tail_samples_beyond"),
        "cold_cli_ms": [(t1 - t0) * starts.factor(t0, t1) * 1000 for t0, t1 in colds],
        "speed_factor": meter.overall(),
        "start_factor": starts.overall(),
        "reference_samples": len(meter.samples),
        "raw": {k: raw[k] for k in values} | {"pass_s": raw["pass_s"]},
        "pass0_verdicts_sha256": first,
    }
    values["peak_rss_mb"] = peak_rss_mb
    return values, detail, attempted + len(colds), failed + cold_failed


def measure_traced(workload, seed: int, tracer) -> tuple[dict, dict, int, int]:
    """Pass 0 untraced, then the same pass traced; counts repeat exactly."""
    plan = workload.pass_items(seed, 0)
    untraced_s, plain, _ = run_pass(workload, plan)
    tracer.install()
    try:
        traced_s, verdicts, _ = tracer.call("pass", run_pass, workload, plan, tracer)
    finally:
        tracer.uninstall()
    attempted, failed = check_pass(workload, plan, verdicts)
    same = digest(plain) == digest(verdicts)
    calls, self_s, extra = tracer.calls, tracer.self_s, tracer.extra
    values = {}
    for name in SPANS + LEAVES:
        values[name + ".calls"] = float(calls[name])
        values[name + ".self_s"] = self_s[name]
    for name, (_, counts) in AFTER.items():
        values.update({f"{name}.{count}": float(extra[f"{name}.{count}"]) for count in counts})
    checked = extra["perfectposet.cover_oracle.checked"]
    submasks = extra["perfectposet.cover_oracle.submasks"]
    values["perfectposet.cover_oracle.checked_per_submask"] = checked / submasks if submasks else 0.0
    halvings = calls["coverlemmas.halve_once"]
    tries = tracer.leaf_in["coverlemmas.hit_weight", "coverlemmas.halve_once"]
    values["coverlemmas.halve_once.tries_per_call"] = tries / halvings if halvings else 0.0
    values["trace.overhead_s"] = traced_s - untraced_s
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{workload.name}-seed{seed}-spans.tsv.gz"
    detail = {
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "traced_matches_untraced": same,
        "pass0_verdicts_sha256": digest(verdicts),
        "spans": tracer.write_spans(spans_path),
        "spans_file": spans_path.name,
    }
    return values, detail, attempted + 1, failed + (not same)


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
        "commit": git_commit(),
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run; returns the result object and the record behind it."""
    spec = load_spec()
    tracer = Tracer() if trace else None
    workload, import_s, setup_s, scaled_s = scaled_setup(name, tracer)
    imports, setups, scaled = [import_s], [setup_s], [scaled_s]
    for _ in range(SETUP_SAMPLES - 1):
        sample = setup_probe(name)
        imports.append(sample[0])
        setups.append(sample[1])
        scaled.append(sample[2])
    workload.prepare(seed)
    if trace:
        values, detail, attempted, failed = measure_traced(workload, seed, tracer)
        values["cli.import_s"] = statistics.median(imports)
        wanted = spec["per_layer"]
    else:
        values, detail, attempted, failed = measure(workload, seed, seconds)
        values["setup_s"] = statistics.median(scaled)
        detail["raw"]["setup_s"] = statistics.median(setups)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "failed_frac": failed / attempted,
        "setup_samples_s": setups,
        "setup_scaled_s": scaled,
        "import_samples_s": imports,
        **detail,
        "result": result,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "clopenforce" / "__init__.py").is_file():
        print(f"bench: no clopenforce sources under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0)
    if args.setup_probe:
        _, import_s, setup_s, scaled_s = scaled_setup(args.setup_probe)
        print(json.dumps({"import_s": import_s, "setup_s": setup_s, "scaled_s": scaled_s}))
        return 0
    if args.workload not in {w["name"] for w in load_spec()["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    result, record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record, separators=(",", ":")))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
