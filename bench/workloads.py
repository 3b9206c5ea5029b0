"""The four benchmark workloads.

Each workload is a closed loop: one caller sends the next check only after
the previous verdict returned, in one process, with no threads.  A workload
splits into

* `setup`: library-side set-up and warm-up, timed as `setup_s`;
* `prepare`: benchmark-side tables for generating inputs and restating
  answers, untimed;
* `pass_items(seed, k)`: the inputs of pass k, generated untimed from the
  seed, as (kind, payload) pairs; kinds in `phases` are timed as part of
  the pass but are not items (no latency sample);
* `run(kind, payload)`: the library calls of one item, the timed part;
* `check(kind, payload, verdict)`: (checks made, checks failed) against the
  oracle or an exact restatement, untimed;
* `cold_calls(seed)`: argv lists for cold CLI processes, each with a
  checker of (exit code, stdout bytes).

Library functions are always called through their module attribute, so the
traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from math import comb
from pathlib import Path

from clopenforce import cli
from clopenforce import coverlemmas as cl
from clopenforce import diagonal as dg
from clopenforce import nullcover as nc
from clopenforce import numerics as nm
from clopenforce import perfectposet as pp
from clopenforce import soft
from clopenforce.soft import NameTable

import inputs

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
COLD_CALLS = 25


def _ok(passed: bool) -> tuple[int, int]:
    return 1, 0 if passed else 1


def _oracle_check_argv(b, c, k: int) -> list[str]:
    return ["pforce", "oracle-check", "-b", str(b), "--against", str(c), "--k", str(k)]


def _oracle_check_ok(b, c, k: int):
    """Checker for a cold `pforce oracle-check`: exit 0, the oracle finds
    nothing, and the member count matches the in-process construction."""

    def checker(code: int, out: bytes) -> bool:
        report = json.loads(out)
        return (
            code == 0
            and report["compat_agrees"] is True
            and report["uncovered"] == []
            and report["bad_members"] == []
            and report["members"] == len(pp.main_cover(b, c, k))
        )

    return checker


class Workload:
    """Defaults shared by the workloads; the module docstring lists the
    methods each workload defines, and each fixes its `tail_pct` so runs of
    any speed compare."""

    phases: frozenset = frozenset()


# --------------------------------------------------------------- audit_d3


class AuditD3(Workload):
    """Criterion 4 exhaustively: every ordered pair of depth-3 dense
    conditions with n <= 2 for compatibility, then one cover audit per
    tree-automorphism orbit of pairs (the item)."""

    name = "audit_d3"
    tail_pct = 99.5
    phases = frozenset({"compat"})
    compat_rows = 16

    def setup(self) -> None:
        self.conds = pp.enumerate_pprime(3, 2)
        self.run("compat", (self.conds[:2], self.conds[-2:]))
        self.run("audit", (self.conds[0], self.conds[-1]))

    def prepare(self, seed: int) -> None:
        self.tables = inputs.mask_actions(3)
        self.orbits = inputs.pair_orbits(self.conds, self.tables)

    def pass_items(self, seed: int, k: int) -> list:
        rng = inputs.rng_for(self.name, seed, k)
        first, second = list(self.conds), list(self.conds)
        rng.shuffle(first)
        rng.shuffle(second)
        pairs = inputs.orbit_pass(self.orbits, self.tables, 3, rng)
        # the compat phase in blocks of rows, so the speed reference is
        # sampled through it as through the audits
        rows = self.compat_rows
        compat = [("compat", (first[i : i + rows], second)) for i in range(0, len(first), rows)]
        return compat + [("audit", pair) for pair in pairs]

    def run(self, kind: str, payload):
        if kind == "compat":
            closed = bytearray()
            disagree = 0
            for a in payload[0]:
                for b in payload[1]:
                    v = pp.p_compatible(a, b)
                    closed.append(v)
                    disagree += v != pp.compat_oracle(a, b)
            return bytes(closed), disagree
        b, c = payload
        members = pp.main_cover(b, c, 3)
        report = pp.cover_oracle(b, c, 3, members)
        return len(members), report.checked, report.ok

    def check(self, kind: str, payload, verdict) -> tuple[int, int]:
        if kind == "compat":
            return len(verdict[0]), verdict[1]
        return _ok(verdict[2])

    def cold_calls(self, seed: int) -> list:
        audits = [p for kind, p in self.pass_items(seed, 0) if kind == "audit"]
        pairs = audits[:COLD_CALLS]
        return [(_oracle_check_argv(b, c, 3), _oracle_check_ok(b, c, 3)) for b, c in pairs]


# --------------------------------------------------------------- audit_d4


class AuditD4(Workload):
    """A fixed sample of depth-4 pair orbits with n <= 3, drawn with quotas
    per node count of c; the seed picks each pass's orbit members.  Each
    item is compatibility agreement plus a cover audit."""

    name = "audit_d4"
    tail_pct = 85.0
    pairs_per_pass = 64

    def setup(self) -> None:
        self.conds = pp.enumerate_pprime(4, 3)
        self.run("pair", (self.conds[0], self.conds[-1]))

    def prepare(self, seed: int) -> None:
        self.quotas = inputs.popcount_quotas(self.conds, self.pairs_per_pass)

    def pass_items(self, seed: int, k: int) -> list:
        # the same orbit sample every pass, so passes cost the same
        base = inputs.rng_for(self.name, "orbits")
        rng = inputs.rng_for(self.name, seed, k)
        return [("pair", p) for p in inputs.pair_sample(self.conds, self.quotas, base, rng)]

    def run(self, kind: str, payload):
        b, c = payload
        closed = pp.p_compatible(b, c)
        oracle = pp.compat_oracle(b, c)
        members = pp.main_cover(b, c, 4)
        report = pp.cover_oracle(b, c, 4, members)
        return closed, oracle, len(members), report.checked, report.ok

    def check(self, kind: str, payload, verdict) -> tuple[int, int]:
        return _ok(verdict[0] == verdict[1] and verdict[4])

    def cold_calls(self, seed: int) -> list:
        # the pairs of pass 0 with the fewest nodes in c, so the cold figure
        # is about start-up, not one big audit, and its work does not
        # depend on the seed
        def size(pair):
            b, c = pair
            return c.B.mask.bit_count(), c.n, b.B.mask.bit_count(), b.n

        pairs = sorted((p for _, p in self.pass_items(seed, 0)), key=size)
        pairs = [pairs[i % len(pairs)] for i in range(COLD_CALLS)]
        return [(_oracle_check_argv(b, c, 4), _oracle_check_ok(b, c, 4)) for b, c in pairs]


# -------------------------------------------------------------- desk_soft


class DeskSoft(Workload):
    """Criterion 5's shape on DeskPoset(3): iterated covers verified in the
    poset, prefix witnesses and escape values on maximal antichains."""

    name = "desk_soft"
    tail_pct = 90.0
    # Fixed shapes so every pass does similar work.  Covers take 5-40 ms,
    # prefix witnesses 40-130 ms, escape tables 80-220 ms: this mix puts the
    # median item inside the witnesses and the tail inside the escapes, not
    # in a gap between kinds where it would jump from run to run.
    cover_shapes = ((3, 2), (2, 2), (2, 1), (1, 2))  # (k, len(ps))
    stars = 10
    escapes = 3

    def setup(self) -> None:
        self.desk = pp.DeskPoset(3)
        self.rows = self.desk.compat_rows()
        self.heights = self.desk.heights()
        self.run("cover", ((self.desk.elements[1],), 1))

    def prepare(self, seed: int) -> None:
        elems = self.desk.elements
        self.index = {e: i for i, e in enumerate(elems)}
        self.by_key = {(e.n, e.B.mask): i for i, e in enumerate(elems)}
        self.low = [e for e in elems if e.n <= 2]
        # height-<= k element masks and down-sets, from the order restated
        self.height_mask = [sum(1 << i for i, e in enumerate(elems) if e.n <= k) for k in range(4)]
        traces = [[_trace(e.B.mask, 3, lv) for lv in range(4)] for e in elems]
        self.down = [0] * len(elems)
        for qi, q in enumerate(elems):
            qm, qn, qt = q.B.mask, q.n, traces[qi][q.n]
            for xi, x in enumerate(elems):
                if x.n >= qn and x.B.mask & ~qm == 0 and traces[xi][qn] == qt:
                    self.down[qi] |= 1 << xi

    def pass_items(self, seed: int, k: int) -> list:
        rng = inputs.rng_for(self.name, seed, k)
        elems = self.desk.elements
        items = []
        for height, size in self.cover_shapes:
            items.append(("cover", (tuple(rng.choice(self.low) for _ in range(size)), height)))
        for i in range(self.stars):
            chain = [elems[j] for j in inputs.greedy_antichain(self.rows, rng)]
            items.append(("star", (tuple(chain), i % 4)))
        for _ in range(self.escapes):
            coords = []
            for _ in range(2):
                chain = [elems[j] for j in inputs.greedy_antichain(self.rows, rng)]
                coords.append((tuple(chain), tuple(rng.randint(0, 20) for _ in chain)))
            items.append(("escape", NameTable(tuple(coords))))
        rng.shuffle(items)
        return items

    def run(self, kind: str, payload):
        if kind == "cover":
            ps, height = payload
            family = pp.iterate_cover(list(ps), height)
            ok = soft.verify_cover(self.desk, self.heights, ps, height, family)
            return tuple((q.n, q.B.mask) for q in family), ok
        if kind == "star":
            return soft.star_witness(self.desk, self.heights, payload[0], payload[1])
        report = soft.escape_function(self.desk, self.heights, payload)
        return tuple((c.m, c.prefix, c.f, c.punchline_ok) for c in report.coords)

    # restatements over compat_rows and the restated down-sets

    def _fences(self, chain, m: int, n: int) -> bool:
        prefix = 0
        for e in chain[:n]:
            prefix |= 1 << self.index[e]
        need = self.height_mask[min(m, 3)]
        return all(not need >> i & 1 or row & prefix for i, row in enumerate(self.rows))

    def _least_fence(self, chain, m: int) -> int:
        lo, hi = 0, len(chain)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._fences(chain, m, mid):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def check(self, kind: str, payload, verdict) -> tuple[int, int]:
        if kind == "cover":
            ps, height = payload
            family, ok = verdict
            ps_mask = sum(1 << self.index[p] for p in set(ps))
            members = [self.by_key[key] for key in family]
            clear = all(self.rows[q] & ps_mask == 0 for q in members)
            covered = 0
            for q in members:
                covered |= self.down[q]
            targets = self.height_mask[height]
            for i, row in enumerate(self.rows):
                if row & ps_mask:
                    targets &= ~(1 << i)
            return _ok(ok and clear and targets & ~covered == 0)
        if kind == "star":
            return _ok(verdict == self._least_fence(*payload))
        expected = []
        for m, (chain, values) in enumerate(payload.coords):
            n = self._least_fence(chain, m)
            expected.append((m, n, max(values[:n], default=0), True))
        return _ok(verdict == tuple(expected))

    def cold_calls(self, seed: int) -> list:
        calls = []
        for kind, payload in self.pass_items(seed, 0):
            if kind == "cover":
                ps, height = payload
                argv = ["pforce", "cover", "--k", str(height)]
                for p in ps:
                    argv += ["-b", str(p)]
                calls.append((argv, _cover_ok(list(ps), height)))
        return [calls[i % len(calls)] for i in range(COLD_CALLS)]


def _cover_ok(ps, height: int):
    def checker(code: int, out: bytes) -> bool:
        got = [(q["n"], tuple(q["B"]["nodes"])) for q in json.loads(out)]
        want = [(q.n, q.B.nodes()) for q in pp.iterate_cover(ps, height)]
        return code == 0 and got == want

    return checker


def _trace(mask: int, depth: int, level: int) -> int:
    """Set of length-`level` prefixes of a depth-level mask, bit by bit."""
    out = 0
    for i in range(1 << depth):
        if mask >> i & 1:
            out |= 1 << (i >> (depth - level))
    return out


# ------------------------------------------------------------- lemmas_cli


class LemmasCli(Workload):
    """Criteria 1-3, 9 and 10 (halving, schedules, parameters, chains,
    null covers) plus in-process CLI calls against a golden transcript."""

    name = "lemmas_cli"
    # inside the cluster of `pforce oracle-check --samples` calls, the
    # slowest 0.2 % of items, rather than at its edge
    tail_pct = 99.9

    def setup(self) -> None:
        self.run("cli", {"argv": ["eps", "--k", "3", "--kprime", "1"]})

    def prepare(self, seed: int) -> None:
        self.golden = json.loads(GOLDEN.read_text(encoding="utf-8"))

    def pass_items(self, seed: int, k: int) -> list:
        rng = inputs.rng_for(self.name, seed, k)
        items = []
        for i in range(48):
            items.append(("goodness", inputs.goodness_instance(rng, 1 + i % 12)))
        for i in range(192):
            items.append(("halve", inputs.weight_family(rng, 1 + i % 3)))
        for i in range(32):
            m = 1 + i % 2
            items.append(("shrink", (*inputs.shrink_family(rng, m), m)))
        for _ in range(16):
            items.append(("schedule", (Fraction(rng.randint(1, 9), 10), rng.randint(1, 3))))
        for m in range(1, 7):
            items.append(("params", m))
        for _ in range(96):
            items.append(("zeta", inputs.param_schedule(rng)))
        for m, g in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3)):
            items.append(("chain", (m, g)))
        for _ in range(48):
            cover = inputs.conforming_cover(rng)
            items.append(("union", (cover, tuple(range(1, len(cover.entries))))))
        for i in range(72):
            items.append(("avoid", inputs.trap_instance(rng, 4 + i % 9)))
        for entry in self.golden:
            items.append(("cli", entry))
        rng.shuffle(items)
        return items

    def run(self, kind: str, payload):
        if kind == "goodness":
            z, t, kp, k = payload
            return cl.split_goodness(z, t, kp), nm.epsilon(k, kp)
        if kind == "halve":
            return cl.halve_once(*payload).mask
        if kind == "shrink":
            return cl.shrink(*payload).mask
        if kind == "schedule":
            return cl.schedule(*payload)
        if kind == "params":
            found = dg.find_params(payload)
            return found, dg.validate_params(found).ok
        if kind == "zeta":
            return [dg.zeta(payload, lv) for lv in range(payload.m + 1)]
        if kind == "chain":
            m, g = payload
            chain = dg.build_chain(m, g, (1 << g) - 1, m * g)
            return chain, dg.verify_chain(chain, (1 << g) - 1).ok
        if kind == "union":
            return nc.union_measure(*payload)
        if kind == "avoid":
            tree, part, points, _ = payload
            ks = [nc.kn_set(part.traps[i], part.intervals[i], points[i]) for i in range(len(points))]
            report = nc.avoidance_check(tree, part, ks, points)
            return report.ok, report.misaligned_intervals, report.trap_hits
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.dispatch(list(payload["argv"]))
        return code, out.getvalue().encode()

    def check(self, kind: str, payload, verdict) -> tuple[int, int]:
        if kind == "goodness":
            z, t, kp, k = payload
            want = Fraction(sum(comb(k, j) for j in range(kp, k - kp + 1)), 1 << k)
            return _ok(verdict == (want, inputs.own_epsilon(k, kp)))
        if kind == "halve":
            fam, kp = payload
            bound = (1 - inputs.own_epsilon(fam.k, kp)) * _total(fam)
            return _ok(
                verdict & ~fam.Z.mask == 0
                and verdict.bit_count() <= fam.Z.mask.bit_count() // 2
                and _hit(fam, verdict, kp) >= bound
            )
        if kind == "shrink":
            fam, eps, m = payload
            return _ok(
                verdict.bit_count() <= 1 << (4 - m)
                and _hit(fam, verdict, 1) >= (1 - eps) * _total(fam)
            )
        if kind == "schedule":
            return _ok(verdict == inputs.own_schedule(*payload))
        if kind == "params":
            found, ok = verdict
            return _ok(ok and _zeta(found, 0) < Fraction(1, 4**payload))
        if kind == "zeta":
            return _ok(verdict == [_zeta(payload, lv) for lv in range(payload.m + 1)])
        if kind == "chain":
            chain, ok = verdict
            return _ok(ok and _chain_budgets_exact(chain, payload[1]))
        if kind == "union":
            cover, indices = payload
            depth = max(cover.entries[m][0] for m in indices)
            direct = 0
            for m in indices:
                n, z = cover.entries[m]
                direct |= _lift(z.mask, n, depth)
            return _ok(verdict == Fraction(direct.bit_count(), 1 << depth))
        if kind == "avoid":
            ok, misaligned, hits = verdict
            return _ok(ok and not misaligned and hits == payload[3])
        return _ok(verdict == (payload["exit"], payload["stdout"].encode()))

    def cold_calls(self, seed: int) -> list:
        rng = inputs.rng_for(self.name, "cold", seed)
        order = list(self.golden)
        rng.shuffle(order)
        return [
            (entry["argv"], _golden_ok(entry))
            for entry in (order[i % len(order)] for i in range(COLD_CALLS))
        ]


def _golden_ok(entry):
    def checker(code: int, out: bytes) -> bool:
        return code == entry["exit"] and out == entry["stdout"].encode()

    return checker


def _total(fam) -> Fraction:
    return sum((a for _, a in fam.weights), Fraction(0))


def _hit(fam, zmask: int, kp: int) -> Fraction:
    return sum((a for t, a in fam.weights if (t & zmask).bit_count() >= kp), Fraction(0))


def _zeta(ps, level: int) -> Fraction:
    """zeta_l restated: 2 (m - l) (eps + delta^-2 eps m z_{m-1} + delta)
    plus the tail sum of y_j / z_{j+1} for l <= j < m - 1."""
    slack = ps.eps + ps.eps * ps.m * ps.z[-1] / ps.delta**2 + ps.delta
    tail = sum((Fraction(ps.y[j], ps.z[j + 1]) for j in range(level, ps.m - 1)), Fraction(0))
    return 2 * (ps.m - level) * slack + tail


def _lift(mask: int, level: int, depth: int) -> int:
    width = 1 << (depth - level)
    out = 0
    for j in range(1 << level):
        if mask >> j & 1:
            out |= ((1 << width) - 1) << (j * width)
    return out


def _mass(clopen) -> Fraction:
    return Fraction(clopen.mask.bit_count(), 1 << clopen.depth)


def _chain_budgets_exact(chain, g: int) -> bool:
    """Every family's product mass is exactly its parent's over 2^g."""
    for (sigma, tau), fam in chain.families().items():
        total = sum((_mass(c.p) * _mass(c.q) for c in fam.values()), Fraction(0))
        if sigma:
            parent_p = chain.entries[(sigma[:-1], tau[:-1], sigma[-1])].p
            parent_q = chain.entries[(sigma[:-1], tau[:-1], tau[-1])].q
            parent = _mass(parent_p) * _mass(parent_q)
        else:
            parent = Fraction(1)
        if total != parent / (1 << g):
            return False
    return True


WORKLOADS = {w.name: w for w in (AuditD3, AuditD4, DeskSoft, LemmasCli)}
