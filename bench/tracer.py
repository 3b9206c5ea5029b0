"""Per-layer tracing from the benchmark's own files.

`Tracer.install` swaps the traced library functions for wrappers in every
`clopenforce` module namespace that holds them, so cross-layer calls made
through an imported name (`perfectposet` calling `levelset_mask`) and calls
inside the library are both caught; `uninstall` restores the originals.
Untraced runs never install it, so they run the library untouched.

Two kinds of boundary:

* span boundaries record (name, parent, start, end) in flat arrays that are
  written out when the run ends; a span's self time is its duration minus
  the time its children, spans and hot leaves, cover;
* hot leaf boundaries (millions of calls) only count calls and accumulate
  time, to keep memory bounded.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

SPANS = (
    "perfectposet.p_compatible",
    "perfectposet.compat_oracle",
    "perfectposet.main_cover",
    "perfectposet.cover_oracle",
    "perfectposet.enumerate_pprime",
    "perfectposet.iterate_cover",
    "perfectposet.DeskPoset.compat_rows",
    "soft.verify_cover",
    "soft.star_witness",
    "soft.escape_function",
    "coverlemmas.halve_once",
    "coverlemmas.shrink",
    "coverlemmas.schedule",
    "coverlemmas.split_goodness",
    "numerics.min_k_for",
    "diagonal.find_params",
    "diagonal.validate_params",
    "diagonal.zeta",
    "diagonal.build_chain",
    "diagonal.verify_chain",
    "nullcover.union_measure",
    "nullcover.kn_set",
    "nullcover.avoidance_check",
    "cli.dispatch",
)

LEAVES = (
    "cantor.levelset_mask",
    "perfectposet.DeskPoset.compatible",
    "perfectposet.DeskPoset.leq",
    "coverlemmas.hit_weight",
    "numerics.epsilon",
)


def _members(args, result):
    return (len(result),)


def _oracle(args, result):
    # submasks: 2^|c| subsets of c's nodes, the space the oracle enumerates
    return result.checked, 1 << args[1].B.mask.bit_count()


def _traps(args, result):
    return (result.trap_hits,)


# span name -> (counter of its arguments and result, names of the counts)
AFTER = {
    "perfectposet.main_cover": (_members, ("members",)),
    "perfectposet.iterate_cover": (_members, ("members",)),
    "perfectposet.cover_oracle": (_oracle, ("checked", "submasks")),
    "nullcover.avoidance_check": (_traps, ("trap_hits",)),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span id, name, child time]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()
        self.leaf_in: Counter = Counter()  # (leaf, innermost span) -> calls
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn as one span named `name`, nested under the current span."""
        sid = len(self.span_name)
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        stack = self.stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [sid, name, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.span_start[sid] = t0
            self.span_end[sid] = t1
            self.calls[name] += 1
            self.self_s[name] += (t1 - t0) - frame[2]
            if stack:
                stack[-1][2] += t1 - t0
        after = AFTER.get(name)
        if after is not None:
            counter, counts = after
            for count, n in zip(counts, counter(args, result)):
                self.extra[f"{name}.{count}"] += n
        return result

    def _span_wrapper(self, name: str, fn):
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return traced

    def _leaf_wrapper(self, name: str, fn):
        calls, self_s, stack, leaf_in = self.calls, self.self_s, self.stack, self.leaf_in

        def traced(*args):
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            calls[name] += 1
            self_s[name] += dt
            if stack:
                top = stack[-1]
                top[2] += dt
                leaf_in[name, top[1]] += 1
            return result

        return traced

    # ------------------------------------------------------- patching

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "clopenforce" or key.startswith("clopenforce."))
        ]
        for names, make in ((SPANS, self._span_wrapper), (LEAVES, self._leaf_wrapper)):
            for name in names:
                modname, _, qual = name.partition(".")
                owner = sys.modules["clopenforce." + modname]
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, attr, make(name, getattr(cls, attr)))
                    continue
                original = getattr(owner, qual)
                wrapper = make(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

    def _patch(self, holder, attr: str, wrapper) -> None:
        self._patched.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    # -------------------------------------------------------- output

    def write_spans(self, path) -> int:
        """Write every span as one TSV line: id, parent, name, start, end."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid in range(len(self.span_name)):
                fh.write(
                    f"{sid}\t{self.span_parent[sid]}\t{names[self.span_name[sid]]}\t"
                    f"{self.span_start[sid]:.9f}\t{self.span_end[sid]:.9f}\n"
                )
        return len(self.span_name)
