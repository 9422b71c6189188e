"""Spans and counts around chaintop's layers, installed from outside the package.

Each public function of a layer module is wrapped, and the wrapper replaces
the original under every name a ``chaintop`` module bound it to, so calls
made through ``from .topology import canonical_topology`` are seen too.
Per-element chain operations are counted, not spanned: a span would cost
more than the call, so their time shows as the self time of the caller.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, op]``; a
span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter

LAYERS = ("cli", "formats", "suite", "poset", "relations", "topology", "chains", "intervals", "separating")

# public functions called once per element: counted only
COUNTED_ONLY = {"relations.chain_way_below", "intervals.interval_member"}
# ChainHandle methods counted on the base class and on every subclass defining them
CHAIN_METHODS = ("compare", "validate", "between")
# results whose size is a work counter, taken when the result leaves its layer
RESULT_SIZES = {
    "topology": ("topology.opens", lambda r: len(r.opens) if hasattr(r, "opens") else 0),
    "separating": ("separating.cuts", lambda r: len(r.cuts) if hasattr(r, "cuts") else 0),
    "suite": ("suite.instances", lambda r: sum(c.instances for c in getattr(r, "records", ()))),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._outermost: list[bool] = []
        self._undo: list = []

    # -- recording

    def _span(self, name: str, fn, on_result=None):
        spans, stack, active, outermost, counts = (
            self.spans, self._stack, self._active, self._outermost, self.counts
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, clock(), 0, parent, self.op]
            stack.append(len(spans))
            spans.append(rec)
            outermost.append(active[name] == 0)
            active[name] += 1
            counts[name + ".calls"] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                active[name] -= 1
                stack.pop()
            if on_result is not None and (parent < 0 or not spans[parent][0].startswith(name.split(".")[0] + ".")):
                key, size = on_result
                counts[key] += size(result)
            return result

        return wrapped

    def _counter(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    # -- installation

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "chaintop" or n.startswith("chaintop.")]
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"chaintop.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in COUNTED_ONLY:
                    replace[id(obj)] = self._counter(name, obj)
                else:
                    replace[id(obj)] = self._span(name, obj, RESULT_SIZES.get(layer))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in replace:
                    self._set(mod, attr, replace[id(obj)])

        chains = sys.modules["chaintop.chains"]
        for cls in vars(chains).values():
            if isinstance(cls, type) and issubclass(cls, chains.ChainHandle):
                for meth in CHAIN_METHODS:
                    if meth in vars(cls):
                        self._set(cls, meth, self._counter(f"chains.{meth}", vars(cls)[meth]))

        poset = sys.modules["chaintop.poset"]
        prop = vars(poset.FinitePoset)["directed_with_sup"]
        inner = self._span("poset.directed_with_sup", prop.func)

        def directed_with_sup(P):
            out = inner(P)
            self.counts["poset.directed_subsets"] += len(out)
            return out

        self._set(prop, "func", directed_with_sup)

        suite = sys.modules["chaintop.suite"]
        table = suite._CLAIM_FUNCTIONS
        for claim, fn in list(table.items()):
            self._undo.append((table, claim, fn))
            table[claim] = self._span(f"suite.claim.{claim}", fn)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- reading

    def totals(self) -> dict[str, float]:
        """Layer self times, outermost inclusive times per span name, and counts."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {f"{layer}.self_ms": 0.0 for layer in LAYERS}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            dur = end - start
            layer = name.split(".")[0]
            out[f"{layer}.self_ms"] += (dur - child[i]) / 1e6
            if self._outermost[i]:
                key = f"{name}.ms"
                out[key] = out.get(key, 0.0) + dur / 1e6
        for key, value in self.counts.items():
            out[key] = out.get(key, 0) + value
        return out

    def dump(self) -> dict:
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
