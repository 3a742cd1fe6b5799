"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` replaces each named function with a wrapper that
records a span (name, start, end, parent span).  A function imported by
name into other modules is replaced in every ``multiwitt`` module that
holds it, and in the benchmark's own modules, so calls through any of
those names are seen.  Methods are replaced on their class.  Spans stay
in memory; ``summarize`` turns them into per-function call counts and
self times (a span's duration minus the time covered by its direct child
spans), and ``write_spans`` writes them out once the run is over.

The coordinate peel's walk is measured where it happens: while installed,
the tracer also wraps ``exponents_below`` as ``multiwitt.witt`` binds it
and adds up the exponents it hands to ``witt_coordinates``
(``witt.box_exponents``), and it adds up the coordinates each walk peels
(``witt.support_terms``).  A call answered from the element's cached
coordinates walks nothing and adds nothing to either.

Ring operations are far too frequent to wrap with spans without
distorting the timings, so ``RingCounter`` counts them in a pass of its
own that is not timed.
"""

from __future__ import annotations

import json
import sys
import time

# (span name, module that defines it, attribute; "Class.method" for methods)
TRACED = (
    ("series.mul", "multiwitt.series", "TruncatedSeries.mul"),
    ("series.inv", "multiwitt.series", "TruncatedSeries.inv"),
    ("witt.add", "multiwitt.witt", "witt_add"),
    ("witt.coordinates", "multiwitt.witt", "witt_coordinates"),
    ("witt.decompose", "multiwitt.witt", "decompose"),
    ("witt.mul", "multiwitt.witt", "witt_mul"),
    ("ptypical.laws", "multiwitt.ptypical", "pwitt_add"),
    ("ptypical.laws", "multiwitt.ptypical", "pwitt_mul"),
    ("ptypical.ah_coeffs", "multiwitt.ptypical", "artin_hasse_coefficients"),
    ("ptypical.pi_eps_inv", "multiwitt.ptypical", "pi_epsilon_inverse"),
    ("unipoly.resultant", "multiwitt.unipoly", "resultant"),
    ("duality.cartier", "multiwitt.duality", "cartier_pair"),
    ("duality.geometric", "multiwitt.duality", "geometric_pair"),
    ("duality.components", "multiwitt.duality", "pairing_via_components"),
    ("cft.formula", "multiwitt.cft", "pi1_truncated"),
    ("cft.oracle", "multiwitt.cft", "witt_group_structure_brute"),
    ("cft.census", "multiwitt.cft", "lang_kernel_census"),
)

RING_OPS = (
    ("ring.rmul.calls", "rmul"),
    ("ring.radd.calls", "radd"),
    ("ring.rinv.calls", "rinv"),
)

# per-layer metrics: name -> unit, better direction
PER_LAYER = {
    "ring.rmul.calls": ("count", "lower"),
    "ring.radd.calls": ("count", "lower"),
    "ring.rinv.calls": ("count", "lower"),
    "series.mul.calls": ("count", "lower"),
    "series.mul.self_s": ("s", "lower"),
    "series.mul.term_pairs": ("count", "lower"),
    "series.inv.calls": ("count", "lower"),
    "series.inv.self_s": ("s", "lower"),
    "witt.coordinates.calls": ("count", "lower"),
    "witt.coordinates.self_s": ("s", "lower"),
    "witt.decompose.self_s": ("s", "lower"),
    "witt.mul.calls": ("count", "lower"),
    "witt.mul.self_s": ("s", "lower"),
    "witt.box_exponents": ("count", "lower"),
    "witt.support_terms": ("count", "lower"),
    "ptypical.laws.calls": ("count", "lower"),
    "ptypical.laws.self_s": ("s", "lower"),
    "ptypical.ah_coeffs.self_s": ("s", "lower"),
    "ptypical.pi_eps_inv.self_s": ("s", "lower"),
    "unipoly.resultant.calls": ("count", "lower"),
    "unipoly.resultant.self_s": ("s", "lower"),
    "unipoly.resultant.max_size": ("count", "lower"),
    "duality.cartier.self_s": ("s", "lower"),
    "duality.geometric.self_s": ("s", "lower"),
    "duality.components.self_s": ("s", "lower"),
    "cft.formula.self_s": ("s", "lower"),
    "cft.oracle.self_s": ("s", "lower"),
    "cft.oracle.group_ops": ("count", "lower"),
    "cft.census.self_s": ("s", "lower"),
    "cli.interp_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.run_s": ("s", "lower"),
}


def _library_modules(extra=()):
    mods = [m for k, m in sys.modules.items() if k == "multiwitt" or k.startswith("multiwitt.")]
    return mods + [sys.modules[k] for k in extra if k in sys.modules]


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(owner, cls_name), meth
    return owner, attr


class Tracer:
    """Records spans while installed; one tracer serves one pass."""

    def __init__(self, extra_modules=()):
        self.extra_modules = tuple(extra_modules)
        self.spans = []  # [name, start, end, parent index]
        self.counts = {}
        self.max_size = 0
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if name == "series.mul":
                pairs = len(args[0].terms) * len(args[1].terms)
                counts["series.mul.term_pairs"] = counts.get("series.mul.term_pairs", 0) + pairs
            elif name == "unipoly.resultant":
                tracer.max_size = max(tracer.max_size, args[0].degree + args[1].degree)
            walks = name == "witt.coordinates" and args[0]._coords is None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if walks:
                counts["witt.support_terms"] = counts.get("witt.support_terms", 0) + len(result.coords)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_box(self, fn):
        """``exponents_below`` counting the exponents handed to a coordinate walk."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def box(n, d):
            exps = fn(n, d)
            if stack and spans[stack[-1]][0] == "witt.coordinates":
                counts["witt.box_exponents"] = counts.get("witt.box_exponents", 0) + len(exps)
            return exps

        box.__wrapped__ = fn
        return box

    def install(self):
        witt = sys.modules["multiwitt.witt"]
        self._undo.append((witt, "exponents_below", witt.exponents_below))
        witt.exponents_below = self._wrap_box(witt.exponents_below)
        for name, module, attr in TRACED:
            owner, key = _resolve(module, attr)
            orig = getattr(owner, key)
            wrapper = self._wrap(name, orig)
            if "." in attr:
                setattr(owner, key, wrapper)
                self._undo.append((owner, key, orig))
                continue
            for mod in _library_modules(self.extra_modules):
                for k, v in list(vars(mod).items()):
                    if v is orig:
                        setattr(mod, k, wrapper)
                        self._undo.append((mod, k, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def summarize(self) -> dict:
        """Per-layer figures of the spans recorded so far."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict(self.counts)
        in_oracle = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - child[i])
            oracle = name == "cft.oracle" or (parent >= 0 and in_oracle[parent])
            in_oracle.append(oracle)
            if oracle and name == "witt.add":
                out["cft.oracle.group_ops"] = out.get("cft.oracle.group_ops", 0) + 1
        out["unipoly.resultant.max_size"] = self.max_size
        return out

    def write_spans(self, path):
        """Write the recorded spans as JSON lines: name, start and end in
        seconds from the first span, parent index (-1 for a root)."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - base, 9), round(end - base, 9), parent]))
                fh.write("\n")


class RingCounter:
    """Counts calls to the ring operations while installed."""

    def __init__(self):
        self.counts = {}
        self._undo = []

    def install(self):
        from multiwitt.ring import CoeffRing

        for metric, meth in RING_OPS:
            orig = getattr(CoeffRing, meth)
            self.counts[metric] = 0
            setattr(CoeffRing, meth, self._wrap(metric, orig))
            self._undo.append((CoeffRing, meth, orig))

    def _wrap(self, metric, fn):
        counts = self.counts

        def counted(*args):
            counts[metric] += 1
            return fn(*args)

        return counted

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()


def merge(into: dict, summary: dict):
    """Add one summary's figures into another; sizes take the maximum."""
    for k, v in summary.items():
        if k.endswith("max_size"):
            into[k] = max(into.get(k, 0), v)
        else:
            into[k] = into.get(k, 0) + v
