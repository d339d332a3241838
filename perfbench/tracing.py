"""Spans and counters around quiveralg's module boundaries, for traced runs only.

``Tracer.installed()`` replaces public functions by wrappers under the
module-level names through which callers reach them (``quiveralg.cli.
operator_norm`` and ``quiveralg.fock.operator_norm`` are both patched, since
``cli`` bound its own name at import), and puts every original object back on
exit.  Nothing under ``src/`` is edited.

One ``Tracer`` records one pass of a workload's requests.  A span records
its name, start, end, parent span and request.  Spans stay in memory until
the run ends and ``write_spans`` writes them out; self time (duration minus
the time covered by child spans) and the counters are aggregated as the
spans close.  Spans of the per-item calls in ``PER_ITEM`` (thousands per
request) are aggregated but not kept in the log.

``layer_metrics`` reports per pass: counts of the first traced pass (every
pass does the same work) and, for each time, the least over the passes, so
that the figures do not depend on how many passes a run had time for.  Times
are scaled to the reference speed of ``speed.py`` by the pass's own ratio of
reference to wall seconds (``time_scale``).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager

#: per-layer metrics reported by a traced run: name -> (unit, better)
LAYER_METRICS = {
    "quiver.enumerate_paths.self_s": ("s", "lower"),
    "quiver.enumerate_paths.paths": ("count", "lower"),
    "quiver.are_isomorphic.calls": ("count", "lower"),
    "quiver.are_isomorphic.self_s": ("s", "lower"),
    "quiver.iso.perms_tried": ("count", "lower"),
    "correspondence.self_s": ("s", "lower"),
    "polynomials.mul.calls": ("count", "lower"),
    "polynomials.mul.self_s": ("s", "lower"),
    "polynomials.mul.nonzero_frac": ("ratio", "higher"),
    "polynomials.format.self_s": ("s", "lower"),
    "fock.space.self_s": ("s", "lower"),
    "fock.space.dim": ("count", "lower"),
    "fock.creation.self_s": ("s", "lower"),
    "fock.creation.nnz": ("count", "lower"),
    "fock.norm.dense.calls": ("count", "lower"),
    "fock.norm.dense.self_s": ("s", "lower"),
    "fock.norm.dense.bytes_computed": ("bytes", "lower"),
    "fock.norm.power.calls": ("count", "lower"),
    "fock.norm.power.self_s": ("s", "lower"),
    "fock.covariance.self_s": ("s", "lower"),
    "fock.corner.self_s": ("s", "lower"),
    "reps.norm_direct.self_s": ("s", "lower"),
    "reps.norm_direct.columns": ("count", "lower"),
    "reps.norm_closed.self_s": ("s", "lower"),
    "reps.rho_eval.calls": ("count", "lower"),
    "reps.rho_eval.self_s": ("s", "lower"),
    "reps.membership.calls": ("count", "lower"),
    "recovery.scramble.self_s": ("s", "lower"),
    "recovery.recover.self_s": ("s", "lower"),
    "recovery.witness_s": ("s", "lower"),
    "graphio.parse.calls": ("count", "lower"),
    "graphio.parse.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
}

#: tracing overhead, measured by replaying the traced requests untraced
OVERHEAD_METRICS = {
    "trace.requests": ("count", "higher"),
    "trace.goodput_ops_s": ("1/s", "higher"),
    "trace.untraced_goodput_ops_s": ("1/s", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}

#: everything a traced run reports, in order
PER_LAYER = {**LAYER_METRICS, **OVERHEAD_METRICS}


#: span names that are aggregated only, not logged one by one
PER_ITEM = frozenset({"polynomials.mul", "polynomials.format", "reps.rho_eval", "correspondence"})


class Tracer:
    """Span stack, span log and aggregates of one traced pass."""

    def __init__(self) -> None:
        self.request = 0
        self.spans: list[tuple] = []  # (id, parent id, request, name, start, end)
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.under: Counter = Counter()  # (parent name, name) -> total duration
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [id, name, start, child time]
        self.missing: list[str] = []  # boundaries whose name is gone
        self.time_scale = 1.0  # reference seconds per wall second of the pass
        self._next_id = 0

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> None:
        if not self._stack:  # a root span starts a new request
            self.request += 1
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
            self.under[(parent[1], name)] += dur
        if name not in PER_ITEM:
            self.spans.append((sid, parent[0] if parent else None, self.request, name, start, end))

    def inside(self, name: str) -> bool:
        return bool(self._stack) and self._stack[-1][1] == name

    def span(self, name, fn, after=None):
        """Wrap fn in a span; ``name`` may be a function of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, fn, after):
        """Wrap fn without a span, only to count through ``after(args, result)``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def _hooks(self):
        """(owner, attribute, wrapper factory) for every traced boundary."""
        qa = {m: importlib.import_module(f"quiveralg.{m}") for m in
              ("quiver", "correspondence", "polynomials", "fock", "reps", "recovery", "graphio", "cli")}
        fock = qa["fock"]
        count = self.counts

        def add(key, value=1):
            count[key] += value

        def norm_name(args):
            shape = getattr(args[0], "matrix", args[0]).shape
            dense = max(shape) < getattr(fock, "DENSE_SVD_LIMIT", 2000)
            if dense and min(shape) > 0:
                add("fock.norm.dense.bytes_computed", 16 * shape[0] * shape[1])
            return "fock.norm.dense" if dense else "fock.norm.power"

        def perm_counted(args, result):
            if self.inside("quiver.are_isomorphic"):
                add("quiver.iso.perms_tried")

        def mul_after(args, result):
            add("polynomials.mul.nonzero", bool(result))

        span, counter = self.span, self.counter
        plan = [
            (("quiver", "fock", "cli"), "enumerate_paths",
             lambda f: span("quiver.enumerate_paths", f,
                            after=lambda a, r: add("quiver.enumerate_paths.paths", len(r)))),
            (("quiver", "recovery", "cli"), "are_isomorphic",
             lambda f: span("quiver.are_isomorphic", f)),
            (("quiver",), "apply_permutation", lambda f: counter(f, perm_counted)),
            (("correspondence", "fock"), "inner_product", lambda f: span("correspondence", f)),
            (("correspondence", "cli"), "element_norm", lambda f: span("correspondence", f)),
            (("polynomials", "cli"), "format_path", lambda f: span("polynomials.format", f)),
            (("fock", "cli"), "creation_operator",
             lambda f: span("fock.creation", f,
                            after=lambda a, r: add("fock.creation.nnz", r.matrix.nnz))),
            (("fock", "cli"), "operator_norm", lambda f: span(norm_name, f)),
            (("fock", "cli"), "check_isometric_covariance", lambda f: span("fock.covariance", f)),
            (("fock", "cli"), "corner_shift_report", lambda f: span("fock.corner", f)),
            (("reps", "cli"), "t_tilde_k_norm_direct", lambda f: span("reps.norm_direct", f)),
            (("reps",), "t_tilde_k_matrix",
             lambda f: counter(f, lambda a, r: add("reps.norm_direct.columns", r.shape[1]))),
            (("reps", "cli"), "t_tilde_k_norm_closed", lambda f: span("reps.norm_closed", f)),
            (("reps", "recovery"), "rho_eval", lambda f: span("reps.rho_eval", f)),
            (("reps", "recovery"), "membership_G",
             lambda f: counter(f, lambda a, r: add("reps.membership.calls"))),
            (("recovery", "cli"), "scramble", lambda f: span("recovery.scramble", f)),
            (("recovery", "cli"), "recover",
             lambda f: span("recovery.recover", f)),
            (("graphio", "cli"), "parse_quiver_file", lambda f: span("graphio.parse", f)),
            (("cli",), "main", lambda f: span("cli.main", f)),
        ]
        for modules, attr, factory in plan:
            for m in modules:
                yield qa[m], attr, factory
        methods = [
            (qa["polynomials"].PathPolynomial, "__mul__",
             lambda f: span("polynomials.mul", f, after=mul_after)),
            (fock.FockSpace, "__init__",
             lambda f: span("fock.space", f,
                            after=lambda a, r: add("fock.space.dim", a[0].dim))),
        ]
        yield from methods
        element = qa["correspondence"].CorrespondenceElement
        yield element, "random", lambda cm: classmethod(span("correspondence", cm.__func__))

    @contextmanager
    def installed(self):
        """Install every wrapper; restore every original object on exit."""
        saved, self.missing = [], []
        try:
            for owner, attr, factory in self._hooks():
                original = vars(owner).get(attr)
                if original is None:
                    self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, factory(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics, keyed as in LAYER_METRICS."""
        s, c, k = self.self_s, self.calls, self.counts
        mul_calls = c["polynomials.mul"]
        out = {
            "quiver.enumerate_paths.self_s": s["quiver.enumerate_paths"],
            "quiver.enumerate_paths.paths": k["quiver.enumerate_paths.paths"],
            "quiver.are_isomorphic.calls": c["quiver.are_isomorphic"],
            "quiver.are_isomorphic.self_s": s["quiver.are_isomorphic"],
            "quiver.iso.perms_tried": k["quiver.iso.perms_tried"],
            "correspondence.self_s": s["correspondence"],
            "polynomials.mul.calls": mul_calls,
            "polynomials.mul.self_s": s["polynomials.mul"],
            "polynomials.mul.nonzero_frac": k["polynomials.mul.nonzero"] / mul_calls if mul_calls else 0.0,
            "polynomials.format.self_s": s["polynomials.format"],
            "fock.space.self_s": s["fock.space"],
            "fock.space.dim": k["fock.space.dim"],
            "fock.creation.self_s": s["fock.creation"],
            "fock.creation.nnz": k["fock.creation.nnz"],
            "fock.norm.dense.calls": c["fock.norm.dense"],
            "fock.norm.dense.self_s": s["fock.norm.dense"],
            "fock.norm.dense.bytes_computed": k["fock.norm.dense.bytes_computed"],
            "fock.norm.power.calls": c["fock.norm.power"],
            "fock.norm.power.self_s": s["fock.norm.power"],
            "fock.covariance.self_s": s["fock.covariance"],
            "fock.corner.self_s": s["fock.corner"],
            "reps.norm_direct.self_s": s["reps.norm_direct"],
            "reps.norm_direct.columns": k["reps.norm_direct.columns"],
            "reps.norm_closed.self_s": s["reps.norm_closed"],
            "reps.rho_eval.calls": c["reps.rho_eval"],
            "reps.rho_eval.self_s": s["reps.rho_eval"],
            "reps.membership.calls": k["reps.membership.calls"],
            "recovery.scramble.self_s": s["recovery.scramble"],
            "recovery.recover.self_s": s["recovery.recover"],
            "recovery.witness_s": self.under[("recovery.recover", "quiver.are_isomorphic")],
            "graphio.parse.calls": c["graphio.parse"],
            "graphio.parse.self_s": s["graphio.parse"],
            "cli.main.self_s": s["cli.main"],
            "cli.report_bytes": k["cli.report_bytes"],
        }
        return {m: float(v) * self.time_scale if LAYER_METRICS[m][0] == "s" else v
                for m, v in out.items()}


def layer_metrics(tracers) -> tuple[dict, bool]:
    """Per-pass layer metrics over the traced passes of a run, and whether
    every count repeated exactly from pass to pass."""
    passes = [t.metrics() for t in tracers]
    out = {}
    for name, (unit, _) in LAYER_METRICS.items():
        out[name] = min(p[name] for p in passes) if unit == "s" else passes[0][name]
    counts = [{m: v for m, v in p.items() if LAYER_METRICS[m][0] != "s"} for p in passes]
    return out, all(c == counts[0] for c in counts)


def write_spans(tracers, path) -> None:
    """Write the span logs as CSV: pass, id, parent, request, name, start, end."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass,id,parent,request,name,start,end\n")
        for i, tracer in enumerate(tracers):
            for sid, parent, req, name, start, end in tracer.spans:
                fh.write(f"{i},{sid},{'' if parent is None else parent},{req},{name},{start!r},{end!r}\n")
