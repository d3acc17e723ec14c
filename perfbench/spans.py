"""Span tracer for the public functions of the quditgates modules.

A profile hook (``sys.setprofile`` plus ``threading.setprofile``, because
``cli`` computes table rows in worker threads) records one span per call
of a public function defined in one of the six modules: name, start, end,
parent span and thread.  Spans stay in memory until the run ends.  A span
opened by a worker thread with nothing open on its own stack is attached
to the innermost span open on the main thread, which is the ``cli``
command that started the pool (itself a child of ``cli.main``).

Nothing in the package is modified; calls served from an ``lru_cache``
never enter the Python function and therefore leave no span.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import threading
import time

MODULES = ("kernel", "weylheis", "hierarchy", "geometry", "hull", "cli")

# Values read from a traced function's return value, keyed by span name.
_EXTRACT = {
    "hull.lp_membership": lambda r: r.iterations,
    "geometry.edge_scan": lambda r: r.n_edges,
    "hull.PolytopeSpec.system": lambda r: r.shape[0] * r.shape[1] * 8,
}

# Busy time per rep of these functions, as (metric, span name).
_BUSY = (
    ("cli.main_s", "cli.main"),
    ("hierarchy.group_structure_s", "hierarchy.group_structure"),
    ("weylheis.clifford_unitary_s", "weylheis.clifford_unitary"),
    ("weylheis.mub_projectors_s", "weylheis.mub_projectors"),
    ("kernel.hermitian_eig_s", "kernel.hermitian_eig"),
    ("geometry.choi_of_unitary_s", "geometry.choi_of_unitary"),
    ("geometry.depolarized_choi_s", "geometry.depolarized_choi"),
    ("geometry.negativity_s", "geometry.negativity"),
    ("geometry.edge_scan_s", "geometry.edge_scan"),
    ("geometry.edge_spectra_classes_s", "geometry.edge_spectra_classes"),
    ("hull.cliff_polytope_s", "hull.cliff_polytope"),
    ("hull.system_s", "hull.PolytopeSpec.system"),
    ("hull.verify_certificate_s", "hull.verify_certificate"),
    ("hull.threshold_depol_gate_s", "hull.threshold_depol_gate"),
    ("hull.uqc_bounds_s", "hull.uqc_bounds"),
    ("hull.optimize_equatorial_s", "hull.optimize_equatorial"),
)

# Calls per rep, as (metric, span name).
_CALLS = (
    ("hierarchy.gate_exponents.calls", "hierarchy.gate_exponents"),
    ("weylheis.clifford_unitary.calls", "weylheis.clifford_unitary"),
    ("kernel.hermitian_eig.calls", "kernel.hermitian_eig"),
    ("geometry.choi_of_unitary.calls", "geometry.choi_of_unitary"),
    ("hull.cliff_polytope.calls", "hull.cliff_polytope"),
    ("hull.lp_membership.calls", "hull.lp_membership"),
)

# Every metric ``layer_metrics`` returns, with its unit.
METRICS = {
    **{m: "s" for m, _ in _BUSY},
    **{m: "count" for m, _ in _CALLS},
    "cli.self_s": "s",
    "geometry.edges_scanned": "count",
    "hull.system_bytes": "bytes",
    "hull.lp_membership_s": "s",
    "hull.lp.pivots": "count",
    "hull.lp.ms_per_pivot": "ms",
    "hull.threshold.lp_calls": "count",
}

def public_functions(package) -> dict:
    """Map code object -> span name for every public function and method
    defined in the six modules (lru_cache wrappers unwrapped)."""
    names = {}
    for short in MODULES:
        mod = getattr(package, short)
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, fn in vars(obj).items():
                    fn = getattr(fn, "__func__", fn)
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        names[fn.__code__] = f"{short}.{obj.__name__}.{meth}"
                continue
            fn = inspect.unwrap(obj) if callable(obj) else obj
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                names[fn.__code__] = f"{short}.{attr}"
    return names


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "extra")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.extra = None


class Tracer:
    """Records spans while installed; ``rep()`` brackets one rep."""

    def __init__(self, package):
        self._names = public_functions(package)
        self._main = threading.main_thread().ident
        self._stacks: dict[int, list] = {}
        self.spans: list[Span] = []
        self.reps: list[tuple[int, int]] = []   # [first, last) span index

    def _hook(self, frame, event, arg):
        if event == "call":
            name = self._names.get(frame.f_code)
            if name is None:
                return
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main_stack = self._stacks.get(self._main)
                parent = main_stack[-1] if tid != self._main and main_stack else None
            span = Span(name, time.perf_counter(), parent, tid)
            stack.append(span)
            self.spans.append(span)
        elif event == "return":
            if frame.f_code not in self._names:
                return
            span = self._stacks[threading.get_ident()].pop()
            span.end = time.perf_counter()
            get = _EXTRACT.get(span.name)
            if get is not None and arg is not None:
                span.extra = get(arg)

    def rep(self, fn, *args):
        """Run ``fn(*args)`` traced; returns its result."""
        first = len(self.spans)
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        try:
            return fn(*args)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            self.reps.append((first, len(self.spans)))

    def dump(self) -> list:
        """Spans as plain lists: name, start, end, parent index, thread, extra."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = self.spans[0].start if self.spans else 0.0
        return [[s.name, s.start - t0, s.end - t0,
                 index.get(id(s.parent)), s.thread, s.extra]
                for s in self.spans]

    def layer_metrics(self) -> dict:
        """Per-layer metrics: busy times and counts are means per traced
        rep, ``hull.lp_membership_s`` is the median over all calls."""
        per_rep = [_rep_metrics(self.spans[a:b]) for a, b in self.reps]
        out = {m: statistics.fmean(r[m] for r in per_rep) for m in per_rep[0]}
        lp = [s.end - s.start for s in self.spans if s.name == "hull.lp_membership"]
        out["hull.lp_membership_s"] = statistics.median(lp) if lp else 0.0
        return out


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _descendants(span, children):
    todo = list(children.get(id(span), ()))
    while todo:
        c = todo.pop()
        yield c
        todo.extend(children.get(id(c), ()))


def _layer_self(span, children) -> float:
    """Duration of ``span`` not covered by descendants from other modules."""
    layer = span.name.split(".", 1)[0]
    covered, todo = [], list(children.get(id(span), ()))
    while todo:
        c = todo.pop()
        if c.name.split(".", 1)[0] == layer:
            todo.extend(children.get(id(c), ()))
        else:
            covered.append((max(c.start, span.start), min(c.end, span.end)))
    return (span.end - span.start) - _union_length(covered)


def _rep_metrics(spans) -> dict:
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(id(s.parent), []).append(s)

    def outermost(s):
        p = s.parent
        while p is not None:
            if p.name == s.name:
                return False
            p = p.parent
        return True

    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = {}
    for metric, name in _BUSY:
        out[metric] = sum(s.end - s.start for s in by_name.get(name, ()) if outermost(s))
    for metric, name in _CALLS:
        out[metric] = len(by_name.get(name, ()))
    out["cli.self_s"] = sum(_layer_self(s, children) for s in by_name.get("cli.main", ()))
    out["geometry.edges_scanned"] = sum(s.extra or 0 for s in by_name.get("geometry.edge_scan", ()))
    out["hull.system_bytes"] = max((s.extra or 0 for s in by_name.get("hull.PolytopeSpec.system", ())),
                                   default=0)
    lp = by_name.get("hull.lp_membership", ())
    pivots = sum(s.extra or 0 for s in lp)
    out["hull.lp.pivots"] = pivots
    out["hull.lp.ms_per_pivot"] = (1000.0 * sum(s.end - s.start for s in lp) / pivots
                                   if pivots else 0.0)

    thresholds = by_name.get("hull.threshold_depol_gate", ())
    out["hull.threshold.lp_calls"] = (
        statistics.median(sum(d.name == "hull.lp_membership" for d in _descendants(s, children))
                          for s in thresholds)
        if thresholds else 0)
    return out
