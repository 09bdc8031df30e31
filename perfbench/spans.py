"""Span recorder that wraps monadlab's public entry points from the outside.

Nothing in the library is edited.  :func:`patch` replaces the named functions
in every ``monadlab`` module namespace that holds them (so names rebound by
``from ... import`` in ``gens``, ``invariant`` and ``cli`` are caught too) and
the ``ExactMatrix`` methods ``det``, ``rank`` and ``__matmul__``.  Each call
becomes one span: name, start, end, parent span and the item that caused it.
Spans stay in memory; :func:`layer_totals` turns them into per-layer calls,
self time and work counts after the run.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "monadlab"

# (module, function); the span name is module.function
MODULE_FUNCTIONS = [
    ("exact", "format_matrix"),
    ("symcomb", "q_layout"),
    ("symcomb", "layout_table"),
    ("monad", "max_rank_probe"),
    ("monad", "quadratic_defect"),
    ("monad", "parse_monad"),
    ("monad", "format_monad"),
    ("invariant", "build_q"),
    ("invariant", "det_q"),
    ("invariant", "build_syzygy"),
    ("invariant", "verify_syzygy"),
    ("invariant", "orthogonal_verdict"),
    ("gens", "gen_isotropic_orthogonal"),
    ("gens", "gen_special_symplectic"),
    ("gens", "search_orthogonal"),
    ("cli", "run"),
]

# ExactMatrix methods; the span name gets the field, as in exact.det.gf
MATRIX_METHODS = [("det", "exact.det"), ("rank", "exact.rank"), ("__matmul__", "exact.matmul")]


def _det_ops(m) -> float:
    """Computed operation count of dense elimination on an n x n matrix."""
    return m.rows ** 3 / 3


# work counted per span, from the call's arguments or its result
QUANTITY = {
    "exact.format_matrix": lambda args, result: len(result),
    "monad.max_rank_probe": lambda args, result: result.points_tested,
    "exact.det.gf": lambda args, result: _det_ops(args[0]),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    item: object
    qty: float = 0.0


@dataclass
class Tracer:
    """Collects spans; ``item`` is set by the runner before each item."""

    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    item: object = None
    _stack: list = field(default_factory=list)

    def call(self, name: str, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self.clock(), 0.0, parent, self.item)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._stack.pop()
        qty = QUANTITY.get(name)
        if qty is not None:
            span.qty = qty(args, result)
        return result


def _wrap_function(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return wrapper


def _wrap_method(tracer: Tracer, prefix: str, fn):
    gf, qq = prefix + ".gf", prefix + ".qq"

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        name = gf if self.field.is_prime_field else qq
        return tracer.call(name, fn, (self,) + args, kwargs)
    return wrapper


def patch(tracer: Tracer):
    """Install the wrappers; returns a function that removes them again."""
    modules = {name: mod for name, mod in sys.modules.items()
               if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
    undo = []
    for short, fname in MODULE_FUNCTIONS:
        original = getattr(modules[f"{PACKAGE}.{short}"], fname)
        wrapper = _wrap_function(tracer, f"{short}.{fname}", original)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))
    matrix = modules[f"{PACKAGE}.exact"].ExactMatrix
    for method, prefix in MATRIX_METHODS:
        original = matrix.__dict__[method]
        setattr(matrix, method, _wrap_method(tracer, prefix, original))
        undo.append((matrix, method, original))

    def unpatch():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return unpatch


def _covered(intervals: list) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list) -> list:
    """Per span: its duration minus the time its child spans cover."""
    children: dict = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.end - s.start - _covered(children.get(i, [])) for i, s in enumerate(spans)]


def layer_totals(spans: list, key=lambda span: span.name) -> dict:
    """Aggregate spans by ``key``: calls, self_s, incl_s and qty.

    ``incl_s`` counts only the outermost span of each name, so a name that
    nests inside itself is not counted twice.
    """
    selfs = self_times(spans)
    out: dict = {}
    for i, s in enumerate(spans):
        row = out.setdefault(key(s), {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "qty": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        row["qty"] += s.qty
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            row["incl_s"] += s.end - s.start
    return out
