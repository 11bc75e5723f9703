"""Per-layer spans and counters, recorded from outside the solver.

``Tracer.install`` replaces the public entry points of each layer with
wrappers that record a span (name, start, end, parent) per call, and
``uninstall`` puts the originals back, so untraced solves in the same
process run the unmodified code.  ``dimsolve`` itself is never edited.

Spans live in flat arrays while a solve runs; ``summary`` turns them into
per-layer metrics.  Self time is a span's duration minus the durations of
its direct children; the self time of every ``polyhedra`` operation is also
charged to the nearest enclosing layer span.  The ``terms`` functions are
only counted: they run millions of times, and a span each would cost more
than the work it measures.
"""

from __future__ import annotations

from array import array
from time import perf_counter

import dimsolve.driver as driver
import dimsolve.linear_solver as linear_solver
import dimsolve.models as models
import dimsolve.polyhedra as polyhedra
from dimsolve.polyhedra import Polyhedron
from dimsolve.terms import Constraint

LAYERS = ("driver", "parser", "kdim", "linearize", "fixpoint", "inductive")
POLY_OPS = ("sat", "entails", "project", "hull", "widen", "simplify")

# (module or class, attribute, span name)
_SPANNED = (
    (driver, "kdim", "kdim"),
    (driver, "linearize", "linearize"),
    (driver, "solve_linear", "fixpoint"),
    (driver, "inductive", "inductive"),
    (linear_solver, "step", "fixpoint.step"),
    (linear_solver, "satisfies_program", "fixpoint.gate"),
    (models, "satisfies_clause", "clause_check"),
    *((Polyhedron, op, f"polyhedra.{op}") for op in POLY_OPS),
)
_COUNTED = (
    (Constraint, "make", "terms.make.calls"),
    (polyhedra, "linear_combination", "terms.linear_combination.calls"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._originals: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.inductive_models: list = []

    # -- spans -------------------------------------------------------------

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; the core of every wrapper."""
        idx = len(self.name)
        self.name.append(self._code(name))
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        began = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            self.start[idx] = began
            self._stack.pop()

    def _count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- installing wrappers -------------------------------------------------

    def install(self):
        if self._originals:
            return
        for owner, attr, name in _SPANNED:
            self._patch(owner, attr, self._spanning(owner, attr, name))
        for owner, attr, key in _COUNTED:
            self._patch(owner, attr, self._counting(owner, attr, key))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _patch(self, owner, attr, wrapper):
        original = owner.__dict__[attr]
        self._originals.append((owner, attr, original))
        if isinstance(original, staticmethod):
            wrapper = staticmethod(wrapper)
        setattr(owner, attr, wrapper)

    def _spanning(self, owner, attr, name):
        fn = getattr(owner, attr)
        span, count = self.span, self._count
        if attr == "sat":
            def wrapper(poly):
                count("polyhedra.sat.memo", poly._sat is not None)
                count("polyhedra.rows_in", len(poly.constraints))
                return span(name, fn, poly)
        elif attr == "project":
            def wrapper(poly, keep):
                count("polyhedra.rows_in", len(poly.constraints))
                return span(name, fn, poly, keep)
        elif attr in ("kdim", "linearize"):
            def wrapper(*args, **kwargs):
                out = span(name, fn, *args, **kwargs)
                count(f"{name}.clauses_out", len(out.clauses))
                return out
        elif attr == "solve_linear":
            def wrapper(*args, **kwargs):
                verdict = span(name, fn, *args, **kwargs)
                count("fixpoint.solved", verdict.solved)
                return verdict
        elif attr == "inductive":
            def wrapper(m, *args, **kwargs):
                self.inductive_models.append(m)
                return span(name, fn, m, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return span(name, fn, *args, **kwargs)
        return wrapper

    def _counting(self, owner, attr, key):
        fn = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # -- results -------------------------------------------------------------

    def spans(self) -> list[tuple[str, float, float, int]]:
        return [(self.names[n], s, e, p) for n, s, e, p in
                zip(self.name, self.start, self.end, self.parent)]

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since ``reset``.  Call with
        the wrappers uninstalled: the subsumption count uses the engine."""
        n = len(self.name)
        names = [self.names[c] for c in self.name]
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        layer = [""] * n
        m: dict[str, float] = {}

        def add(key, value):
            m[key] = m.get(key, 0.0) + value

        for i in range(n):
            name, p = names[i], self.parent[i]
            layer[i] = name if name in LAYERS else (layer[p] if p >= 0 else "")
            self_s = dur[i] - child[i]
            if name in LAYERS:
                add(f"{name}.s", dur[i])
                add(f"{name}.calls", 1)
                add(f"{name}.self_s", self_s)
            elif name.startswith("polyhedra."):
                add(f"{name}.calls", 1)
                add(f"{name}.self_s", self_s)
                add(f"{layer[i]}.polyhedra_s", self_s)
            elif name == "fixpoint.step":
                add("fixpoint.rounds", 1)
            elif name == "fixpoint.gate":
                add("fixpoint.gate_s", dur[i])
            elif name == "clause_check" and layer[i] == "inductive":
                add("inductive.clause_checks", 1)
        for key, value in self.counts.items():
            add(key, value)
        facts = subsumed = 0
        for model in self.inductive_models:
            f, s = _subsumption(model)
            facts, subsumed = facts + f, subsumed + s
        m["inductive.facts"] = facts
        m["inductive.subsumed_facts"] = subsumed
        return m


def _subsumption(model) -> tuple[int, int]:
    """Facts of the index-erased model, and how many of them are entailed by
    another fact of the same predicate (the work a subsumption-reduced
    inductiveness check would skip)."""
    total = subsumed = 0
    for facts in model.erase_indices().facts.values():
        total += len(facts)
        for i, f in enumerate(facts):
            if any(j != i and f.constraint.entails(g.constraint)
                   and (j < i or not g.constraint.entails(f.constraint))
                   for j, g in enumerate(facts)):
                subsumed += 1
    return total, subsumed
