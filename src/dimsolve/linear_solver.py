"""Convex fixpoint engine for Horn clause programs.

Computes one convex polyhedron per predicate as an over-approximation of the
least model, by synchronous Kleene rounds that widen a predicate once it
has grown more than ``_WIDEN_DELAY`` (one) times.  The program need not be
linear: ``head_image`` conjoins the polyhedra of any number of body atoms.
The approximation counts as a solution when every ``false`` variant stays
empty; if a false variant becomes feasible the engine always tries a
bounded descending (narrowing) phase to recover precision, and reports
NotSolved if that fails.  Narrowing is deliberately *not* run when the
false variants are already empty: the extrapolated interpretations are
what later iterations of the outer algorithm need.

A round skips a contribution that the predicate's polyhedron already holds
and otherwise takes the hull.  The hull holds the contribution, so it is
inside the old polyhedron only when the contribution is: one ``entails``
test before the hull decides whether the predicate grows.

No stored interpretation is empty, so no round tests one for emptiness:
``head_image`` gives None for an unsatisfiable body, and hulls and widenings
of nonempty polyhedra are nonempty.  So a ``false`` variant is feasible
exactly when it has an interpretation; were an empty one stored, the engine
would err toward NotSolved, never toward a wrong Solved.

Every Solved model is re-verified against the input clauses before being
returned; a gate failure downgrades the verdict to NotSolved.  A solve runs
inside ``polyhedra.memo()``, reusing the caller's table and deadline when
there is one.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .models import ConstrainedFact, Model, head_image, satisfies_program
from .polyhedra import Polyhedron, ResourceExhausted, memo
from .syntax import FALSE_NAME, PredRef, Program, canonical_params

_WIDEN_DELAY = 1  # growth steps a predicate takes before it is widened


@dataclass
class AbstractState:
    interp: dict[PredRef, Polyhedron] = field(default_factory=dict)
    changes: dict[PredRef, int] = field(default_factory=dict)


@dataclass
class LinearVerdict:
    model: Model | None
    reason: str = ""

    @property
    def solved(self) -> bool:
        return self.model is not None


class NoFixpoint(ResourceExhausted):
    """The Kleene iteration did not stabilize within its round cap."""
    reason = "no-fixpoint"


def _contributions(p: Program, s: AbstractState) -> dict[PredRef, Polyhedron]:
    """One synchronous evaluation of all clauses against the current state."""
    new: dict[PredRef, Polyhedron] = {}
    for c in p.clauses:
        interps = [s.interp.get(atom.pred) for atom in c.body]
        if any(i is None for i in interps):
            continue
        poly = head_image(c, zip(c.body, interps))
        if poly is None:
            continue
        old = new.get(c.head.pred)
        new[c.head.pred] = poly if old is None else old.hull(poly)
    return new


def step(p: Program, s: AbstractState) -> AbstractState:
    """One Kleene round: join new contributions into the state, widening any
    predicate that has already grown more than ``_WIDEN_DELAY`` times."""
    contrib = _contributions(p, s)
    out = AbstractState(dict(s.interp), dict(s.changes))
    for pred, poly in contrib.items():
        old = out.interp.get(pred)
        if old is None:
            out.interp[pred] = poly
            out.changes[pred] = 1
            continue
        if poly.entails(old):
            continue  # old already covers the new contributions
        grown = old.hull(poly)
        count = out.changes.get(pred, 0) + 1
        out.changes[pred] = count
        out.interp[pred] = old.widen(grown) if count > _WIDEN_DELAY else grown
    return out


def stabilized(s1: AbstractState, s2: AbstractState) -> bool:
    if set(s1.interp) != set(s2.interp):
        return False
    return all(s1.interp[q].entails(s2.interp[q]) and s2.interp[q].entails(s1.interp[q])
               for q in s1.interp)


def _false_feasible(s: AbstractState) -> bool:
    return any(pred.base == FALSE_NAME for pred in s.interp)


def _to_model(s: AbstractState) -> Model:
    m = Model()
    for pred, poly in s.interp.items():
        if pred.base == FALSE_NAME:
            continue
        m.add(ConstrainedFact(pred, canonical_params(len(poly.dims)), poly))
    return m


def solve_linear(p: Program, trace=None) -> LinearVerdict:
    npreds = max(len(p.signatures), 1)
    total_constraints = sum(len(c.constraint) for c in p.clauses)
    max_rounds = 10 * (_WIDEN_DELAY + total_constraints + 8) + 10 * npreds
    with memo():
        state = AbstractState()
        rounds = 0
        while True:
            nxt = step(p, state)
            rounds += 1
            if stabilized(state, nxt):
                break
            state = nxt
            if rounds > max_rounds:
                raise NoFixpoint("fixpoint iteration failed to stabilize")
        if trace:
            trace(f"fixpoint after {rounds} rounds")
        if _false_feasible(state):
            for i in range(npreds + 2):
                refined = AbstractState(_contributions(p, state), dict(state.changes))
                if stabilized(state, refined):
                    break
                state = refined
            if trace:
                trace(f"narrowing ran {i + 1} descending rounds")
        if _false_feasible(state):
            return LinearVerdict(None, "false variant reachable in the abstraction")
        model = _to_model(state)
        if not satisfies_program(model, p):
            print("warning: fixpoint model failed the clause re-check; "
                  "reporting NotSolved", file=sys.stderr)
            return LinearVerdict(None, "soundness gate failed")
        return LinearVerdict(model)
