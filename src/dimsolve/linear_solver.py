"""Convex fixpoint engine for Horn clause programs.

Computes one convex polyhedron per predicate as an over-approximation of the
least model, by synchronous Kleene rounds.  A predicate's first
contribution is taken as it is; every later growth is widened.  The program
need not be linear: ``head_image`` conjoins the polyhedra of any number of
body atoms.
The approximation counts as a solution when every ``false`` variant stays
empty; if a false variant becomes feasible the engine always tries a
bounded descending (narrowing) phase to recover precision, and reports
NotSolved if that fails.  Narrowing is deliberately *not* run when the
false variants are already empty: the extrapolated interpretations are
what later iterations of the outer algorithm need.

A round collects each predicate's clause images and builds their hull
chain only when the predicate grows.  A polyhedron that holds each image
holds their union, so one ``entails`` test per image against the old
polyhedron decides growth with no hull, also for a strict row (which only
a program built through the API gives) that the hull would close.  A round
in which no predicate grows returns its input state, and that ends the
ascent.  The descending rounds (``_contributions``) build every
predicate's hull chain; they start from that post-fixpoint and, the
contributions being monotone, only shrink; they end at the first round
that shrinks nothing.

A hull chain lists the images of body-free clauses first (``linearize``
makes many): they never change within a solve, so the chain's prefix over
them is a hit in the solve's table from the first round on, in ``step`` and
``_contributions`` alike, and only the hulls after it are computed again.
That keeps every row of the result because a hull chain's rows do not
depend on the order of its operands.  ``entails`` asks
``polyhedra._covered``, which is memoized in the same table: the growth
tests and the narrowing stop test ask the same pairs again round after
round.

No stored interpretation is empty, so no round tests one for emptiness:
``head_image`` gives None for an unsatisfiable body, and hulls and
widenings of nonempty polyhedra are nonempty, and start with ``sat`` known
true.  So a ``false`` variant is feasible exactly when it has an
interpretation; were an empty one stored, the engine would err toward
NotSolved, never toward a wrong Solved.

Every Solved model is re-verified against the input clauses before being
returned; a gate failure downgrades the verdict to NotSolved with the
reason ``soundness gate failed``.  A solve runs
inside ``polyhedra.memo()``, reusing the caller's table and deadline when
there is one.
"""

from __future__ import annotations

from typing import NamedTuple

from .models import Model, head_image, satisfies_program
from .polyhedra import Polyhedron, ResourceExhausted, memo
from .syntax import FALSE_NAME, PredRef, Program


class LinearVerdict(NamedTuple):
    model: Model | None
    reason: str = ""
    rounds: int = 0  # ascending rounds, the last one growing nothing
    narrowing: int = 0  # descending rounds; 0 when none ran

    @property
    def solved(self) -> bool:
        return self.model is not None


class NoFixpoint(ResourceExhausted):
    """The Kleene iteration did not stabilize within its round cap."""
    reason = "no-fixpoint"


def _images(p: Program,
            s: dict[PredRef, Polyhedron]) -> dict[PredRef, list[Polyhedron]]:
    """Each head's nonempty clause images under the current state: those of
    body-free clauses first, then the rest, each group in clause order."""
    groups: dict[PredRef, tuple[list[Polyhedron], list[Polyhedron]]] = {}
    for c in p.clauses:
        interps = [s.get(atom.pred) for atom in c.body]
        if any(i is None for i in interps):
            continue
        poly = head_image(c, zip(c.body, interps))
        if poly is not None:
            groups.setdefault(c.head.pred, ([], []))[bool(c.body)].append(poly)
    return {pred: free + rest for pred, (free, rest) in groups.items()}


def _join(polys: list[Polyhedron]) -> Polyhedron:
    """The hull chain of ``polys``, left to right."""
    out = polys[0]
    for poly in polys[1:]:
        out = out.hull(poly)
    return out


def _contributions(p: Program,
                   s: dict[PredRef, Polyhedron]) -> dict[PredRef, Polyhedron]:
    """One synchronous evaluation of all clauses against the current state."""
    return {pred: _join(polys) for pred, polys in _images(p, s).items()}


def step(p: Program, s: dict[PredRef, Polyhedron]) -> dict[PredRef, Polyhedron]:
    """One Kleene round: take a predicate's first contribution as it is and
    widen every later growth.  Returns ``s`` itself when nothing grows."""
    grown: dict[PredRef, Polyhedron] = {}
    for pred, polys in _images(p, s).items():
        old = s.get(pred)
        if old is None:
            grown[pred] = _join(polys)
            continue
        if not all(poly.entails(old) for poly in polys):
            grown[pred] = old.widen(old.hull(_join(polys)))
    return {**s, **grown} if grown else s


def _false_feasible(s: dict[PredRef, Polyhedron]) -> bool:
    return any(pred.base == FALSE_NAME for pred in s)


def solve_linear(p: Program) -> LinearVerdict:
    npreds = max(len(p.signatures), 1)
    total_constraints = sum(len(c.constraint) for c in p.clauses)
    max_rounds = 10 * (total_constraints + 9) + 10 * npreds
    with memo():
        state: dict[PredRef, Polyhedron] = {}
        for rounds in range(1, max_rounds + 2):
            nxt = step(p, state)
            if nxt is state:
                break
            state = nxt
        else:
            raise NoFixpoint("fixpoint iteration failed to stabilize")
        narrowing = 0
        if _false_feasible(state):
            for narrowing in range(1, npreds + 3):
                refined = _contributions(p, state)
                if refined.keys() == state.keys() and all(
                        state[q].entails(refined[q]) for q in state):
                    break
                state = refined
        if _false_feasible(state):
            return LinearVerdict(None, "false variant reachable in the abstraction",
                                 rounds, narrowing)
        model = Model()
        for pred, poly in state.items():
            model.add(pred, poly)
        if not satisfies_program(model, p):
            return LinearVerdict(None, "soundness gate failed", rounds, narrowing)
        return LinearVerdict(model, "", rounds, narrowing)
