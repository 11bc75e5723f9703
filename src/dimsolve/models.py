"""Models as finite disjunctions of constrained facts.

A model maps each predicate to a list of constrained facts (a disjunction).
A fact is one ``Polyhedron`` over the canonical parameters ``A, B, ...``:
argument i of the predicate is the polyhedron's i-th dimension.
Predicates absent from the map denote the empty interpretation, and the
reserved ``false`` is always interpreted as empty.  Clause satisfaction is
decided exactly over the rationals: for every choice of one disjunct per body
atom, the body's image in the head arguments must be covered by the
disjunction of head facts, checked by region subtraction
(``polyhedra._covered``).  Head facts constrain only the head arguments, so
covering the projected body is the same as covering the body itself.

The inductiveness check (``violations``) first reduces the index-erased
model to its maximal facts, dropping each fact entailed by another fact of
the same predicate.  That is exact: the union of head facts is unchanged,
and a body combination using a dropped fact has its head image inside the
image of the same combination using the fact that entails it.

A clause image is the clause constraint with each chosen fact's rows
renamed onto the atom's arguments, projected on rows
(``polyhedra._project``).  ``linearize`` emits those rows, and
``head_image`` builds one polyhedron, the image it keeps.  Inside a
``polyhedra.memo()`` block, ``head_image`` stores each image, None
included, in the table that also reuses each distinct ``sat``, ``hull``,
``simplify`` and ``_covered`` call; ``_project`` stores nothing itself.
An image is a pure function of what ``Clause.__eq__`` compares and of the
chosen ``(atom, polyhedron)`` pairs, so the fixpoint rounds, the soundness
gate and ``violations`` of one solve compute each distinct image once.
"""

from __future__ import annotations

from itertools import product

from .polyhedra import Polyhedron, _covered, _memoized, _project, _rename_rows
from .syntax import (Atom, Clause, FALSE, PredRef, Program, canonical_params,
                     render_atom)


class Model:
    """Finite disjunctions of constrained facts per predicate; each fact is
    a ``Polyhedron`` whose dims are ``canonical_params`` of its arity."""

    def __init__(self):
        self.facts: dict[PredRef, list[Polyhedron]] = {}

    def add(self, pred: PredRef, poly: Polyhedron):
        """Add the fact of ``pred`` whose argument i is ``poly.dims[i]``,
        renamed onto the canonical parameters and simplified; an empty or
        already known fact is dropped."""
        params = canonical_params(len(poly.dims))
        poly = poly.rename({d: a.name for d, a in zip(poly.dims, params)}).simplify()
        if poly.is_empty():
            return
        known = self.facts.setdefault(pred, [])
        if poly not in known:
            known.append(poly)

    def facts_for(self, pred: PredRef) -> list[Polyhedron]:
        if pred == FALSE:
            return []  # false is always interpreted as empty
        return self.facts.get(pred, [])

    def erase_indices(self) -> "Model":
        m = Model()
        for pred, polys in self.facts.items():
            for poly in polys:
                m.add(pred.erase(), poly)
        return m

    def render(self) -> str:
        keyed = []
        for p, polys in self.facts.items():
            for poly in polys:
                atom = render_atom(Atom(p, canonical_params(len(poly.dims))))
                body = ",".join(repr(c) for c in poly.constraints)
                keyed.append((p.base, p.d if p.d is not None else -1, p.kind or "",
                              f"{atom} :- [{body}]."))
        return "".join(key[-1] + "\n" for key in sorted(keyed))

    def __eq__(self, other):
        return isinstance(other, Model) and {
            p: set(fs) for p, fs in self.facts.items()} == {
            p: set(fs) for p, fs in other.facts.items()}

    def __repr__(self):
        return self.render()

    @staticmethod
    def parse(text: str) -> "Model":
        from .parser import parse_model_facts
        m = Model()
        for atom, constraints in parse_model_facts(text):
            m.add(atom.pred, Polyhedron(tuple(v.name for v in atom.args), constraints))
        return m


def _image(clause: Clause, chosen, keep: tuple) -> tuple | None:
    """The clause constraint and the rows of each ``(atom, polyhedron)`` of
    ``chosen``, renamed from its dims onto the atom's arguments, projected
    onto ``keep`` (``polyhedra._project``); None when unsatisfiable."""
    rows = list(clause.constraint)
    for atom, poly in chosen:
        if len(poly.dims) != len(atom.args):
            raise ValueError(f"arity mismatch for {atom.pred!r}")
        mapping = dict(zip(poly.dims, (v.name for v in atom.args)))
        rows.extend(c.rename(mapping) for c in poly.constraints)
    return _project(rows, keep)


def head_image(clause: Clause, chosen) -> Polyhedron | None:
    """The clause body projected onto the head arguments and renamed to
    ``canonical_params``; None when the body is unsatisfiable.  Memoized
    (module docstring)."""
    chosen = tuple(chosen)
    return _memoized(("image", clause, chosen), lambda: _head_image(clause, chosen))


def _head_image(clause: Clause, chosen) -> Polyhedron | None:
    head_vars = tuple(v.name for v in clause.head.args)
    rows = _image(clause, chosen, head_vars)
    if rows is None:
        return None
    mapping = {v: p.name for v, p in zip(head_vars, canonical_params(len(head_vars)))}
    # head variables are distinct, so the renaming is injective
    return Polyhedron._trusted(tuple(mapping.values()), _rename_rows(rows, mapping), True)


def satisfies_clause(m: Model, clause: Clause) -> bool:
    heads = tuple(h.constraints for h in m.facts_for(clause.head.pred))
    for choice in product(*(m.facts_for(a.pred) for a in clause.body)):
        image = head_image(clause, zip(clause.body, choice))
        if image is not None and not _covered(image.constraints, heads):
            return False
    return True


def satisfies_program(m: Model, p: Program) -> bool:
    """Clause satisfaction with the model taken as-is (no index erasure)."""
    return all(satisfies_clause(m, c) for c in p.clauses)


def inductive(m: Model, p: Program) -> bool:
    """Is the index-erased model a solution of the program?"""
    return not violations(m, p)


def _maximal(m: Model) -> Model:
    """``m`` without the facts entailed by another fact of the same
    predicate; of facts that entail each other the earliest stays."""
    out = Model()
    for pred, facts in m.facts.items():
        out.facts[pred] = [
            f for i, f in enumerate(facts)
            if not any(j != i and f.entails(g) and (j < i or not g.entails(f))
                       for j, g in enumerate(facts))]
    return out


def violations(m: Model, p: Program) -> list[Clause]:
    """The clauses of ``p`` that the index-erased model does not satisfy."""
    reduced = _maximal(m.erase_indices())
    return [c for c in p.clauses if not satisfies_clause(reduced, c)]


# ---------------------------------------------------------------------------
# linearization

def linearize(p_next: Program, s: Model) -> Program:
    """Substitute the solved interpretations for every body atom below the
    top dimension level of ``p_next``; one clause per disjunct combination,
    unsatisfiable results dropped, constraints projected onto the variables
    still in use and left unsimplified (the fixpoint simplifies what it
    keeps).  The output is linear when ``p_next`` is ``kdim(p, k, k)``, the
    clauses of the level one above the model ``s``."""
    level = max((pred.d for pred in p_next.signatures if pred.indexed), default=0)
    out: list[Clause] = []
    for c in p_next.clauses:
        keep: list[Atom] = []
        substitute: list[Atom] = []
        for a in c.body:
            if a.pred.indexed and a.pred.d < level:
                substitute.append(a)
            else:
                keep.append(a)
        used = tuple(dict.fromkeys(v.name for a in (c.head, *keep) for v in a.args))
        for choice in product(*(s.facts_for(a.pred) for a in substitute)):
            rows = _image(c, zip(substitute, choice), used)
            if rows is not None:
                out.append(Clause(0, c.head, rows, tuple(keep), provenance=c.provenance))
    return Program.from_clauses(out)
