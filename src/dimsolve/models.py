"""Models as finite disjunctions of constrained facts.

A model maps each predicate to a list of constrained facts (a disjunction);
predicates absent from the map denote the empty interpretation, and the
reserved ``false`` is always interpreted as empty.  Clause satisfaction is
decided exactly over the rationals: for every choice of one disjunct per body
atom, the body's image in the head arguments must be covered by the
disjunction of head facts, checked by recursive region subtraction.  Head
facts constrain only the head arguments, so covering the projected body is
the same as covering the body itself.

The inductiveness check (``violations``) first reduces the index-erased
model to its maximal facts, dropping each fact entailed by another fact of
the same predicate.  That is exact: the union of head facts is unchanged,
and a body combination using a dropped fact has its head image inside the
image of the same combination using the fact that entails it.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .polyhedra import Polyhedron, ResourceExhausted
from .syntax import (Atom, Clause, FALSE, PredRef, Program, Var,
                     canonical_params, render_atom)
from .terms import Constraint

_SPLIT_BUDGET = 10_000  # region-subtraction pieces per coverage check


class ConstrainedFact(NamedTuple):
    pred: PredRef
    params: tuple[Var, ...]
    constraint: Polyhedron  # dims are exactly the param names

    def __repr__(self):
        body = ",".join(repr(c) for c in self.constraint.constraints)
        return f"{render_atom(Atom(self.pred, self.params))} :- [{body}]."


class Model:
    """Finite disjunctions of constrained facts per predicate."""

    def __init__(self, facts=()):
        self.facts: dict[PredRef, list[ConstrainedFact]] = {}
        for f in facts:
            self.add(f)

    def add(self, fact: ConstrainedFact):
        params = canonical_params(len(fact.params))
        poly = fact.constraint.rename(
            {p.name: a.name for p, a in zip(fact.params, params)}).simplify()
        if poly.is_empty():
            return
        norm = ConstrainedFact(fact.pred, params, poly)
        known = self.facts.setdefault(fact.pred, [])
        if norm not in known:
            known.append(norm)

    def facts_for(self, pred: PredRef) -> list[ConstrainedFact]:
        if pred == FALSE:
            return []  # false is always interpreted as empty
        return self.facts.get(pred, [])

    def erase_indices(self) -> "Model":
        m = Model()
        for fs in self.facts.values():
            for f in fs:
                m.add(ConstrainedFact(f.pred.erase(), f.params, f.constraint))
        return m

    def all_facts(self) -> list[ConstrainedFact]:
        def key(f: ConstrainedFact):
            p = f.pred
            return (p.base, p.d if p.d is not None else -1, p.kind or "", repr(f))
        return sorted((f for fs in self.facts.values() for f in fs), key=key)

    def render(self) -> str:
        return "".join(repr(f) + "\n" for f in self.all_facts())

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
            params = tuple(v.name for v in atom.args)
            poly = Polyhedron(params, constraints)
            m.add(ConstrainedFact(atom.pred, atom.args, poly))
        return m


def clause_body(clause: Clause, chosen) -> Polyhedron:
    """The clause constraint conjoined with every ``(atom, polyhedron)`` pair
    of ``chosen``, each polyhedron renamed from its dims onto the atom's
    arguments, over ``clause.vars()``."""
    rows = list(clause.constraint)
    for atom, poly in chosen:
        if len(poly.dims) != len(atom.args):
            raise ValueError(f"arity mismatch for {atom.pred!r}")
        mapping = dict(zip(poly.dims, (v.name for v in atom.args)))
        rows.extend(c.rename(mapping) for c in poly.constraints)
    return Polyhedron(clause.vars(), rows)


def _image(clause: Clause, chosen, keep) -> Polyhedron | None:
    """``clause_body`` projected onto ``keep``; None when it is empty.  The
    projection is tested rather than the body: it has fewer dimensions, and
    it is empty exactly when the body is."""
    image = clause_body(clause, chosen).project(keep)
    return None if image.is_empty() else image


def head_image(clause: Clause, chosen) -> Polyhedron | None:
    """The clause body projected onto the head arguments and renamed to
    ``canonical_params``; None when the body is unsatisfiable."""
    head_vars = [v.name for v in clause.head.args]
    image = _image(clause, chosen, head_vars)
    if image is None:
        return None
    params = canonical_params(len(head_vars))
    return image.rename(dict(zip(head_vars, (v.name for v in params))))


class SplitBudgetExceeded(ResourceExhausted):
    """Region subtraction created more than ``_SPLIT_BUDGET`` pieces."""
    reason = "split-budget"


def _covered(body: Polyhedron, heads: list[Polyhedron]) -> bool:
    """True iff every rational point of ``body`` lies in some head region.

    Region subtraction: peel each head region off the body; covered iff
    nothing satisfiable remains.
    """
    regions = [body]
    created = 0
    for head in heads:
        next_regions = []
        for r in regions:
            prefix: list[Constraint] = []
            for c in head.constraints:
                if r.row_entails(c):
                    prefix.append(c)  # every piece of ``c`` would be empty
                    continue
                for neg in c.negations():
                    piece = r.conjoin(prefix + [neg])
                    created += 1
                    if created > _SPLIT_BUDGET:
                        raise SplitBudgetExceeded(
                            "region subtraction split budget exceeded")
                    if piece.sat():
                        next_regions.append(piece)
                prefix.append(c)
        regions = next_regions
        if not regions:
            return True
    return not regions


def satisfies_clause(m: Model, clause: Clause) -> bool:
    heads = [f.constraint for f in m.facts_for(clause.head.pred)]
    for choice in product(*(m.facts_for(a.pred) for a in clause.body)):
        image = head_image(clause, zip(clause.body, (f.constraint for f in choice)))
        if image is not None and not _covered(image, heads):
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
            if not any(j != i and f.constraint.entails(g.constraint)
                       and (j < i or not g.constraint.entails(f.constraint))
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
    still in use.  The output is linear when ``p_next`` is ``kdim(p, k, k)``,
    the clauses of the level one above the model ``s``."""
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
        used = list(dict.fromkeys(v.name for a in (c.head, *keep) for v in a.args))
        for choice in product(*(s.facts_for(a.pred) for a in substitute)):
            image = _image(c, zip(substitute, (f.constraint for f in choice)), used)
            if image is not None:
                out.append(Clause(0, c.head, image.simplify().constraints, tuple(keep),
                                  provenance=c.provenance))
    return Program.from_clauses(out)
