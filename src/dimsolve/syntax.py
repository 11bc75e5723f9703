"""Abstract syntax for constrained Horn clause programs in CLP form.

A clause is ``head :- constraints, body_atoms`` where atom arguments are
distinct variables (the normalizer introduces fresh variables plus equality
constraints for integer literals and repeated variables).  ``false`` is the
reserved nullary head of integrity constraints; its dimension-indexed copies
produced by the bounding transformation behave like ordinary predicates.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .terms import EQ, Constraint, Var, render_constraint

EXACT = "exact"    # printed name(d)
ATMOST = "atmost"  # printed name[d]

FALSE_NAME = "false"


class PredRef(NamedTuple):
    base: str
    kind: str | None = None
    d: int | None = None

    @property
    def indexed(self) -> bool:
        return self.kind is not None

    def with_index(self, kind: str, d: int) -> "PredRef":
        return PredRef(self.base, kind, d)

    def erase(self) -> "PredRef":
        return PredRef(self.base)

    def __repr__(self):
        if self.kind == EXACT:
            return f"{self.base}({self.d})"
        if self.kind == ATMOST:
            return f"{self.base}[{self.d}]"
        return self.base


FALSE = PredRef(FALSE_NAME)


class Atom(NamedTuple):
    pred: PredRef
    args: tuple[Var, ...] = ()

    def __repr__(self):
        return render_atom(self)


def _ne(self, other):
    return not self == other


class Clause(NamedTuple):
    """Equality and hashing ignore ``id`` and ``provenance``."""

    id: int
    head: Atom
    constraint: tuple[Constraint, ...]
    body: tuple[Atom, ...]
    # transformation bookkeeping: ("rule1"|"rule2a"|"rule2b"|"eps", source id,
    # d), then for rule 2a the index j of the child kept at d, for rule 2b
    # the pair (i, j) of tied children, and for eps the exact index e
    provenance: tuple | None = None

    def __eq__(self, other):
        if other.__class__ is not Clause:
            return NotImplemented
        return self[1:4] == other[1:4]

    __ne__ = _ne

    def __hash__(self):
        return hash(self[1:4])

    @property
    def is_integrity(self) -> bool:
        return self.head.pred == FALSE

    def vars(self) -> list[str]:
        seen: dict[str, None] = {}
        for a in (self.head, *self.body):
            for v in a.args:
                seen.setdefault(v.name)
        for c in self.constraint:
            for v in c.vars():
                seen.setdefault(v)
        return list(seen)

    def __repr__(self):
        return render_clause(self)


class Program(NamedTuple):
    """Equality and hashing ignore ``signatures``."""

    clauses: tuple[Clause, ...]
    signatures: dict[PredRef, int]

    def __eq__(self, other):
        if other.__class__ is not Program:
            return NotImplemented
        return self.clauses == other.clauses

    __ne__ = _ne

    def __hash__(self):
        return hash((self.clauses,))

    @staticmethod
    def from_clauses(clauses) -> "Program":
        clauses = tuple(c._replace(id=i + 1) for i, c in enumerate(clauses))
        sigs: dict[PredRef, int] = {}
        for c in clauses:
            for a in (c.head, *c.body):
                old = sigs.setdefault(a.pred, len(a.args))
                if old != len(a.args):
                    raise ArityError(
                        f"predicate {a.pred!r} used with arity {len(a.args)} and {old}")
        return Program(clauses, sigs)

    def __repr__(self):
        return render_program(self)


class ArityError(ValueError):
    pass


def is_linear(p: Program) -> bool:
    """A program is linear when no clause has more than one body atom."""
    return all(len(c.body) <= 1 for c in p.clauses)


_LETTERS = [chr(c) for c in range(ord("A"), ord("Z") + 1)]


def canonical_params(n: int) -> tuple[Var, ...]:
    """Canonical parameter tuple A, B, C, ... used for facts and fresh heads."""
    names = _LETTERS[:n] if n <= len(_LETTERS) else _LETTERS + [f"V{i}" for i in range(1, n - len(_LETTERS) + 1)]
    return tuple(Var(x) for x in names[:n])


def fresh_names(used: set[str]):
    for name in _LETTERS:
        if name not in used:
            used.add(name)
            yield name
    for i in itertools.count(1):
        name = f"V{i}"
        if name not in used:
            used.add(name)
            yield name


def normalize_clause(head_pred, head_args, constraints, body) -> Clause:
    """Enforce distinct-variable atoms; args may be Var or int literals.  The
    clause id is left 0 for ``Program.from_clauses`` to number."""
    used = {v for c in constraints for v in c.vars()}
    used.update(a.name for args in (head_args, *(b.args for b in body))
                for a in args if isinstance(a, Var))
    fresh = fresh_names(used)
    extra: list[Constraint] = []

    def fix(pred, args):
        seen: set[str] = set()
        out = []
        for a in args:
            if isinstance(a, int):
                v = next(fresh)
                extra.append(Constraint.make({v: 1}, -a, EQ))
                out.append(Var(v))
            elif a.name in seen:
                v = next(fresh)
                extra.append(Constraint.make({v: 1, a.name: -1}, 0, EQ))
                out.append(Var(v))
            else:
                seen.add(a.name)
                out.append(a)
        return Atom(pred, tuple(out))

    head = fix(head_pred, head_args)
    atoms = [fix(a.pred, a.args) for a in body]
    return Clause(0, head, tuple(constraints) + tuple(extra), tuple(atoms))


# ---------------------------------------------------------------------------
# printing

def render_atom(a: Atom) -> str:
    if not a.args:
        if a.pred.indexed and a.pred.base != FALSE_NAME:
            return f"{a.pred!r}()"  # disambiguates from a unary plain atom
        return repr(a.pred)
    return f"{a.pred!r}({', '.join(v.name for v in a.args)})"


def render_clause(c: Clause) -> str:
    items = [render_constraint(x) for x in c.constraint] + [render_atom(a) for a in c.body]
    if not items:
        return f"{render_atom(c.head)}."
    return f"{render_atom(c.head)} :- {', '.join(items)}."


def render_program(p: Program) -> str:
    return "".join(render_clause(c) + "\n" for c in p.clauses)
