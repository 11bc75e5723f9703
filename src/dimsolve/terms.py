"""Linear terms and atomic constraints over named integer variables.

A constraint is the row ``sum(coeff_i * var_i) + const REL 0``, held as the
tuple ``(terms, const, rel)`` in ``normal_form``: all numbers reduced by
their common gcd, and an equality's first nonzero number positive.
Fourier-Motzkin (``polyhedra._eliminate``) packs its rows as the same triple
with a dense coefficient tuple in place of ``terms``, and keeps them in the
same ``normal_form``.  The core is integer-only: combinations and
substitutions take integer weights, so every intermediate coefficient is an
integer, and ``Constraint.make`` accepts integers only (a ``Fraction``
raises ``TypeError``).

``Constraint.rename`` and ``negations`` skip the gcd: negating every number
keeps it, and so does an injective renaming, which adds no two
coefficients; a renamed equality may only need its signs flipped.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

# Relations of a normalized atomic constraint.  EQ and LE are the only forms
# produced by program normalization; LT arises transiently when constraints
# are negated, in entailment checks and in coverage's region pieces.
EQ = "="
LE = "=<"
LT = "<"


class Var(NamedTuple):
    """A program variable; names are uppercase-initial identifiers."""

    name: str

    def __repr__(self):
        return self.name


def normal_form(cs, const: int, rel: str):
    """``(tuple(cs), const, rel)`` in normal form, for the integer
    coefficients ``cs`` of a row listed in name order: every number divided
    by the gcd of all of them, and for ``=`` the first nonzero number
    positive (the constant, when every coefficient is zero)."""
    g = gcd(const, *cs)
    if g > 1:
        cs = [c // g for c in cs]
        const //= g
    if rel == EQ:
        for lead in cs:
            if lead:
                break
        else:
            lead = const
        if lead < 0:
            cs = [-c for c in cs]
            const = -const
    return tuple(cs), const, rel


class Constraint(NamedTuple):
    """``terms + const REL 0`` in ``normal_form``, with ``terms`` the
    ``(name, coefficient)`` pairs of the nonzero coefficients, sorted by
    name, so that equal constraints are equal tuples."""

    terms: tuple[tuple[str, int], ...]
    const: int
    rel: str

    @staticmethod
    def make(coeffs: dict, const, rel: str) -> "Constraint":
        names = sorted(v for v, c in coeffs.items() if c)
        cs, const, rel = normal_form([coeffs[v] for v in names], const, rel)
        return Constraint(tuple(zip(names, cs)), const, rel)

    def vars(self) -> set[str]:
        return {v for v, _ in self.terms}

    def negations(self) -> list["Constraint"]:
        """Constraints whose disjunction is the complement of this one."""
        neg = Constraint(tuple([(v, -c) for v, c in self.terms]), -self.const,
                         LE if self.rel == LT else LT)
        return [neg, Constraint(self.terms, self.const, LT)] if self.rel == EQ else [neg]

    def rename(self, mapping: dict[str, str]) -> "Constraint":
        """The row over ``mapping``'s names; ``mapping`` is injective on it."""
        terms = sorted([(mapping.get(v, v), c) for v, c in self.terms])
        if self.rel == EQ and terms and terms[0][1] < 0:
            return Constraint(tuple([(v, -c) for v, c in terms]), -self.const, EQ)
        return Constraint(tuple(terms), self.const, self.rel)

    def eval_point(self, point: dict) -> bool:
        val = self.const + sum(c * point[v] for v, c in self.terms)
        if self.rel == EQ:
            return val == 0
        if self.rel == LE:
            return val <= 0
        return val < 0

    def __repr__(self):
        return render_constraint(self)


FALSE_CONSTRAINT = Constraint((), 1, LE)  # canonical contradiction marker: 1 =< 0


def render_constraint(c: Constraint) -> str:
    """Grammar-compatible text: variables left, constant right, =< flipped to
    >= when the leading coefficient is negative."""
    terms, const, rel = dict(c.terms), c.const, c.rel
    if not terms:
        lhs, rhs = "0", -const
    else:
        lead = min(terms)
        if terms[lead] < 0:
            terms = {v: -k for v, k in terms.items()}
            const = -const
            rel = {EQ: EQ, LE: ">=", LT: ">"}[rel]
        parts = []
        for i, (v, k) in enumerate(sorted(terms.items())):
            mag = f"{abs(k)}*{v}" if abs(k) != 1 else v
            if i == 0:
                parts.append(mag if k > 0 else f"-{mag}")
            else:
                parts.append(("+" if k > 0 else "-") + mag)
        lhs, rhs = "".join(parts), -const
    rhs_s = f" {rhs}" if rhs < 0 else str(rhs)
    return f"{lhs}{rel}{rhs_s}"


def linear_combination(parts: list[tuple[int, Constraint]], rel: str) -> Constraint:
    """Integer-weighted sum of constraints.  The weight on every inequality
    must be positive, or its direction flips.  Fourier-Motzkin no longer
    calls it: ``polyhedra._eliminate`` combines packed integer rows."""
    coeffs: dict[str, int] = {}
    const = 0
    for w, c in parts:
        for v, k in c.terms:
            coeffs[v] = coeffs.get(v, 0) + w * k
        const += w * c.const
    return Constraint.make(coeffs, const, rel)
