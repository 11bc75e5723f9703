"""Linear terms and atomic constraints over named integer variables.

All constraints are kept in the normal form ``sum(coeff_i * var_i) + const REL 0``
with integer coefficients reduced by their common gcd.  The core is
integer-only: combinations and substitutions take integer weights, so every
intermediate coefficient is an integer, and ``Constraint.make`` accepts
integers only (a ``Fraction`` raises ``TypeError``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

# Relations of a normalized atomic constraint.  EQ and LE are the only forms
# produced by program normalization; LT arises transiently when constraints
# are negated during entailment checks.
EQ = "="
LE = "=<"
LT = "<"


@dataclass(frozen=True)
class Var:
    """A program variable; names are uppercase-initial identifiers."""

    name: str

    def __repr__(self):
        return self.name


def _reduce(coeffs: dict[str, int], const: int):
    """Drop zero coefficients and divide by the gcd of all numbers involved."""
    ints = {v: c for v, c in coeffs.items() if c != 0}
    g = gcd(const, *ints.values())
    if g > 1:
        ints = {v: c // g for v, c in ints.items()}
        const //= g
    return ints, const


@dataclass(frozen=True)
class Constraint:
    """``terms + const REL 0`` with gcd-reduced integer coefficients.

    ``terms`` is sorted by variable name so structurally equal constraints
    compare and hash equal.
    """

    terms: tuple[tuple[str, int], ...]
    const: int
    rel: str

    @staticmethod
    def make(coeffs: dict, const, rel: str) -> "Constraint":
        ints, ic = _reduce(coeffs, const)
        if rel == EQ and ints:
            lead = min(ints)
            if ints[lead] < 0:
                ints = {v: -c for v, c in ints.items()}
                ic = -ic
        return Constraint(tuple(sorted(ints.items())), ic, rel)

    def coeffs(self) -> dict[str, int]:
        return dict(self.terms)

    def vars(self) -> set[str]:
        return {v for v, _ in self.terms}

    def is_trivial(self) -> bool:
        """Variable-free and satisfied (for example ``0 =< 1``)."""
        if self.terms:
            return False
        if self.rel == EQ:
            return self.const == 0
        if self.rel == LE:
            return self.const <= 0
        return self.const < 0

    def is_contradiction(self) -> bool:
        if self.terms:
            return False
        return not self.is_trivial()

    def negations(self) -> list["Constraint"]:
        """Constraints whose disjunction is the complement of this one."""
        neg = {v: -c for v, c in self.terms}
        if self.rel == EQ:
            return [Constraint.make(neg, -self.const, LT),
                    Constraint.make(dict(self.terms), self.const, LT)]
        if self.rel == LE:
            return [Constraint.make(neg, -self.const, LT)]
        return [Constraint.make(neg, -self.const, LE)]

    def rename(self, mapping: dict[str, str]) -> "Constraint":
        return Constraint.make({mapping.get(v, v): c for v, c in self.terms},
                               self.const, self.rel)

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
