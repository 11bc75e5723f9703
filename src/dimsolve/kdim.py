"""The at-most-k-dimension transformation.

Every predicate p of the source program is split into indexed copies p(d)
(derivations of dimension exactly d) and p[d] (dimension at most d) for
0 <= d <= k.  The output program's derivation trees are, after contracting
the bookkeeping steps introduced by rule 3, exactly the source program's
derivation trees of dimension at most k.

Rule groups, in output order:

1. A body-free clause H :- C yields H(0) :- C.  A one-atom clause
   H :- C, B yields H(d) :- C, B(d) for every 0 <= d <= k.
2. For a clause H :- C, B1..Br with r > 1 and each 1 <= d <= k:
   (a) one child keeps dimension d, the rest drop below:
       H(d) :- C, Bj(d), Bi[d-1] (i != j), for each j;
   (b) two children tie at dimension d-1 and none is higher:
       H(d) :- C, Bi(d-1), Bj(d-1), Bt[d-1] (t != i, j), for each pair
       i < j.  This is the definition of dimension read literally: a node
       with two children of dimension d-1 and none higher has dimension d.
       A tie of three or more children is derived by every pair it
       contains.  At d = 1 the pair clauses coincide: every child is at (0)
       or [0], which hold the same trees.
3. Bookkeeping clauses H[d] :- H(e) for every predicate H, 0 <= d <= k,
   0 <= e <= d.

``kdim(p, k, lowest)`` emits only the clauses with head index in lowest..k,
in the same order; the solve loop builds only the new level ``kdim(p, k, k)``.
"""

from __future__ import annotations

from itertools import combinations

from .syntax import ATMOST, EXACT, Atom, Clause, PredRef, Program, canonical_params


def _indexed(atom: Atom, kind: str, d: int) -> Atom:
    return Atom(atom.pred.with_index(kind, d), atom.args)


def _bases(p: Program) -> list[str]:
    return sorted({pred.base for pred in p.signatures})


class IndexedInput(ValueError):
    """The input program already has indexed predicates."""


def kdim(p: Program, k: int, lowest: int = 0) -> Program:
    if k < 0:
        raise ValueError("dimension bound must be nonnegative")
    if not 0 <= lowest <= k:
        raise ValueError("lowest level must lie in 0..k")
    if any(pred.indexed for pred in p.signatures):
        raise IndexedInput("input program already contains indexed predicates")

    out: list[Clause] = []
    for c in p.clauses:
        if len(c.body) == 0 and lowest == 0:
            out.append(Clause(0, _indexed(c.head, EXACT, 0), c.constraint, (),
                              provenance=("rule1", c.id, 0)))
        elif len(c.body) == 1:
            for d in range(lowest, k + 1):
                out.append(Clause(0, _indexed(c.head, EXACT, d), c.constraint,
                                  (_indexed(c.body[0], EXACT, d),),
                                  provenance=("rule1", c.id, d)))
    for c in p.clauses:
        r = len(c.body)
        if r <= 1:
            continue
        for d in range(max(lowest, 1), k + 1):
            for j in range(r):
                body = tuple(_indexed(b, EXACT, d) if i == j else _indexed(b, ATMOST, d - 1)
                             for i, b in enumerate(c.body))
                out.append(Clause(0, _indexed(c.head, EXACT, d), c.constraint, body,
                                  provenance=("rule2a", c.id, d, j)))
            for i, j in combinations(range(r), 2):
                body = tuple(_indexed(b, EXACT, d - 1) if t in (i, j)
                             else _indexed(b, ATMOST, d - 1)
                             for t, b in enumerate(c.body))
                out.append(Clause(0, _indexed(c.head, EXACT, d), c.constraint, body,
                                  provenance=("rule2b", c.id, d, (i, j))))
    for base in _bases(p):
        arity = next(n for pred, n in p.signatures.items() if pred.base == base)
        params = canonical_params(arity)
        for d in range(lowest, k + 1):
            for e in range(d + 1):
                out.append(Clause(0, Atom(PredRef(base, ATMOST, d), params), (),
                                  (Atom(PredRef(base, EXACT, e), params),),
                                  provenance=("eps", None, d, e)))
    return Program.from_clauses(out)


def clause_count(p: Program, k: int) -> int:
    """Closed-form size of kdim(p, k); cross-checked against the output."""
    total = 0
    for c in p.clauses:
        r = len(c.body)
        if r == 0:
            total += 1
        elif r == 1:
            total += k + 1
        else:
            total += k * (r + r * (r - 1) // 2)
    total += len(_bases(p)) * (k + 1) * (k + 2) // 2
    return total
