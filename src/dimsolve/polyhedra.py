"""Convex polyhedra in constraint form, with exact rational reasoning.

Projection uses Fourier-Motzkin elimination (equalities are substituted
away Gaussian-style first), and so does satisfiability of rows over three or
more variables.  Rows over at most two variables, nearly every ``sat`` a
solve asks, are decided by ``_sat_two``: one equality substitution or one
complete Fourier-Motzkin pass leaves a system in one variable, and that is
empty exactly when its greatest lower bound exceeds its least upper bound,
or meets it with either bound strict.  Entailment is coverage by one head,
and coverage by a union of heads is region subtraction, whose pieces are
decided by satisfiability; the convex hull uses the standard lifted
encoding; widening is the classic constraint-based operator with the usual
refinement (``widen``).  Everything is exact; no floating point anywhere.

A ``Constraint`` is the row ``(terms, const, rel)``.  ``_eliminate`` packs
its input rows once, with ``terms`` as a tuple of one integer coefficient
per name, over the sorted names of the input rows.  It combines
them with integer arithmetic, keeps each row in ``terms.normal_form``, and
builds ``Constraint``s only for its result.  ``_prune`` drops trivial and
dominated ``Constraint`` rows for polyhedra and regions; ``_eliminate`` prunes its
packed rows with ``_prune_masked``, on input and after each step.  The
elimination order is fixed by the names: equalities first, substituting away
the smallest-named variable that an equality mentions, through the first
such equality in row order; then Fourier-Motzkin on the variable with the
fewest pos*neg pairings, ties going to the smallest name.

Fourier-Motzkin output is filtered by Chernikov's rule (Imbert, "Fourier's
elimination: which to choose?", 1993).  Inside ``_eliminate`` each packed
row carries a fourth field, its mask: an ``int`` with one bit for each input
row it combines, the input rows numbered by their position.  The steps
counted are each equality substitution and each Fourier-Motzkin step on a
variable that some row mentions.  A substitution ORs the equality's mask
into every row it rewrites, and a combination takes the union of the two
masks.  After ``steps`` steps a row that combines more than ``steps + 1``
input rows is implied by the rows that combine fewer, so such a pair is
never generated.  Counting too many steps only raises the bound, so some
redundant rows stay; counting too few lowers it below what the rule allows,
drops rows the result needs, and the elimination is no longer exact.  On
input and between steps, ``_prune_masked`` keeps one inequality per
direction (its coefficients divided by their gcd, so parallel rows such as
``3*A>=2`` and ``2*A>=1`` merge) and one row per equal equality, the
strongest, with the AND of the masks of every row merged into it.  That is
exact: the kept row implies each merged row, and its mask is a subset of
each of their masks, so the bound lets through every combination that any
of them would have made, and each such combination implies (a positive
multiple of) the one the dropped row would have made.  Keeping the stronger
row with its own mask is unsound: the rule then drops combinations of that
row that the weaker row's mask would have let through, and ``sat`` can
answer true for an infeasible system.

Every containment question goes to one routine, ``_covered(rows,
heads)``: do the pruned rows ``rows`` lie inside the union of the heads,
each head a tuple of rows?  ``entails`` asks it with ``other``'s rows as the
one head, ``entails_constraint``, ``_simplify`` and widening's swap test
with the one row ``c``, and ``models.satisfies_clause`` with a clause image
and the head facts.  It subtracts regions: a region ``r`` minus a head is
the union of the pieces ``r`` with one negation of one head row, pruned;
the pieces may overlap, and covered means that nothing satisfiable is left.
A head row that ``r`` implies by ``_row_entails`` adds no piece: the row is
a row of ``r``, or it is an inequality and a non-equality row of ``r`` with
the same terms has a bound at least as strong, in ``_prune``'s order.  A
row implies what it dominates, so every such piece would be empty.

The first satisfiable piece at the last head holds a point that no head
holds, and answers False at once; with no heads the answer is ``not sat``.
Both are exact on any rows: empty rows leave no satisfiable piece, so they
are covered by any heads, also by none.  Each piece's ``sat`` is stored under
the same ``("sat", rows)`` key as ``Polyhedron.sat``.

The hull is the closed convex hull: the lifted encoding (Benoy & King,
LOPSTR 1996) relaxes strict rows, and ``_eliminate`` removes the lifted
variables.  When one operand lies inside the other and the outer one has
no strict row, the hull is the outer one, simplified, with no elimination:
the closed hull of nested operands is the closure of the outer one, and a
polyhedron without strict rows is closed.  The two containment questions
are ``entails``, so their answers are stored for the fixpoint's growth
tests to read again.  For a full-dimensional outer operand the simplified
rows are its facets, exactly the rows elimination gives; for a
lower-dimensional one elimination may pick another equality basis of the
same set, such as ``{A=1, 4*A-B=0}`` for ``{A=1, B=4}``.

``_project`` skips ``_eliminate`` when it has nothing or everything to
eliminate.  With every variable of the rows eliminated, elimination gives
no rows for a satisfiable system and None for an empty one, so the answer
is ``()`` or None by ``_sat``.  With nothing eliminated, the pruned rows
are the projection.  They may keep a row parallel to another, as
``2*A+2*B=<3`` is to ``A+B=<1``, which ``_prune_masked`` would merge; both
rows describe the same set as the stronger one alone.

A polyhedron that contains a nonempty one is nonempty, so two
constructions start with ``sat`` known true: the hull's lifted result (both
operands are nonempty by then, and it holds both) and widening's kept rows
(they hold ``other``).  On these, the emptiness test that opens
``_simplify`` runs no elimination.

Rows derived from rows in normal form are built in normal form, without
``Constraint.make``: the hull's lifted rows and its ``x = y + z`` and ``s``
rows, ``_recombine``'s equalities and ``_decompose``'s pairs.  Negating
every number keeps the gcd, and ``#`` sorts before every character of a
name, so ``#s1`` leads and ``v#1`` sorts among the lifted names as ``v``
does.

``sat``, ``hull``, ``simplify`` and ``_covered`` are pure
functions of the dimensions and constraints of their operands (a
``Polyhedron`` is immutable), so inside a ``memo()`` block each distinct
call is computed once and its result reused.  ``_covered`` keys on rows
alone, under ``("covered", rows, heads)``; ``entails`` checks the
dimensions first.  The fixpoint's growth tests, its narrowing stop test and
``models``' maximal facts ask many pairs again.
A simplified polyhedron is nonempty.  The block also holds the
solve's deadline, which ``_sat_two`` and ``_eliminate`` check on entry and
``_eliminate`` once per elimination step, so the deadline holds inside a
single hull or clause check.  ``_sat_two`` keeps the row cap too: more than
``_ROW_CAP`` pairs raise ``RowCapExceeded``.
``models.head_image`` stores its clause images in the same table, so a
clause body is projected once for each image it gives; ``_project`` stores
nothing itself, and its emptiness test reads the ``sat`` entries.  Table
and deadline live in context variables: nested blocks share them, and the
outermost block drops both on exit.  Outside a block nothing is stored and
no clock is read.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from math import gcd

from .terms import EQ, LE, LT, Constraint, FALSE_CONSTRAINT, normal_form
from .terms import linear_combination  # noqa: F401  (perfbench/tracing.py patches it)

_ROW_CAP = 200_000  # guard against pathological Fourier-Motzkin blowup
_SPLIT_BUDGET = 10_000  # region-subtraction pieces per coverage check


class DimensionMismatch(ValueError):
    pass


class ResourceExhausted(RuntimeError):
    """A resource limit ran out; ``reason`` is reported as ``UNKNOWN <reason>``."""
    reason = ""


class RowCapExceeded(ResourceExhausted):
    """Fourier-Motzkin generated more than ``_ROW_CAP`` rows."""
    reason = "fm-row-cap"


class SplitBudgetExceeded(ResourceExhausted):
    """Region subtraction created more than ``_SPLIT_BUDGET`` pieces."""
    reason = "split-budget"


class SolverTimeout(ResourceExhausted):
    """The deadline passed."""
    reason = "timeout"


_MEMO: ContextVar[dict | None] = ContextVar("polyhedra_memo", default=None)
_DEADLINE: ContextVar[float | None] = ContextVar("polyhedra_deadline", default=None)
_MISSING = object()


@contextmanager
def memo(deadline: float | None = None):
    """Share the results of the pure polyhedral operations within the block,
    and make them raise ``SolverTimeout`` once the ``time.monotonic``
    ``deadline`` has passed.

    Installs a fresh table and the deadline, yields the table, and restores
    the previous state on exit.  Inside an active block it yields that
    block's table and keeps that block's deadline, ignoring ``deadline``.
    """
    table = _MEMO.get()
    if table is not None:
        yield table
        return
    table = {}
    tokens = _MEMO.set(table), _DEADLINE.set(deadline)
    try:
        yield table
    finally:
        _MEMO.reset(tokens[0])
        _DEADLINE.reset(tokens[1])


def _memoized(key, compute):
    """``compute()``, looked up in and stored under ``key`` in the active table.

    An operation that raises stores nothing.
    """
    table = _MEMO.get()
    if table is None:
        return compute()
    out = table.get(key, _MISSING)
    if out is _MISSING:
        out = table[key] = compute()
    return out


def _check_deadline() -> None:
    """Raise ``SolverTimeout`` once the active block's deadline has passed."""
    deadline = _DEADLINE.get()
    if deadline is not None and time.monotonic() > deadline:
        raise SolverTimeout


def _is_false(const, rel) -> bool:
    """Whether the constant row ``const REL 0`` is a contradiction."""
    return rel == EQ and const != 0 or rel == LE and const > 0 or rel == LT and const >= 0


def _prune(rows) -> tuple | None:
    """Drop trivial and dominated ``Constraint`` rows; None when a
    contradiction is found."""
    eqs = {}
    ineqs = {}
    for r in rows:
        lhs, const, rel = r
        if not lhs:
            if _is_false(const, rel):
                return None
            continue
        if rel == EQ:
            eqs.setdefault((lhs, const), r)
        else:
            old = ineqs.get(lhs)
            # same left-hand side: keep the stronger bound
            if old is None or (const, rel == LT) > (old[1], old[2] == LT):
                ineqs[lhs] = r
    # each group in the order of its ``Constraint`` tuples
    return tuple(sorted(eqs.values()) + sorted(ineqs.values()))


def _prune_masked(rows):
    """``_prune`` for the masked ``(lhs, const, rel, mask)`` rows of
    ``_eliminate``, ``lhs`` a packed coefficient tuple: each equality (a
    left-hand side with its constant) and each direction of inequality (a
    left-hand side divided by the gcd of its coefficients, so that parallel
    rows such as ``3*A>=2`` and ``2*A>=1`` merge) keeps its strongest row,
    with the AND of the masks of every row merged into it."""
    eqs = {}
    ineqs = {}
    zero = (0,) * len(rows[0][0]) if rows else ()  # every row has one width
    for r in rows:
        lhs, const, rel, mask = r
        if lhs == zero:
            if _is_false(const, rel):
                return None
            continue
        if rel == EQ:
            # rows under one key are equal, so equally strong
            old = eqs.setdefault((lhs, const), r)
            if old is not r:
                eqs[lhs, const] = old[0], old[1], old[2], old[3] & mask
            continue
        g = gcd(*lhs)
        key = tuple([k // g for k in lhs]) if g > 1 else lhs
        old = ineqs.setdefault(key, r)
        if old is r:
            continue  # the first row of its direction
        # ``lhs = g*key`` bounds ``key`` by ``-const/g``, so ``old`` is at
        # least as strong when its constant over its gcd is larger, or equal
        # with ``old`` strict or ``r`` not
        mine, theirs = old[1] * g, const * gcd(*old[0])
        if mine > theirs or mine == theirs and (old[2] == LT or rel != LT):
            ineqs[key] = old[0], old[1], old[2], old[3] & mask
        else:
            ineqs[key] = lhs, const, rel, old[3] & mask
    return list(eqs.values()) + list(ineqs.values())


def _combine(w1, r1, w2, r2, rel):
    """``w1*r1 + w2*r2`` as a masked row in ``normal_form``, with the union
    of the two masks."""
    cs, const, rel = normal_form([w1 * a + w2 * b for a, b in zip(r1[0], r2[0])],
                                 w1 * r1[1] + w2 * r2[1], rel)
    return cs, const, rel, r1[3] | r2[3]


def _eliminate(rows: list[Constraint], elim: set[str]) -> list[Constraint] | None:
    """Eliminate the variables ``elim``; None when a contradiction turns up.

    When ``elim`` covers every variable of the rows, None means exactly that
    the system is infeasible.  Otherwise an infeasible system may also come
    back as rows: ``[A>=1, A=< -20]`` with nothing to eliminate returns both.

    The rows are packed once as ``(coefficients, const, rel, mask)``, with
    one integer coefficient per name in the sorted names of the input rows,
    and bit ``i`` of the mask set in the ``i``-th input row; ``_prune_masked``
    prunes them first, so that input duplicates merge as later rows do.
    They are combined with integer arithmetic, and only the result is
    unpacked into ``Constraint``s.
    Each step eliminates one variable: while an equality mentions a
    variable of ``elim``, the smallest such name is substituted away through
    its first equality in row order, and the equality's mask joins the mask
    of every row it rewrites; then Fourier-Motzkin eliminates the variable
    with the fewest pos*neg pairings, ties going to the smallest name.  A
    step counts when it substitutes an equality or when some row mentions
    its variable.  After ``steps`` steps, Chernikov's rule skips every pair
    whose masks together have more than ``steps + 1`` bits.  An over-count
    of the steps only raises that bound and keeps redundant rows; an
    under-count lowers it and drops rows the result needs.  Between steps,
    ``_prune_masked`` merges the inequalities of one direction (parallel
    rows) into the strongest, with the AND of their masks: it implies each
    of them, and its mask lets through every combination that theirs would
    have.  Every path leaves at most one inequality per direction.  The
    deadline is checked on entry and once per step.

    The variables still to eliminate are kept as the ascending column
    indices of the ``elim`` names that some input row mentions.  Columns
    follow the sorted names, so the smallest column is the smallest name,
    and the equality choice and the tie-break pick the same variable by
    column as by name.  A name that no row mentions changes no row and
    never counted as a step, so dropping it up front changes nothing.
    """
    _check_deadline()
    names = sorted({v for r in rows for v, _ in r.terms})
    col = {v: j for j, v in enumerate(names)}
    packed = []
    width = len(names)
    for i, r in enumerate(rows):
        cs = [0] * width
        for v, k in r.terms:
            cs[col[v]] = k
        packed.append((tuple(cs), r.const, r.rel, 1 << i))
    rows = _prune_masked(packed)
    if rows is None:
        return None
    steps = 0
    # ascending columns, in name order (see the docstring)
    remaining = [j for j, v in enumerate(names) if v in elim]
    # Fourier-Motzkin only makes inequalities, so once no equality mentions
    # a remaining variable, none does again
    while remaining:
        eq = None
        eqs = [r for r in rows if r[2] == EQ]
        for j in remaining if eqs else ():
            for r in eqs:
                if r[0][j]:
                    eq = r
                    break
            else:
                continue
            break
        if eq is None:
            break
        _check_deadline()
        steps += 1
        a = eq[0][j]
        new_rows = []
        for r in rows:
            if r is eq:
                continue
            b = r[0][j]
            if b == 0:
                new_rows.append(r)
            else:
                # cross-multiply; the weight on r stays positive so an
                # inequality keeps its direction
                new_rows.append(_combine(abs(a), r, -b if a > 0 else b, eq, r[2]))
        rows = _prune_masked(new_rows)
        if rows is None:
            return None
        remaining.remove(j)
    while remaining:
        _check_deadline()
        # Fourier-Motzkin on the variable with the fewest pos*neg pairings,
        # ties going to the smallest column
        least = None
        for k in remaining:
            npos = nneg = 0
            for r in rows:
                c = r[0][k]
                if c > 0:
                    npos += 1
                elif c < 0:
                    nneg += 1
            if least is None or npos * nneg < least:
                least, j = npos * nneg, k
        remaining.remove(j)
        pos, neg, rest = [], [], []
        for r in rows:
            c = r[0][j]
            if c > 0:
                pos.append(r)
            elif c < 0:
                neg.append(r)
            else:
                rest.append(r)
        if not (pos or neg):
            continue
        steps += 1
        bound = steps + 1
        for p in pos:
            a, strict, mask = p[0][j], p[2] == LT, p[3]
            for n in neg:
                if (mask | n[3]).bit_count() > bound:
                    continue  # Chernikov: a redundant combination
                rel = LT if strict or n[2] == LT else LE
                rest.append(_combine(-n[0][j], p, a, n, rel))
                if len(rest) > _ROW_CAP:
                    raise RowCapExceeded("Fourier-Motzkin row cap exceeded")
        rows = _prune_masked(rest)
        if rows is None:
            return None
    return [Constraint(tuple([(v, k) for v, k in zip(names, cs) if k]), const, rel)
            for cs, const, rel, _ in rows]


def _sat_two(rows) -> bool | None:
    """Whether the rows ``rows`` hold of some point, decided directly when
    they mention at most two variables, ``x`` (the first name met) and
    ``y``; None when a third name appears.

    One equality with a nonzero coefficient is substituted into every other
    row, as ``_eliminate`` does; without one, a single Fourier-Motzkin pass
    combines each pair of rows with opposite signs on ``x``.  Either way
    one variable is left, and its greatest lower bound is compared with its
    least upper bound.  The deadline is checked on entry, and more than
    ``_ROW_CAP`` pairs raise ``RowCapExceeded``.
    """
    _check_deadline()
    x = y = None
    packed = []  # (x coefficient, y coefficient, const, rel)
    for terms, const, rel in rows:
        a = b = 0
        for v, k in terms:
            if x is None or v == x:
                x, a = v, k
            elif y is None or v == y:
                y, b = v, k
            else:
                return None
        packed.append((a, b, const, rel))
    eq = next((r for r in packed if r[3] == EQ and (r[0] or r[1])), None)
    line = []  # (coefficient, const, rel) rows over the variable left
    if eq is not None:
        j = 0 if eq[0] else 1  # the column substituted away
        e = eq[j]
        for r in packed:
            if r is eq:
                continue
            # cross-multiply; the weight on r stays positive so an
            # inequality keeps its direction
            w, u = abs(e), -r[j] if e > 0 else r[j]
            row = w * r[1 - j] + u * eq[1 - j], w * r[2] + u * eq[2]
            if r[3] == EQ:
                line += [(*row, LE), (-row[0], -row[1], LE)]
            else:
                line.append((*row, r[3]))
    else:
        pos = [r for r in packed if r[0] > 0]
        neg = [r for r in packed if r[0] < 0]
        if len(pos) * len(neg) > _ROW_CAP:
            raise RowCapExceeded("Fourier-Motzkin row cap exceeded")
        line = [r[1:] for r in packed if not r[0]]
        for p in pos:
            for n in neg:
                line.append((-n[0] * p[1] + p[0] * n[1], -n[0] * p[2] + p[0] * n[2],
                             LT if LT in (p[3], n[3]) else LE))
    lo = hi = None  # (num, den, strict): the bound num/den, den > 0
    for c, const, rel in line:
        if not c:
            if _is_false(const, rel):
                return False
            continue
        # ``c*v + const REL 0`` bounds v by -const/c, from above when c > 0
        num, den, strict = (-const, c, rel == LT) if c > 0 else (const, -c, rel == LT)
        if c > 0:
            if hi is None or (num * hi[1], not strict) < (hi[0] * den, not hi[2]):
                hi = num, den, strict
        elif lo is None or (num * lo[1], strict) > (lo[0] * den, lo[2]):
            lo = num, den, strict
    if lo is None or hi is None:
        return True
    gap = hi[0] * lo[1] - lo[0] * hi[1]
    return gap > 0 or gap == 0 and not (lo[2] or hi[2])


def _sat(rows: tuple) -> bool:
    """Whether the pruned rows ``rows`` hold of some point, memoized under
    ``("sat", rows)``.  Rows over at most two variables are decided by
    ``_sat_two``, exactly: one equality substitution or one complete
    Fourier-Motzkin pass leaves a system in one variable, whose emptiness is
    an interval test.  It checks the deadline and the row cap as
    ``_eliminate`` does, which decides rows over more variables."""
    def compute():
        out = _sat_two(rows)
        if out is None:
            out = _eliminate(list(rows), {v for r in rows for v, _ in r.terms}) is not None
        return out
    return _memoized(("sat", rows), compute)


def _project(rows, keep: tuple) -> tuple | None:
    """``rows``, in any order, with every variable outside ``keep``
    eliminated, pruned; None exactly when ``rows`` are unsatisfiable.  With
    every variable eliminated the answer is ``_sat``'s, and with none
    eliminated it is the pruned rows; neither calls ``_eliminate`` (module
    docstring)."""
    rows = _prune(rows)
    if rows is None:
        return None
    mentioned = {v for r in rows for v, _ in r.terms}
    elim = mentioned.difference(keep)
    if elim == mentioned:
        return () if _sat(rows) else None
    if elim:
        rows = _eliminate(list(rows), elim)
        rows = None if rows is None else _prune(rows)
    return rows if rows is not None and _sat(rows) else None


def _row_entails(rows, c: Constraint) -> bool:
    """Whether a single row of ``rows`` implies ``c``: ``c`` itself, or for
    an inequality ``c`` a non-equality row with the same terms and a bound
    at least as strong, in ``_prune``'s order."""
    if c.rel == EQ:
        return c in rows
    bound = (c.const, c.rel == LT)
    return any(r.terms == c.terms and r.rel != EQ and (r.const, r.rel == LT) >= bound
               for r in rows)


def _covered(rows: tuple, heads: tuple) -> bool:
    """True iff every rational point of the pruned rows ``rows`` satisfies
    every row of some head, each head a tuple of rows.

    Region subtraction: peel each head off the rows; covered iff nothing
    satisfiable remains.  Regions are pruned row tuples.  A region ``r``
    minus a head is the union of the pieces ``r`` with one negation of one
    head row; the pieces may overlap.  A head row that ``r`` implies by
    ``_row_entails`` adds no piece.  At the last head a satisfiable piece
    shows a point that no head holds, and the answer is False at once; with
    no heads it is ``not _sat(rows)``.  Empty rows leave no satisfiable
    piece, so the answer is exact on any rows.  Memoized under
    ``("covered", rows, heads)``.
    """
    def compute():
        regions = [rows]
        created = 0
        for i, head in enumerate(heads):
            last = i == len(heads) - 1
            next_regions = []
            for r in regions:
                for c in head:
                    if _row_entails(r, c):
                        continue  # every piece of ``c`` would be empty
                    for neg in c.negations():
                        piece = _prune(r + (neg,))
                        created += 1
                        if created > _SPLIT_BUDGET:
                            raise SplitBudgetExceeded(
                                "region subtraction split budget exceeded")
                        if piece is not None and _sat(piece):
                            if last:
                                return False
                            next_regions.append(piece)
            regions = next_regions
            if not regions:
                return True
        return not _sat(rows)  # no heads
    return _memoized(("covered", rows, heads), compute)


def _nonempty(dims, rows) -> "Polyhedron":
    """``Polyhedron(dims, rows)`` for rows that hold of some point, with
    ``sat`` known to be true."""
    out = Polyhedron(dims, rows)
    out._sat = True
    return out


def _check_dims(terms, dims) -> None:
    bad = {v for v, _ in terms}.difference(dims)
    if bad:
        raise DimensionMismatch(f"constraint variables {sorted(bad)} not in dims")


class Polyhedron:
    """A conjunction of atomic constraints over an ordered variable tuple."""

    __slots__ = ("dims", "constraints", "_sat")

    def __init__(self, dims, constraints=()):
        self.dims = tuple(dims)
        if len(set(self.dims)) != len(self.dims):
            repeated = next(d for i, d in enumerate(self.dims) if d in self.dims[:i])
            raise DimensionMismatch(f"dimension {repeated!r} repeated")
        rows = _prune(constraints)
        if rows is None:
            self.constraints = (FALSE_CONSTRAINT,)
            self._sat = False
        else:
            _check_dims((t for r in rows for t in r.terms), self.dims)
            self.constraints = rows
            self._sat = None

    @staticmethod
    def bottom(dims) -> "Polyhedron":
        return Polyhedron(dims, (FALSE_CONSTRAINT,))

    def sat(self) -> bool:
        if self._sat is None:
            self._sat = _sat(self.constraints)
        return self._sat

    def is_empty(self) -> bool:
        return not self.sat()

    def rename(self, mapping: dict[str, str]) -> "Polyhedron":
        dims = tuple(mapping.get(d, d) for d in self.dims)
        if dims == self.dims:
            return self  # the rows mention only dims, so none changes
        return Polyhedron(dims, [c.rename(mapping) for c in self.constraints])

    def entails_constraint(self, c: Constraint) -> bool:
        if self.constraints != (FALSE_CONSTRAINT,):  # bottom takes any c
            _check_dims(c.terms, self.dims)
        return _covered(self.constraints, ((c,),))

    def entails(self, other: "Polyhedron") -> bool:
        if not set(other.dims) <= set(self.dims):
            raise DimensionMismatch("entailment target uses unknown dimensions")
        return _covered(self.constraints, (other.constraints,))

    def project(self, keep) -> "Polyhedron":
        keep = tuple(keep)
        if not set(keep) <= set(self.dims):
            raise DimensionMismatch("projection keeps unknown dimensions")
        rows = _project(self.constraints, keep)
        return Polyhedron.bottom(keep) if rows is None else _nonempty(keep, rows)

    def hull(self, other: "Polyhedron") -> "Polyhedron":
        if set(self.dims) != set(other.dims):
            raise DimensionMismatch("hull arguments must share dimensions")
        return _memoized(("hull", self.dims, self.constraints,
                          other.dims, other.constraints),
                         lambda: self._hull(other))

    def _hull(self, other: "Polyhedron") -> "Polyhedron":
        """The closed convex hull, simplified: the outer operand when one
        without strict rows holds the other, tested ``self`` inside
        ``other`` first; otherwise the lifted rows, eliminated (module
        docstring)."""
        if self.is_empty():
            return Polyhedron(self.dims, other.constraints)
        if other.is_empty():
            return self
        for inner, outer in ((self, other), (other, self)):
            if all(r.rel != LT for r in outer.constraints) and inner.entails(outer):
                return _nonempty(self.dims, outer.constraints).simplify()
        y = {d: f"{d}#1" for d in self.dims}
        z = {d: f"{d}#2" for d in self.dims}
        s1, s2 = "#s1", "#s2"
        # lifted rows in normal form (module docstring): ``s`` leads, the
        # gcd stays 1, and an equality whose constant, now its lead, is
        # negative flips its signs
        rows = []
        for c, copy, s in ((self, y, s1), (other, z, s2)):
            for r in c.constraints:
                f = -1 if r.rel == EQ and r.const < 0 else 1
                terms = [(copy[v], f * k) for v, k in r.terms]
                if r.const:
                    terms.insert(0, (s, f * r.const))
                rows.append(Constraint(tuple(terms), 0, LE if r.rel == LT else r.rel))
        rows += [Constraint(((d, 1), (y[d], -1), (z[d], -1)), 0, EQ) for d in self.dims]
        rows += [Constraint(((s1, 1), (s2, 1)), -1, EQ),
                 Constraint(((s1, -1),), 0, LE), Constraint(((s2, -1),), 0, LE)]
        out = _eliminate(rows, set(y.values()) | set(z.values()) | {s1, s2})
        if out is None:
            return Polyhedron.bottom(self.dims)
        return _nonempty(self.dims, out).simplify()

    def widen(self, other: "Polyhedron") -> "Polyhedron":
        """The standard widening with its refinement, over the rows ``cs1``
        of ``self`` and ``cs2`` of ``other``, equalities split in two.

        Keeps each row of ``cs1`` that ``other`` implies.  Keeps a row ``b``
        of ``cs2`` when ``self`` implies ``b`` and, for some ``a`` in
        ``cs1``, ``cs1`` with ``b`` in place of ``a`` implies ``a``: then
        the swapped rows describe ``self`` again, and ``b`` may stand in
        for ``a``.
        """
        if set(self.dims) != set(other.dims):
            raise DimensionMismatch("widen arguments must share dimensions")
        if self.is_empty():
            return Polyhedron(self.dims, other.constraints)
        if other.is_empty():
            return self
        cs1 = _decompose(self.simplify().constraints)
        cs2 = _decompose(other.simplify().constraints)
        kept = [a for a in cs1 if other.entails_constraint(a)]
        for b in cs2:
            if b in kept or not self.entails_constraint(b):
                continue
            for a in cs1:
                if _covered(_prune([x for x in cs1 if x != a] + [b]), ((a,),)):
                    kept.append(b)
                    break
        return _nonempty(self.dims, kept).simplify()

    def simplify(self) -> "Polyhedron":
        return _memoized(("simplify", self.dims, self.constraints), self._simplify)

    def _simplify(self) -> "Polyhedron":
        if self.is_empty():
            return Polyhedron.bottom(self.dims)
        # pruned, so each row subset is pruned too; reversed, the rows are
        # the inequalities, then the equalities, each from the largest down
        kept = _prune(_recombine(self.constraints))
        for c in kept[::-1]:
            rest = tuple([k for k in kept if k != c])
            if _covered(rest, ((c,),)):
                kept = rest
        return _nonempty(self.dims, kept)

    def eval_point(self, point: dict) -> bool:
        return all(c.eval_point(point) for c in self.constraints)

    def __eq__(self, other):
        return (isinstance(other, Polyhedron)
                and self.dims == other.dims
                and self.constraints == other.constraints)

    def __hash__(self):
        return hash((self.dims, self.constraints))

    def __repr__(self):
        return "{" + ",".join(repr(c) for c in self.constraints) + "}"


def _recombine(constraints) -> list[Constraint]:
    """Merge opposite non-strict inequality pairs back into equalities."""
    rows = list(constraints)
    ineqs = {(c.terms, c.const): c for c in rows if c.rel == LE}
    out, used = [], set()
    for c in rows:
        if c in used:
            continue
        if c.rel == LE:
            # negating keeps the gcd and the order of the names
            mate = ineqs.get((tuple([(v, -k) for v, k in c.terms]), -c.const))
            if mate is not None and mate is not c:
                # the equality is the row of the pair with a positive lead
                lead = c if c.terms[0][1] > 0 else mate
                out.append(Constraint(lead.terms, lead.const, EQ))
                used.add(mate)
                used.add(c)
                continue
        out.append(c)
    return out


def _decompose(constraints) -> list[Constraint]:
    """Split equalities into opposite non-strict inequality pairs."""
    out = []
    for c in constraints:
        if c.rel == EQ:
            # in normal form already: negating keeps the gcd
            out.append(Constraint(c.terms, c.const, LE))
            out.append(Constraint(tuple([(v, -k) for v, k in c.terms]), -c.const, LE))
        else:
            out.append(c)
    return out

