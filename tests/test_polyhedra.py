"""Engine unit tests: frozen expected values were computed with the integer
grid / generator oracles that also run in the randomized suites below."""

import contextlib
import functools
import itertools
import math
import random
import re
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dimsolve import models, polyhedra
from dimsolve.driver import Config, solve
from dimsolve.models import Model
from dimsolve.parser import _Parser
from dimsolve.polyhedra import (DimensionMismatch, Polyhedron, SolverTimeout, _row_entails,
                                 memo)
from dimsolve.terms import EQ, FALSE_CONSTRAINT as FALSE, LE, LT, Constraint, linear_combination

from conftest import C, grid_points, poly, random_constraint, random_poly

# names that are prefixes of one another, and that sort around ``_`` and digits
PREFIX_NAMES = ("A", "AB", "A_1", "_x")


# --- sat ---------------------------------------------------------------

def test_sat_contradictory_bounds():
    p = poly(("A", "B"), C({"A": -1}, 5, LT), C({"B": 1, "A": -1}, 0, LT), C({"A": 1}, -1))
    assert not p.sat()


def test_sat_simple():
    p = poly(("A", "B"), C({"A": -1}, 0), C({"A": 1}, -1), C({"B": 1, "A": -1}, 0, EQ))
    assert p.sat()


def test_sat_cycle_sum():
    # x<=y, y<=z, z<=x-1: adding all yields 0 <= -1.  Grid oracle agrees.
    rows = [C({"x": 1, "y": -1}, 0), C({"y": 1, "z": -1}, 0), C({"z": 1, "x": -1}, 1)]
    p = poly(("x", "y", "z"), *rows)
    assert not any(all(r.eval_point(pt) for r in rows) for pt in grid_points("xyz"))
    assert not p.sat()


def test_sat_fractional_only():
    # 2x = 1 has no integer solution but is rationally satisfiable
    assert poly(("x",), C({"x": 2}, -1, EQ)).sat()


# --- entails -----------------------------------------------------------

def test_entails_examples():
    c1 = poly(("A", "B"), C({"A": -1}, 2), C({"B": 1, "A": -1}, 0, EQ))
    assert c1.entails(poly(("B",), C({"B": -1}, 1)))
    assert not poly(("A",), C({"A": -1}, 0)).entails(poly(("A",), C({"A": -1}, 1)))


def test_entails_own_conjunct():
    # the linearized clause constraint entails each of its own conjuncts
    c = poly(("A", "B", "C", "D"),
             C({"A": 1}, -2), C({"A": -1}, 1, LT), C({"A": 1, "C": -1}, -2, EQ),
             C({"B": 1, "D": -1}, -1, EQ))
    assert c.entails(poly(("A",), C({"A": -1}, 1, LT)))


def _fm_entails(p, c) -> bool:
    """``p.entails_constraint(c)`` by Fourier-Motzkin alone, without the
    single-row test."""
    return all(Polyhedron(p.dims, p.constraints + (n,)).is_empty() for n in c.negations())


def test_row_entails_agrees_with_fourier_motzkin():
    rng = random.Random(61)
    dims = ("x", "y")
    implied = 0
    for _ in range(300):
        p = random_poly(rng, dims)
        cands = [random_constraint(rng, dims)]
        for r in p.constraints:
            for d in (-1, 0, 1):  # the row's constant loosened, kept, tightened
                cands.extend(C(dict(r.terms), r.const + d, rel) for rel in (EQ, LE, LT))
        for c in cands:
            if not c.terms:
                continue  # only an empty ``p`` implies a false constant row
            # the single rows that the test may use: same terms, and for an
            # inequality no equality
            single = [r for r in p.constraints
                      if r.terms == c.terms and (c.rel == EQ or r.rel != EQ)]
            by_row = any(_fm_entails(Polyhedron(dims, [r]), c) for r in single)
            assert _row_entails(p.constraints, c) == by_row
            if by_row:
                implied += 1
                assert _fm_entails(p, c)
    assert implied > 300


def test_entails_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        poly(("A",), C({"A": 1}, 0)).entails(poly(("Z",), C({"Z": 1}, 0)))


def test_repeated_dimension_rejected():
    with pytest.raises(DimensionMismatch, match="dimension 'A' repeated"):
        Polyhedron(("A", "B", "A"))
    with pytest.raises(DimensionMismatch, match="dimension 'A' repeated"):
        poly(("A", "B"), C({"A": 1, "B": -1}, 0)).project(("A", "A"))
    with pytest.raises(DimensionMismatch, match="dimension 'A' repeated"):
        poly(("A", "B"), C({"A": 1, "B": -1}, 0)).rename({"B": "A"})
    # a model fact repeating an argument
    with pytest.raises(DimensionMismatch, match="dimension 'A' repeated"):
        Model.parse("p(A, A) :- [A >= 0].")


def test_rename_that_moves_no_dimension_is_the_identity():
    p = poly(("A", "B"), C({"A": 1, "B": -1}, 0))
    assert p.rename({d: d for d in p.dims}) is p
    assert p.rename({}) is p
    q = p.rename({"A": "X"})
    assert (q.dims, q.constraints) == (("X", "B"), (C({"X": 1, "B": -1}, 0),))


def test_entails_constraint_equals_elimination():
    # coverage by the one row ``c`` answers "not entailed" only where the
    # elimination over the negations does
    rng = random.Random(71)
    dims = ("x", "y", "z")
    polys = [Polyhedron.bottom(dims), poly(dims, C({"x": -1}, 1), C({"x": 1}, 0))]
    polys += [random_poly(rng, dims, rng.randint(1, 5)) for _ in range(250)]
    assert sum(any(r.rel == LT for r in p.constraints) for p in polys) > 50
    rows = [r for p in polys for r in p.constraints if r.terms]
    counts = {True: 0, False: 0}
    for p in polys:
        cands = rng.sample(rows, 6) + [random_constraint(rng, dims) for _ in range(6)]
        cands += [C(dict(r.terms), r.const + d, rel) for r in p.constraints
                  for d in (-1, 1) for rel in (EQ, LE, LT)]
        for c in cands:
            # fresh operands, so that no cached ``sat`` answers
            got = Polyhedron(dims, p.constraints).entails_constraint(c)
            assert got == _fm_entails(Polyhedron(dims, p.constraints), c), (p, c)
            counts[got] += 1
    assert min(counts.values()) > 500


def test_entails_constraint_outside_the_dimensions():
    c = C({"Z": 1}, 0)
    nonempty = poly(("A",), C({"A": 1}, 0))
    empty = poly(("A",), C({"A": -1}, 1), C({"A": 1}, 0))  # 1 =< A =< 0, not by prune
    for p in (nonempty, empty):
        with pytest.raises(DimensionMismatch, match=r"\['Z'\] not in dims"):
            p.entails_constraint(c)
    assert Polyhedron.bottom(("A",)).entails_constraint(c)


def _result(fn):
    """``fn()``, or the type of the exception it raised."""
    try:
        return fn()
    except DimensionMismatch as e:
        return type(e)


def test_entails_constraint_equals_elimination_when_empty_or_foreign():
    # empty polyhedra that are not ``bottom``, and constraints over a name
    # outside the dimensions: both sides must give the same answer or both
    # raise ``DimensionMismatch``
    rng = random.Random(73)
    dims = ("x", "y")
    polys = [Polyhedron.bottom(dims)]
    for _ in range(150):
        p = random_poly(rng, dims, rng.randint(1, 4))
        polys.append(p)
        for r in p.constraints[:1]:
            # with a row that contradicts ``r``, which the prune cannot see:
            # ``terms + const =< 0`` against ``-terms - const + 1 =< 0``
            polys.append(Polyhedron(p.dims, p.constraints
                                    + (C({v: -k for v, k in r.terms}, 1 - r.const),)))
    empties = [p for p in polys if p.is_empty() and p.constraints != (FALSE,)]
    assert len(empties) > 100
    raised = 0
    for p in polys:
        cands = [random_constraint(rng, dims) for _ in range(4)]
        cands += [random_constraint(rng, ("x", "Z")) for _ in range(4)]
        cands += list(p.constraints)
        for c in cands:
            # fresh operands, so that no cached ``sat`` answers
            got = _result(lambda: Polyhedron(dims, p.constraints).entails_constraint(c))
            want = _result(lambda: _fm_entails(Polyhedron(dims, p.constraints), c))
            assert got == want, (p, c)
            raised += got is DimensionMismatch
    assert raised > 300


def test_entails_is_emptiness_or_each_row():
    rng = random.Random(67)
    dims = ("A", "B")
    # empty by the prune alone, and empty only by Fourier-Motzkin
    empties = [Polyhedron.bottom(dims), poly(dims, C({"A": -1}, 1), C({"A": 1}, 0))]
    assert empties[1].constraints != Polyhedron.bottom(dims).constraints
    polys = empties + [random_poly(rng, dims) for _ in range(150)]
    for a in polys:
        for b in polys[:2] + rng.sample(polys, 20):
            # fresh operands, so that no cached ``sat`` answers
            p, q = Polyhedron(dims, a.constraints), Polyhedron(dims, b.constraints)
            want = p.is_empty() or all(p.entails_constraint(c) for c in q.constraints)
            assert p.entails(q) == want, (p, q)
    assert all(e.entails(q) for e in empties for q in polys)


def test_entails_reflexive_transitive():
    rng = random.Random(7)
    for _ in range(60):
        a = random_poly(rng, ("x", "y"))
        b = random_poly(rng, ("x", "y"))
        c = random_poly(rng, ("x", "y"))
        assert a.entails(a)
        if a.entails(b) and b.entails(c):
            assert a.entails(c)


# --- project -----------------------------------------------------------

def test_project_transitive_bound():
    p = poly(("X", "Y"), C({"X": 1, "Y": -1}, 0), C({"Y": 1}, -5)).project(["X"])
    assert p == poly(("X",), C({"X": 1}, -5))


def test_project_pass_through():
    p = poly(("A", "A2", "B2"), C({"A": -1}, 1, LT), C({"A2": 1, "A": -1}, 2, EQ),
             C({"B2": 1}, -9), C({"B2": -1}, 0))
    q = p.project(["A", "A2"])
    assert q.entails(poly(("A", "A2"), C({"A": -1}, 1, LT), C({"A2": 1, "A": -1}, 2, EQ)))


def test_project_sum_of_unit_intervals():
    # x = y + z with y, z in [0, 1]: frozen expectation 0 <= x <= 2 verified
    # by enumerating integer y, z
    p = poly(("x", "y", "z"), C({"x": 1, "y": -1, "z": -1}, 0, EQ),
             C({"y": -1}, 0), C({"y": 1}, -1), C({"z": -1}, 0), C({"z": 1}, -1))
    xs = {pt["y"] + pt["z"] for pt in grid_points(("y", "z"), 0, 1)}
    assert {0, 1, 2} == xs
    assert p.project(["x"]) == poly(("x",), C({"x": -1}, 0), C({"x": 1}, -2))


def test_project_of_an_empty_polyhedron_is_bottom():
    # A >= 20 and A =< 1 contradict only together, so pruning keeps both
    p = poly(("A", "B"), C({"A": -1}, 20), C({"A": 1}, -1), C({"B": 1}, 0, EQ))
    assert p.project(("A",)) == Polyhedron.bottom(("A",))
    assert p.project(()) == Polyhedron.bottom(())
    q = poly(("A", "B"), C({"A": 1, "B": -1}, 0), C({"B": 1}, -5)).project(("A",))
    assert q == poly(("A",), C({"A": 1}, -5)) and q._sat is True
    rng = random.Random(5)
    for _ in range(40):
        p = random_poly(rng, ("x", "y", "z"))
        q = p.project(("x",))
        assert (q == Polyhedron.bottom(("x",))) is (q._sat is False) is p.is_empty()


def test_project_soundness_and_grid_completeness():
    rng = random.Random(11)
    for _ in range(40):
        p = random_poly(rng, ("x", "y", "z"))
        keep = ("x", "y")
        q = p.project(keep)
        for pt in grid_points(("x", "y", "z"), -2, 2):
            if p.eval_point(pt):
                assert q.eval_point({k: pt[k] for k in keep})
        # completeness: each grid point of the projection extends rationally
        for pt in grid_points(keep, -2, 2):
            if q.eval_point(pt):
                ext = Polyhedron(p.dims, p.constraints + tuple(
                    Constraint.make({k: 1}, -pt[k], EQ) for k in keep))
                assert ext.sat()


# --- hull --------------------------------------------------------------

def test_hull_two_points():
    h = poly(("x",), C({"x": 1}, 0, EQ)).hull(poly(("x",), C({"x": 1}, -1, EQ)))
    assert h == poly(("x",), C({"x": -1}, 0), C({"x": 1}, -1))


def test_hull_infeasible_identity():
    c = poly(("x",), C({"x": 1}, -7, EQ))
    assert Polyhedron.bottom(("x",)).hull(c) == c
    assert c.hull(Polyhedron.bottom(("x",))) == c


def test_hull_diagonal_points():
    # hull of (2,2) and (3,3): both generators and their midpoint belong
    h = poly(("A", "B"), C({"A": 1}, -2, EQ), C({"B": 1}, -2, EQ)).hull(
        poly(("A", "B"), C({"A": 1}, -3, EQ), C({"B": 1}, -3, EQ)))
    for pt in ({"A": 2, "B": 2}, {"A": 3, "B": 3}):
        assert h.eval_point(pt)
    assert h.eval_point({"A": Fraction(5, 2), "B": Fraction(5, 2)})
    assert h == poly(("A", "B"), C({"A": 1, "B": -1}, 0, EQ), C({"A": -1}, 2), C({"A": 1}, -3))


def test_hull_containment_random():
    rng = random.Random(23)
    for _ in range(40):
        a = random_poly(rng, ("x", "y"))
        b = random_poly(rng, ("x", "y"))
        h = a.hull(b)
        assert a.entails(h)
        assert b.entails(h)


# --- widen -------------------------------------------------------------

def test_widen_drops_unstable_bound():
    w = poly(("x",), C({"x": -1}, 0), C({"x": 1}, -1)).widen(
        poly(("x",), C({"x": -1}, 0), C({"x": 1}, -2)))
    assert w == poly(("x",), C({"x": -1}, 0))


def test_widen_idempotent_on_equal():
    c = poly(("x", "y"), C({"x": 1, "y": -1}, 0), C({"x": -1}, 0))
    assert c.widen(c) == c.simplify()


def test_widen_keeps_stable_relation():
    # growing from a point along a line keeps the line, drops the bounds
    pt = poly(("A", "B"), C({"A": 1}, -2, EQ), C({"B": 1}, -1, EQ))
    seg = poly(("A", "B"), C({"A": -1}, 2), C({"A": 1}, -3),
               C({"A": 1, "B": -1}, -1, EQ))
    w = pt.widen(seg)
    assert w == poly(("A", "B"), C({"A": -1}, 2), C({"A": 1, "B": -1}, -1, EQ))


def test_widen_upper_bound_and_stabilization():
    rng = random.Random(31)
    for _ in range(30):
        base = random_poly(rng, ("x", "y"))
        if base.is_empty():
            continue
        chain = base
        budget = len(base.simplify().constraints) + 1
        steps = 0
        while True:
            nxt = chain.hull(random_poly(rng, ("x", "y")))
            w = chain.widen(nxt)
            assert nxt.entails(w)  # upper bound of the pair
            steps += 1
            if w.entails(chain) and chain.entails(w):
                break
            chain = w
            assert steps <= budget, "widening chain failed to stabilize"


def _reference_entails(p, q) -> bool:
    """``p.entails(q)`` by emptiness and Fourier-Motzkin per row of ``q``."""
    return p.is_empty() or all(_fm_entails(p, c) for c in q.constraints)


def _reference_widen(p, q):
    """``p.widen(q)`` with the refinement as it was: a row ``b`` of ``q`` is
    added when swapping it for some row ``a`` of ``p`` gives a polyhedron
    equal to ``p``'s rows, tested by entailment both ways.  Also returns
    whether any row was added."""
    if p.is_empty():
        return Polyhedron(p.dims, q.constraints), False
    if q.is_empty():
        return p, False
    cs1 = polyhedra._decompose(p.simplify().constraints)
    cs2 = polyhedra._decompose(q.simplify().constraints)
    kept = [a for a in cs1 if _fm_entails(q, a)]
    extra = []
    base = Polyhedron(p.dims, cs1)
    for b in cs2:
        if b in kept or b in extra:
            continue
        for a in cs1:
            swapped = Polyhedron(p.dims, [x for x in cs1 if x != a] + [b])
            if _reference_entails(swapped, base) and _reference_entails(base, swapped):
                extra.append(b)
                break
    return Polyhedron(p.dims, kept + extra).simplify(), bool(extra)


def test_widen_matches_reference_refinement():
    rng = random.Random(71)
    dims = ("x", "y")

    def nonempty():
        while True:
            p = random_poly(rng, dims)
            if not p.is_empty():
                return p
    refined = 0
    for i in range(600):
        p, r = nonempty(), nonempty()
        q = p.hull(r) if i % 2 else r
        want, added = _reference_widen(p, q)
        assert p.widen(q).constraints == want.constraints, (p, q)
        refined += added
    assert refined >= 10


# --- simplify ----------------------------------------------------------

def test_simplify_drops_redundant():
    assert poly(("A",), C({"A": -1}, 0), C({"A": -1}, -1)).simplify() == \
        poly(("A",), C({"A": -1}, 0))


def test_simplify_canonical_contradiction():
    s = poly(("A",), C({"A": 1}, 0, EQ), C({"A": 1}, -1, EQ)).simplify()
    assert s == Polyhedron.bottom(("A",))
    assert not s.sat()


def test_simplify_equivalence_random():
    rng = random.Random(43)
    dims = ("x", "y", "z")
    for _ in range(200):
        p = random_poly(rng, dims, rng.randint(1, 6))
        s = p.simplify()
        if p.is_empty():
            assert s.is_empty()
            continue
        assert all(_fm_entails(p, c) for c in s.constraints)
        assert all(_fm_entails(s, c) for c in p.constraints)
        for c in s.constraints:
            rest = Polyhedron(dims, [k for k in s.constraints if k != c])
            assert not _fm_entails(rest, c)


def _reference_recombine(rows):
    """``polyhedra._recombine`` as it was, through ``Constraint.make``."""
    ineqs = {(c.terms, c.const): c for c in rows if c.rel == LE}
    out, used = [], set()
    for c in rows:
        if c in used:
            continue
        if c.rel == LE:
            flipped = C({v: -k for v, k in c.terms}, -c.const)
            mate = ineqs.get((flipped.terms, flipped.const))
            if mate is not None and mate is not c:
                out.append(C(dict(c.terms), c.const, EQ))
                used.update((c, mate))
                continue
        out.append(c)
    return out


def _reference_simplify(p):
    """``simplify`` as a greedy loop that tests each row by elimination
    alone, on one polyhedron per question."""
    if p.is_empty():
        return Polyhedron.bottom(p.dims)
    kept = _reference_recombine(p.constraints)
    ineqs = sorted([c for c in kept if c.rel != EQ], reverse=True)
    for c in ineqs + sorted([c for c in kept if c.rel == EQ], reverse=True):
        rest = [k for k in kept if k != c]
        if all(Polyhedron(p.dims, rest + [n]).is_empty() for n in c.negations()):
            kept = rest
    return Polyhedron(p.dims, kept)


def _with_mates(rng, p):
    """``p`` with the opposite of some of its inequalities, so that
    ``simplify`` has pairs to merge into equalities."""
    mates = [C({v: -k for v, k in r.terms}, -r.const) for r in p.constraints
             if r.rel == LE and rng.random() < 0.5]
    return Polyhedron(p.dims, p.constraints + tuple(mates))


def test_simplify_matches_reference_greedy_loop():
    rng = random.Random(47)
    merged = 0
    for dims in (("x", "y", "z"), PREFIX_NAMES):
        for _ in range(150):
            p = _with_mates(rng, random_poly(rng, dims, rng.randint(1, 6)))
            # fresh operands, so that no cached ``sat`` answers
            got = Polyhedron(dims, p.constraints).simplify()
            assert got == _reference_simplify(Polyhedron(dims, p.constraints)), p
            merged += any(r.rel == EQ for r in got.constraints)
    assert merged > 50
    # the equalities merged from pairs are tried in row order; in the order
    # of the pairs, ``A+B= -1`` would be dropped instead of ``2*A+3*B= -2``
    dims = ("A", "B", "C")
    p = poly(dims, *_rows("A+B>= -1, 2*A+3*B>= -2, A= -1, 3*C=<1, A+B=< -1, "
                          "2*A+3*B=< -2, 3*C>=1"))
    want = poly(dims, *_rows("A= -1, A+B= -1, 3*C=1"))
    assert p.simplify() == _reference_simplify(Polyhedron(dims, p.constraints)) == want


def test_polyhedra_marked_nonempty_are_nonempty(monkeypatch):
    # each construction that starts with ``sat`` true contains a nonempty
    # polyhedron: the hull's lifted result, widening's kept rows and
    # simplify's result; so do the row subsets that simplify and widening's
    # swap test hand to ``_covered``, since each holds ``self``.  Elimination
    # must find a point in each
    marked, subsets = [], []
    nonempty, covered = polyhedra._nonempty, polyhedra._covered

    def recording(dims, rows):
        out = nonempty(dims, rows)
        marked.append((sys._getframe(1).f_code.co_name, out))
        return out

    def recording_rows(rows, heads):
        if sys._getframe(1).f_code.co_name in ("_simplify", "widen"):
            subsets.append(rows)
        return covered(rows, heads)
    monkeypatch.setattr(polyhedra, "_nonempty", recording)
    monkeypatch.setattr(polyhedra, "_covered", recording_rows)
    rng = random.Random(37)
    dims = ("x", "y", "z")
    for i in range(300):
        a, b = random_poly(rng, dims), random_poly(rng, dims)
        if a.is_empty() or b.is_empty():
            continue
        with memo() if i % 2 else contextlib.nullcontext():
            h = a.hull(b)
            a.widen(h)
            b.widen(a)
    assert {where for where, _ in marked} == {"_hull", "widen", "_simplify"}
    assert len(marked) > 1000 and len(subsets) > 1000
    for where, q in marked:
        assert q._sat is True, where
        assert polyhedra._eliminate(list(q.constraints), set(q.dims)) is not None, (where, q)
    for rows in subsets:
        assert polyhedra._eliminate(list(rows), {"x", "y", "z"}) is not None, rows


def test_prune_trivial_and_contradiction():
    a = C({"A": 1}, -1)  # A =< 1
    trivial = [C({}, -1), C({}, 0, EQ), C({}, -1, LT)]
    p = poly(("A",), a, *trivial, C({"A": 1}, -2))  # A =< 2 is dominated
    assert p.constraints == (a,) and p._sat is None
    for contradiction in (C({}, 1, EQ), C({}, 1), C({}, 0, LT)):
        q = poly(("A",), a, contradiction, *trivial)
        assert q == Polyhedron.bottom(("A",)) and q._sat is False


def _order_key(c):
    """The order ``Polyhedron`` kept its rows in by a key function: equalities
    first, then by terms, constant and relation."""
    return (c.rel != EQ, c.terms, c.const, c.rel)


_ROWS = st.lists(st.builds(
    C, st.dictionaries(st.sampled_from("ABC"), st.integers(-3, 3), max_size=3),
    st.integers(-3, 3), st.sampled_from([EQ, LE, LT])), max_size=8)


@given(_ROWS)
def test_rows_sorted_as_by_the_reference_key(rows):
    rows = [r for r in rows if r.terms]  # no contradiction, so no bottom
    want = _reference_prune(rows)
    assert Polyhedron("ABC", rows).constraints == tuple(sorted(want, key=_order_key))


# --- grid agreement (one direction: integer point found => sat) ---------

def test_sat_grid_agreement_random():
    rng = random.Random(57)
    for _ in range(80):
        p = random_poly(rng, ("x", "y", "z"))
        if any(p.eval_point(pt) for pt in grid_points(("x", "y", "z"))):
            assert p.sat()


# --- the integer-row kernel against the Constraint-level elimination ----

def _reference_prune(rows):
    """``polyhedra._prune`` as it was on ``Constraint`` rows, kept apart so
    that the comparison does not share the rule it checks."""
    eqs, ineqs = {}, {}
    for r in rows:
        if not r.terms:
            if not {EQ: r.const == 0, LE: r.const <= 0, LT: r.const < 0}[r.rel]:
                return None
            continue
        if r.rel == EQ:
            eqs.setdefault((r.terms, r.const), r)
            continue
        old = ineqs.get(r.terms)
        if old is None or (r.const, r.rel == LT) > (old.const, old.rel == LT):
            ineqs[r.terms] = r
    return list(eqs.values()) + list(ineqs.values())


def _reference_eliminate(rows, elim):
    """``_eliminate`` as it was on ``Constraint`` rows, without the deadline
    and without redundancy filtering."""
    rows = _reference_prune(rows)
    if rows is None:
        return None
    remaining = set(elim)
    while remaining:
        coeffs = [dict(r.terms) for r in rows]
        first_eq = {}
        for i, r in enumerate(rows):
            if r.rel == EQ:
                for v in coeffs[i]:
                    if v in remaining:
                        first_eq.setdefault(v, i)
        if first_eq:
            v = min(first_eq)
            eq, a = rows[first_eq[v]], coeffs[first_eq[v]][v]
            new_rows = []
            for r, cs in zip(rows, coeffs):
                b = cs.get(v, 0)
                if r is eq:
                    continue
                new_rows.append(r if b == 0 else linear_combination(
                    [(abs(a), r), (-b if a > 0 else b, eq)], r.rel))
            rows = _reference_prune(new_rows)
            if rows is None:
                return None
            remaining.discard(v)
            continue
        npos = dict.fromkeys(remaining, 0)
        nneg = dict.fromkeys(remaining, 0)
        for cs in coeffs:
            for v, c in cs.items():
                if v in remaining:
                    (npos if c > 0 else nneg)[v] += 1
        v = min(remaining, key=lambda u: (npos[u] * nneg[u], u))
        pos = [(r, cs[v]) for r, cs in zip(rows, coeffs) if cs.get(v, 0) > 0]
        neg = [(r, cs[v]) for r, cs in zip(rows, coeffs) if cs.get(v, 0) < 0]
        rest = [r for r, cs in zip(rows, coeffs) if cs.get(v, 0) == 0]
        for p, cp in pos:
            for n, cn in neg:
                rel = LT if LT in (p.rel, n.rel) else LE
                rest.append(linear_combination([(-cn, p), (cp, n)], rel))
                if len(rest) > polyhedra._ROW_CAP:
                    raise polyhedra.RowCapExceeded
        rows = _reference_prune(rest)
        if rows is None:
            return None
        remaining.discard(v)
    return rows


def _random_system(rng):
    """Raw rows (duplicates and trivial rows included) or a pruned polyhedron's
    rows, over 2-5 variables, and a random set of names to eliminate that may
    include a name no row mentions."""
    dims = ("A", "B", "C", "D", "E")[:rng.randint(2, 5)]
    coeff_range = rng.choice([(-1, 1), (-2, 2), (-4, 4)])
    if rng.random() < 0.5:
        rows = [random_constraint(rng, dims, coeff_range) for _ in range(rng.randint(1, 8))]
    else:
        rows = list(random_poly(rng, dims, rng.randint(1, 8), coeff_range).constraints)
    elim = {v for v in dims + ("Z",) if rng.random() < 0.6}
    return rows, elim


def _outcome(fn, rows, elim):
    try:
        return fn(rows, elim)
    except polyhedra.RowCapExceeded:
        return "row cap"


def _reference_empty(rows) -> bool:
    """Whether ``rows`` have no rational solution, decided by the reference."""
    return _reference_eliminate(rows, {v for r in rows for v, _ in r.terms}) is None


def _same_set(out, ref) -> bool:
    """Whether two elimination results describe the same set, None being the
    empty set: entailment both ways, decided by the reference."""
    if out is None or ref is None:
        return (out is None or _reference_empty(out)) and (ref is None or _reference_empty(ref))

    def entails(rows, c):
        return all(_reference_empty(rows + [n]) for n in c.negations())
    return all(entails(out, c) for c in ref) and all(entails(ref, c) for c in out)


def test_kernel_matches_reference_elimination(monkeypatch):
    # the kernel drops redundant rows, so the outputs agree as sets, not rows
    rng = random.Random(20261018)
    systems = [_random_system(rng) for _ in range(2500)]
    seen = set()
    for rows, elim in systems:
        out = polyhedra._eliminate(rows, elim)
        assert _same_set(out, _reference_eliminate(rows, elim)), (rows, elim)
        seen.add(out is None)
        seen.update(c.rel for c in out or ())
    assert seen == {True, False, EQ, LE, LT}  # infeasible, feasible, every relation
    with monkeypatch.context() as m:
        m.setattr(polyhedra, "_ROW_CAP", 6)
        outcomes = [(_outcome(polyhedra._eliminate, rows, elim),
                     _outcome(_reference_eliminate, rows, elim)) for rows, elim in systems]
    capped = 0
    for (rows, elim), (out, ref) in zip(systems, outcomes):
        # either side may cap where the other does not: each picks the
        # elimination order from the rows it keeps
        if "row cap" not in (out, ref):
            assert _same_set(out, ref), (rows, elim)
        capped += out == "row cap"
    assert 0 < capped < len(systems)


def _two_variable_system(rng):
    """Pruned rows over ``A`` and ``B`` or ``A`` alone, with coefficients
    up to 3 or up to 10**6: zero to two equalities (the second one random,
    a multiple of the first or parallel to it with another constant),
    strict and non-strict inequalities, and opposite bounds at one value."""
    names = ("A", "B") if rng.random() < 0.8 else ("A",)
    big = rng.choice([3, 10**6])

    def lhs():
        while True:
            cs = {v: rng.randint(-big, big) for v in names if rng.random() < 0.8}
            if any(cs.values()):
                return cs
    rows = []
    for i in range(rng.choice([0, 0, 1, 2])):
        cs, k = lhs(), rng.randint(-2 * big, 2 * big)
        if i and rng.random() < 0.6:
            m = rng.choice([-2, 1, 3])
            cs = {v: m * c for v, c in first[0].items()}
            k = m * first[1] + (0 if rng.random() < 0.5 else rng.choice([-1, 1]))
        first = cs, k
        rows.append(C(cs, k, EQ))
    for _ in range(rng.randint(0, 5)):
        rows.append(C(lhs(), rng.randint(-2 * big, 2 * big), rng.choice([LE, LT])))
    if rng.random() < 0.3:  # lhs + k bounded from both sides at 0
        cs, k = lhs(), rng.randint(-big, big)
        rows += [C(cs, k, LE), C({v: -c for v, c in cs.items()}, -k, rng.choice([LE, LT]))]
    return polyhedra._prune(rows)


def test_two_variable_sat_matches_reference_elimination(monkeypatch):
    hand = [([C({"A": 2}, -1, EQ)], True),  # A = 1/2
            ([C({"A": -1}, 1), C({"A": 1}, -1), C({"A": 1}, -1, LT)], False),
            ([C({"A": -1, "B": 1}, 1), C({"A": 1, "B": -1}, 0)], False),
            ([C({"A": -1}, 1), C({"A": 1}, -1)], True),
            ([C({"A": 1, "B": -1}, 0, EQ), C({"A": 2, "B": -2}, 1, EQ)], False),
            ([C({"A": 1, "B": 1}, -1, EQ), C({"A": 1, "B": -1}, 0, EQ), C({"A": -1}, 1)], False),
            # after the substitution, two upper (lower) bounds at 1, one strict
            ([C({"A": 1, "B": -1}, 0, EQ), C({"A": -1}, 1), C({"A": 1}, -1), C({"B": 1}, -1, LT)],
             False),
            ([C({"A": 1, "B": -1}, 0, EQ), C({"A": 1}, -1), C({"A": -1}, 1), C({"B": -1}, 1, LT)],
             False)]
    rng = random.Random(30)
    systems = [_two_variable_system(rng) for _ in range(2400)]
    expected = [_reference_eliminate(list(rows), {"A", "B"}) is not None for rows in systems]
    monkeypatch.setattr(polyhedra, "_eliminate", None)  # no system reaches it
    for rows, want in hand + list(zip(systems, expected)):
        rows = polyhedra._prune(rows)
        with memo():
            assert polyhedra._sat(rows) == want, rows
        # reversed, the rows pick another equality or pairing variable
        assert polyhedra._sat_two(rows[::-1]) == want, rows
    assert 1000 < sum(expected) < 1400  # of 2400
    assert {sum(r.rel == EQ for r in rows) for rows in systems} == {0, 1, 2}
    assert any(r.rel == LT for rows in systems for r in rows)


def test_three_variable_sat_reaches_elimination(monkeypatch):
    calls = []
    eliminate = polyhedra._eliminate

    def counting(rows, elim):
        calls.append(rows)
        return eliminate(rows, elim)
    monkeypatch.setattr(polyhedra, "_eliminate", counting)
    rows = polyhedra._prune([C({"A": 1, "B": -1}, 0), C({"B": 1, "C": -1}, 0),
                             C({"C": 1, "A": -1}, 1)])  # A =< B =< C =< A - 1
    with memo():
        assert not polyhedra._sat(rows)
    assert len(calls) == 1


def _reference_covered(rows, heads) -> bool:
    """Coverage by DNF expansion: a point outside every head satisfies one
    negation of one row of each head, so ``rows`` are covered iff each
    choice of one such negation per head, with ``rows``, is empty."""
    negated = [[n for c in head for n in c.negations()] for head in heads]
    return all(_reference_empty(list(rows) + list(pick)) for pick in itertools.product(*negated))


def _coverage_case(rng, rows=None):
    """Pruned rows over ``x`` and ``y``, nonempty ones drawn when ``rows``
    is None, and zero to three heads, each a random polyhedron, some rows
    of ``rows`` with their bounds moved, or one side of a line whose other
    side another head may hold."""
    dims = ("x", "y")
    while rows is None:
        rows = random_poly(rng, dims, rng.randint(1, 4)).constraints
        if _reference_empty(list(rows)):
            rows = None
    heads = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.random()
        if kind < 0.4:
            head = random_poly(rng, dims, rng.randint(1, 3)).constraints
        elif kind < 0.7:
            head = [C(dict(r.terms), r.const + rng.randint(-1, 1), rng.choice([r.rel, LE, LT]))
                    for r in rows if rng.random() < 0.7]
        else:
            c = random_constraint(rng, dims)
            side = C({v: -k for v, k in c.terms}, -c.const, rng.choice([LE, LE, LT]))
            head = [rng.choice([c, side])]
        heads.append(poly(dims, *head).constraints)
    return rows, tuple(heads)


# empty pruned rows: bottom, ``{x>=1, x=<0}``, which ``_prune`` keeps, and
# two-variable systems that only elimination finds infeasible
_EMPTY_ROWS = [poly(("x", "y"), *rows).constraints for rows in (
    [FALSE],
    [C({"x": -1}, 1), C({"x": 1}, 0)],
    [C({"x": -1, "y": 1}, 1), C({"x": 1, "y": -1}, 0)],
    [C({"x": 1, "y": 1}, -2, EQ), C({"x": 1}, 0), C({"y": 1}, 0, LT)])]


def test_coverage_matches_reference_expansion():
    rng = random.Random(32)
    cases = [_coverage_case(rng) for _ in range(600)]
    cases += [_coverage_case(rng, rows) for rows in _EMPTY_ROWS for _ in range(40)]
    outcomes = Counter()
    for i, (rows, heads) in enumerate(cases):
        want = _reference_covered(rows, heads)
        with memo() if i % 2 else contextlib.nullcontext():
            assert polyhedra._covered(rows, heads) == want, (rows, heads)
        outcomes[len(heads), want] += 1
    # empty rows are covered by any heads, none included
    assert all(_reference_covered(rows, heads) for rows, heads in cases[600:])
    assert {len(heads) for _, heads in cases[600:]} == {0, 1, 2, 3}
    # every head count gives both answers, more than 20 times from one head on
    assert outcomes[0, True] and outcomes[0, False], outcomes
    assert min(outcomes[n, w] for n in (1, 2, 3) for w in (True, False)) > 20, outcomes
    head_rows = [r for _, heads in cases for h in heads for r in h]
    assert {r.rel for r in head_rows} == {EQ, LE, LT}
    assert any(r.rel == LT for rows, _ in cases for r in rows)


def test_coverage_asked_by_solves_matches_reference_expansion(fib, tree3, monkeypatch):
    # each coverage question that two solves ask, answered again outside
    # their table, as the DNF expansion answers it
    calls = {}
    covered = polyhedra._covered

    def recording(rows, heads):
        calls[rows, heads] = out = covered(rows, heads)
        return out
    monkeypatch.setattr(polyhedra, "_covered", recording)
    monkeypatch.setattr(models, "_covered", recording)
    for p, cfg in ((fib, Config()), (tree3, Config(max_k=4))):
        solve(p, cfg)
    for (rows, heads), got in calls.items():
        assert got == covered(rows, heads) == _reference_covered(rows, heads), (rows, heads)
    assert set(calls.values()) == {True, False} and len(calls) > 400
    head_rows = {sum(map(len, heads)) for _, heads in calls}
    assert 1 in head_rows and max(head_rows) > 1


def _rows(text):
    """Constraints read back exactly from ``render_constraint`` text, which
    the program parser would not do: it reads ``<`` as ``=<`` with the
    bound moved by one."""
    out = []
    for item in text.split(", "):
        lhs, rel, rhs = re.fullmatch(r"(.+?)(=<|>=|<|>|=)(.+)", item).groups()
        (lc, lk), (rc, rk) = _Parser(lhs).linexpr(), _Parser(rhs).linexpr()
        coeffs = {v: lc.get(v, 0) - rc.get(v, 0) for v in lc.keys() | rc.keys()}
        const = lk - rk
        if rel in (">=", ">"):
            coeffs, const = {v: -k for v, k in coeffs.items()}, -const
        c = Constraint.make(coeffs, const, {"=": EQ, "=<": LE, ">=": LE}.get(rel, LT))
        assert repr(c) == item
        out.append(c)
    return out


@pytest.mark.parametrize("text", [
    "B=<2, 2*B+2*C-D>=0, A-C+D>=0, A+D<2, B+D>1, B+2*D>= -1, 2*B+C< -1, C-D>1",
    "A-B-C=0, A+B+C-D= -1, B-C+E=1, A-B-E>=1, A=<0, B-D<0, B+D+E=<0, E>1",
])
def test_masked_prune_keeps_rows_chernikov_needs(text):
    # a prune that kept the stronger row's mask, whatever the masks, called
    # both systems satisfiable
    rows = _rows(text)
    assert _reference_empty(rows)
    assert polyhedra._eliminate(rows, {"A", "B", "C", "D", "E"}) is None


# masked rows over a few shared left-hand sides, the constant one included
# and one parallel to another, so that keys repeat and masks overlap, nest
# and differ
_MASKED_ROWS = st.lists(st.tuples(
    st.sampled_from([(0, 0), (1, 0), (2, 0), (1, -1), (2, 3)]),
    st.integers(-2, 2), st.sampled_from([EQ, LE, LT]), st.integers(1, 15)),
    max_size=10)


@given(_MASKED_ROWS)
def test_masked_prune_merges_each_key_into_its_strongest_row(rows):
    out = polyhedra._prune_masked(rows)
    false = any(not any(lhs) and not {EQ: k == 0, LE: k <= 0, LT: k < 0}[rel]
                for lhs, k, rel, _ in rows)
    assert (out is None) == false
    if false:
        return

    def key(row):
        if row[2] == EQ:
            return row[0], row[1]
        g = math.gcd(*row[0])
        return tuple(k // g for k in row[0])  # the direction
    kept = {key(r): r for r in out}
    assert len(kept) == len(out)  # at most one row per key
    for r in rows:
        if not any(r[0]):
            continue
        lhs, k, rel, mask = r
        o = kept[key(r)]
        # ``o`` implies ``r``: over their common direction, its bound is
        # larger, or equal with the same or a strict relation; and the kept
        # row's mask lets through every combination that ``r``'s would
        mine, theirs = Fraction(o[1], math.gcd(*o[0])), Fraction(k, math.gcd(*lhs))
        assert mine > theirs or mine == theirs and (o[2] == rel or o[2] == LT)
        assert o[3] & ~mask == 0


def test_hull_of_a_pair_that_passed_the_row_cap():
    # without the redundancy filter the simplify after this hull's
    # elimination generated more than 200 000 rows
    a = poly(("A", "B", "C"), *_rows("A-2*B-4*C=2, 2*A>= -1, 2*A<1, 2*B=< -1"))
    b = poly(("A", "B", "C"), *_rows("A+4*B>1, A+2*C>= -1, A-4*C<4, 3*A+3*C=< -1"))
    h = a.hull(b)
    assert a.entails(h) and b.entails(h)


def test_hull_that_kept_parallel_rows_passes_the_row_cap():
    # the masked prune kept ``3*A>=2`` next to ``2*A>=1``, and the simplify
    # after this hull's elimination raised RowCapExceeded on 212 lifted rows
    dims = ("A", "B", "C")
    a = poly(dims, *_rows("39*A+62*B-90*C>=39, 24*A-8*B-15*C>= -26, 6*A-2*B-9*C>= -3, "
                          "3*A+4*B>= -2, 6*A-8*B=<3, 15*A-20*B+18*C=<15, 2*B>=1, C=<1"))
    q = poly(dims, *_rows("A-B-2*C=2, 3*A>=2, 2*A>=1, A-4*B+2*C<4, 2*A-2*B-3*C=<3"))
    h = a.hull(q)
    assert len(h.constraints) == 9
    assert a.entails(h) and q.entails(h)


def test_hull_chain_rows_do_not_depend_on_the_order():
    # the fixpoint's hull chains take images in clause order; the rows they
    # give do not depend on that order, because each left-to-right order of
    # a chain of nonempty operands gives the same rows
    rng = random.Random(71)
    seen = set()
    for _ in range(400):
        dims = ("A", "B", "C")[:rng.randint(1, 3)]
        ops = []
        for _ in range(rng.randint(2, 4)):
            p = random_poly(rng, dims, rng.randint(1, 3))
            while p.is_empty():
                p = random_poly(rng, dims, rng.randint(1, 3))
            ops.append(p)
        seen.update(r.rel for p in ops for r in p.constraints)
        with memo():
            chains = {functools.reduce(Polyhedron.hull, order)
                      for order in itertools.permutations(ops)}
        assert len(chains) == 1, ops
    assert seen == {EQ, LE, LT}


def test_hull_matches_reference_elimination(monkeypatch):
    rng = random.Random(5)
    pairs = [(random_poly(rng, ("A", "B", "C")), random_poly(rng, ("A", "B", "C")))
             for _ in range(1000)]
    monkeypatch.setattr(polyhedra, "_ROW_CAP", 1000)
    hulls = [a.hull(b) for a, b in pairs]  # the kernel finishes every pair
    monkeypatch.setattr(polyhedra, "_eliminate", _reference_eliminate)
    capped = 0
    for (a, b), h in zip(pairs, hulls):
        try:
            # fresh operands, so that no cached ``sat`` answers for the reference
            ref = Polyhedron(a.dims, a.constraints).hull(Polyhedron(b.dims, b.constraints))
        except polyhedra.RowCapExceeded:
            capped += 1
            continue
        assert h == ref, (a, b)
    assert capped > 0


def _reference_lifted(a, b):
    """The rows ``_hull`` hands to ``_eliminate``, built as they were,
    through ``Constraint.make``."""
    y = {d: f"{d}#1" for d in a.dims}
    z = {d: f"{d}#2" for d in a.dims}
    rows = []
    for p, copy, s in ((a, y, "#s1"), (b, z, "#s2")):
        for r in p.constraints:
            coeffs = {copy[v]: k for v, k in r.terms}
            coeffs[s] = r.const
            rows.append(C(coeffs, 0, LE if r.rel == LT else r.rel))
    rows += [C({d: 1, y[d]: -1, z[d]: -1}, 0, EQ) for d in a.dims]
    return rows + [C({"#s1": 1, "#s2": 1}, -1, EQ), C({"#s1": -1}, 0), C({"#s2": -1}, 0)]


def _reference_decompose(rows):
    """``polyhedra._decompose`` as it was, through ``Constraint.make``."""
    out = []
    for c in rows:
        if c.rel == EQ:
            out += [C(dict(c.terms), c.const, LE), C({v: -k for v, k in c.terms}, -c.const, LE)]
        else:
            out.append(c)
    return out


def test_derived_rows_equal_the_rows_make_builds(monkeypatch):
    # rows built directly in normal form equal those ``Constraint.make``
    # builds from the same coefficients, over names that are prefixes of
    # one another
    lifted = []
    eliminate = polyhedra._eliminate

    def recording(rows, elim):
        if sys._getframe(1).f_code.co_name == "_hull":
            lifted.append(rows)
        return eliminate(rows, elim)
    monkeypatch.setattr(polyhedra, "_eliminate", recording)
    rng = random.Random(83)
    strict = negative_eqs = merged = hulls = nested = 0
    for _ in range(300):
        a, b = (_with_mates(rng, random_poly(rng, PREFIX_NAMES, rng.randint(1, 4)))
                for _ in range(2))
        for p in (a, b):
            assert polyhedra._recombine(p.constraints) == _reference_recombine(p.constraints)
            assert polyhedra._decompose(p.constraints) == _reference_decompose(p.constraints)
            strict += sum(r.rel == LT for r in p.constraints)
            negative_eqs += sum(r.rel == EQ and r.const < 0 for r in p.constraints)
            merged += len(p.constraints) - len(polyhedra._recombine(p.constraints))
        if a.is_empty() or b.is_empty():
            continue  # the hull lifts no rows
        lifted.clear()
        a.hull(b)
        if any(_closed(outer) and inner.entails(outer) for inner, outer in ((a, b), (b, a))):
            assert lifted == [], (a, b)  # nested: the hull is the outer operand
            nested += 1
        else:
            assert lifted == [_reference_lifted(a, b)], (a, b)
        hulls += 1
    assert min(strict, negative_eqs, merged, hulls) > 100 and nested > 0


# --- hulls and projections whose answer needs no elimination -------------

def _counting_eliminate(monkeypatch):
    """Patch ``_eliminate`` to record the rows of each call; returns the list."""
    calls = []
    eliminate = polyhedra._eliminate

    def counting(rows, elim):
        calls.append(rows)
        return eliminate(rows, elim)
    monkeypatch.setattr(polyhedra, "_eliminate", counting)
    return calls


def _closed(p) -> bool:
    return all(r.rel != LT for r in p.constraints)


def _row_through(rng, point, rel, slack=0):
    """A row over ``A`` and ``B`` that ``point`` satisfies with ``slack`` to spare."""
    while True:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if a or b:
            return C({"A": a, "B": b}, -(a * point[0] + b * point[1]) - slack, rel)


def _parallel(r, q) -> bool:
    (a, b), (c, d) = ([dict(x.terms).get(v, 0) for v in "AB"] for x in (r, q))
    return a * d == b * c


def _outer_operand(rng, kind):
    """A nonempty polyhedron over ``A`` and ``B`` around an integer point:
    the point, a segment or a ray on a line through it, or a full-dimensional
    one (each row with room to spare at the point), with or without a strict
    row."""
    point = rng.randint(-3, 3), rng.randint(-3, 3)
    while kind in ("full", "strict"):
        rows = [_row_through(rng, point, LE, rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        if kind == "strict":
            rows[0] = rows[0]._replace(rel=LT)
        out = poly(("A", "B"), *rows)
        if _closed(out) == (kind == "full"):  # a stronger row may prune the strict one
            return out
    line = across = _row_through(rng, point, EQ)
    while _parallel(line, across):
        across = _row_through(rng, point, EQ)
    if kind == "point":
        return poly(("A", "B"), line, across)
    # ``across`` bounds the line on one side, or on both for a segment
    rows = [line, across._replace(rel=LE)]
    if kind == "segment":
        rows.append(C({v: -k for v, k in across.terms}, -across.const - rng.randint(1, 2)))
    return poly(("A", "B"), *rows)


def _nested_case(rng, kind):
    """``(inner, outer)``: an outer operand of ``kind``, and the outer one
    with one or two random rows added, kept when nonempty."""
    outer = _outer_operand(rng, kind)
    while True:
        rows = outer.constraints + tuple(random_constraint(rng, ("A", "B"), (-3, 3))
                                         for _ in range(rng.randint(1, 2)))
        if not _reference_empty(list(rows)):
            return poly(("A", "B"), *rows), outer


def _reference_inside(p, q) -> bool:
    """Whether ``p`` lies inside ``q``, decided by the reference."""
    return all(_reference_empty(list(p.constraints) + [n])
               for c in q.constraints for n in c.negations())


_LIFTED = {"A#1", "B#1", "A#2", "B#2", "#s1", "#s2"}


def test_nested_hull_is_the_closed_outer_operand(monkeypatch):
    # the closed hull of nested operands is the closure of the outer one;
    # for a full-dimensional outer operand its simplified rows are the
    # facets, so they are exactly the rows Fourier-Motzkin gives
    calls = _counting_eliminate(monkeypatch)
    rng = random.Random(33)
    kinds, eliminated = Counter(), Counter()
    for kind in ("point", "segment", "ray", "full", "strict") * 64:
        inner, outer = _nested_case(rng, kind)
        for a, b in ((inner, outer), (outer, inner)):
            # the first closed operand, in the order ``b`` then ``a``, that
            # holds the other; with equal sets ``inner`` may come first
            rule = next((o for i, o in ((a, b), (b, a)) if _closed(o) and _reference_inside(i, o)),
                        None)
            calls.clear()
            h = Polyhedron(a.dims, a.constraints).hull(Polyhedron(b.dims, b.constraints))
            # simplified operands describe the same sets with fewer rows, so
            # that the reference, which drops no redundant row, stays small
            ref = _reference_eliminate(_reference_lifted(a.simplify(), b.simplify()), _LIFTED)
            assert _same_set(list(h.constraints), ref), (a, b)
            if rule is None:
                assert len(calls) == 1, (a, b)  # the lifted rows, eliminated
            else:
                assert calls == [] and h.constraints == rule.simplify().constraints, (a, b)
            if kind == "full":
                assert h == Polyhedron(h.dims, ref).simplify(), (a, b)
            kinds[kind, rule is outer] += 1
            eliminated[kind] += len(calls)
    # every closed kind is answered by its outer operand, and a strict outer
    # operand mostly goes through the elimination
    assert min(kinds[kind, True] for kind in ("point", "segment", "ray", "full")) > 60, kinds
    assert kinds["strict", True] == 0 and eliminated["strict"] > 100, (kinds, eliminated)


def _projection_case(rng):
    """Pruned rows over ``A`` and ``B`` or ``A`` alone, some with a row
    parallel to an inequality at twice its coefficients, and a ``keep`` that
    holds every name of the rows or none of them."""
    rows = list(_two_variable_system(rng))
    ineqs = [r for r in rows if r.rel != EQ]
    if ineqs and rng.random() < 0.4:
        r = rng.choice(ineqs)
        rows.append(C({v: 2 * k for v, k in r.terms}, 2 * r.const + rng.choice([-1, 1]), LE))
    keep = rng.choice([("A", "B"), ("B", "A", "Z"), (), ("Z",)])
    return polyhedra._prune(rows), keep


def test_projection_exits_match_the_elimination(monkeypatch):
    eliminate = polyhedra._eliminate

    def eliminated(rows, keep):
        out = eliminate(list(rows), {v for r in rows for v, _ in r.terms}.difference(keep))
        out = None if out is None else polyhedra._prune(out)
        return out if out is not None and polyhedra._sat(out) else None
    rng = random.Random(34)
    hand = [(polyhedra._prune([C({"A": 2, "B": 2}, -3), C({"A": 1, "B": 1}, -1)]), keep)
            for keep in (("A", "B"), ())]
    cases = hand + [_projection_case(rng) for _ in range(1500)]
    expected = [eliminated(rows, keep) for rows, keep in cases]
    calls = _counting_eliminate(monkeypatch)
    outcomes = Counter()
    for (rows, keep), want in zip(cases, expected):
        calls.clear()
        got = polyhedra._project(rows, keep)
        assert calls == [], (rows, keep)  # nothing or everything is eliminated
        if "A" in keep and want is not None:
            # the pruned rows, parallel ones included, are the projection
            assert got == rows and _same_set(list(got), list(want)), (rows, keep)
        else:
            assert got == want, (rows, keep)
        parallel = any(r.rel != EQ and math.gcd(*[k for _, k in r.terms]) > 1 for r in rows)
        outcomes["A" in keep, want is None, parallel] += 1
    # both exits, feasible and not, with and without a coefficient gcd above 1
    assert len(outcomes) == 8 and min(outcomes.values()) > 10, outcomes
    # the hand case keeps both parallel rows, which elimination merges
    assert polyhedra._project(*hand[0]) == hand[0][0] and len(hand[0][0]) == 2
    assert expected[0] == polyhedra._prune([C({"A": 1, "B": 1}, -1)])


# --- deadline ------------------------------------------------------------

def _box():
    # a fresh polyhedron each call, so no per-instance cache answers ``sat``
    return poly(("A", "B"), C({"A": -1}, 0), C({"A": 1}, -1), C({"A": 1, "B": -1}, 0))


def test_sat_times_out_only_inside_a_block():
    with memo(deadline=time.monotonic() - 1.0):
        with pytest.raises(SolverTimeout):
            _box().sat()
    assert _box().sat()


def test_nested_memo_inherits_the_deadline():
    with memo(deadline=time.monotonic() - 1.0):
        with memo():
            with pytest.raises(SolverTimeout):
                _box().sat()


def test_no_deadline_or_table_after_a_block():
    with memo(deadline=time.monotonic() + 60.0):
        assert _box().sat()
    assert (polyhedra._MEMO.get(), polyhedra._DEADLINE.get()) == (None, None)
    with pytest.raises(SolverTimeout):
        with memo(deadline=time.monotonic() - 1.0):
            _box().sat()
    assert (polyhedra._MEMO.get(), polyhedra._DEADLINE.get()) == (None, None)
    assert _box().sat()


def test_deadline_passes_inside_one_elimination(monkeypatch):
    names = tuple(f"X{i}" for i in range(6))
    chain = [C({a: 1, b: -1}, 0) for a, b in zip(names, names[1:])]  # X0 =< ... =< X5
    reads = []

    def clock():  # passes the deadline of 5.0 from its third read on
        reads.append(None)
        return 0.0 if len(reads) < 3 else 10.0

    monkeypatch.setattr(time, "monotonic", clock)
    with memo(deadline=float("inf")):
        assert poly(names, *chain).sat()
    full = len(reads)  # one read on entry and one per elimination step
    reads.clear()
    with memo(deadline=5.0):
        with pytest.raises(SolverTimeout):
            poly(names, *chain).sat()
    assert len(reads) == 3 < full
