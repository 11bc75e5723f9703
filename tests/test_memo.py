"""The per-solve memo of the pure polyhedral operations.

Memoized results must equal computed ones, a solve must give the same
outcome with and without the memo, and the table must never outlive the
``memo()`` block that installed it.
"""

import contextlib
import random
from collections import Counter

import pytest

from dimsolve import driver, linear_solver, models, polyhedra
from dimsolve.driver import Config, solve
from dimsolve.polyhedra import (DimensionMismatch, Polyhedron, RowCapExceeded,
                                 SplitBudgetExceeded, memo)
from dimsolve.terms import EQ

from conftest import C, poly, random_constraint, random_poly, random_program

DIMS = ("A", "B", "C")
SWAP = {"A": "X", "C": "A"}  # reorders the names of a row


def _outcome(p, cfg):
    out = solve(p, cfg)
    return (out.status, out.reason, out.k_reached,
            out.model.render() if out.model is not None else None,
            [(e["clauses"], e["solved"], e["violated"]) for e in out.stats])


def _programs(fib, tree3):
    rng = random.Random(29)  # solved at k=0 and 1, not-solved and max-k
    return ([(fib, Config()), (tree3, Config(max_k=4))]
            + [(random_program(rng), Config(max_k=3)) for _ in range(12)])


def test_solve_outcomes_equal_without_memo(fib, tree3, monkeypatch):
    programs = _programs(fib, tree3)
    memoized = [_outcome(p, cfg) for p, cfg in programs]
    monkeypatch.setattr(driver, "memo", contextlib.nullcontext)
    monkeypatch.setattr(linear_solver, "memo", contextlib.nullcontext)
    plain = [_outcome(p, cfg) for p, cfg in programs]
    assert memoized == plain


def test_solve_computes_each_clause_image_once(fib, tree3, monkeypatch):
    # the fixpoint rounds, the soundness gate and the inductiveness check
    # ask for the same images; the table answers every repeat
    compute = models._head_image
    for p, cfg in ((fib, Config()), (tree3, Config(max_k=4))):
        computed = Counter()

        def counted(clause, chosen):
            computed[clause, chosen] += 1
            return compute(clause, chosen)
        with monkeypatch.context() as m:
            m.setattr(models, "_head_image", counted)
            solve(p, cfg)
        assert computed and max(computed.values()) == 1


def test_coverage_after_entailment_asks_no_new_sat(monkeypatch):
    # each region piece is the body with one negated head row, the rows
    # that ``entails`` tested, so the coverage check only reads the table
    body = poly(("A", "B"), C({"A": -1}, 0), C({"B": -1}, 0), C({"A": 1, "B": 1}, -5))
    head = poly(("A", "B"), C({"A": 1}, -5), C({"B": 1}, -5))  # A =< 5, B =< 5
    # neither head row is a row of the body, so both need an elimination
    assert not any(polyhedra._row_entails(body.constraints, c) for c in head.constraints)
    asked = []
    memoized = polyhedra._memoized

    def recorded(key, compute):
        asked.append(key)
        return memoized(key, compute)
    key = ("covered", body.constraints, (head.constraints,))
    with memo() as table:
        assert body.entails(head)
        stored = set(table)
        # ``entails`` stored the coverage answer; drop it so that the
        # pieces are split again
        assert table.pop(key) is True
        monkeypatch.setattr(polyhedra, "_memoized", recorded)
        assert polyhedra._covered(body.constraints, (head.constraints,))
    sats = [key for key in asked if key[0] == "sat"]
    assert len(sats) == 2 and set(sats) <= stored


def test_repeated_coverage_check_reads_one_key(monkeypatch):
    # the body less the first head leaves A > 2, which the second covers
    body = poly(("A", "B"), C({"A": -1}, 0), C({"A": 1}, -5), C({"A": 1, "B": -1}, 0, EQ))
    heads = (poly(("A", "B"), C({"A": 1}, -2)).constraints,
             poly(("A", "B"), C({"A": -1}, 2)).constraints)
    key = ("covered", body.constraints, heads)
    asked = []
    memoized = polyhedra._memoized

    def recorded(key, compute):
        asked.append(key)
        return memoized(key, compute)
    with memo() as table:
        assert polyhedra._covered(body.constraints, heads)
        assert table[key] is True
        monkeypatch.setattr(polyhedra, "_memoized", recorded)
        assert polyhedra._covered(body.constraints, heads)
    assert asked == [key]
    monkeypatch.setattr(polyhedra, "_SPLIT_BUDGET", 0)
    with memo() as table:
        with pytest.raises(SplitBudgetExceeded):
            polyhedra._covered(body.constraints, heads)
        assert key not in table


def _ops(a, b):
    """Every memoized operation on a pair, or the exception type it raised."""
    out = []
    for op in (lambda: a.sat(), lambda: a.project(("A", "C")), lambda: a.project(("B",)),
               lambda: a.hull(b), lambda: a.simplify(), lambda: a.rename(SWAP),
               lambda: a.entails(b),
               lambda: Polyhedron(a.dims, a.constraints + b.constraints).entails(a)):
        try:
            out.append(op())
        except RowCapExceeded as e:
            out.append(type(e))
    return out


def _fresh(p):
    # an equal but distinct polyhedron, so no per-instance cache answers
    return Polyhedron(p.dims, p.constraints)


def test_memoized_operations_equal_computed_ones():
    rng = random.Random(11)
    for _ in range(60):
        a, b = random_poly(rng, DIMS, 3), random_poly(rng, DIMS, 3)
        computed = _ops(_fresh(a), _fresh(b))
        with memo() as table:
            first = _ops(_fresh(a), _fresh(b))
            assert ("covered", a.constraints, (b.constraints,)) in table
            stored = len(table)
            second = _ops(_fresh(a), _fresh(b))
            assert len(table) == stored  # the second round only reads
        assert computed == first == second


def test_known_sat_equals_a_fresh_sat():
    # a renamed polyhedron inherits no ``sat``: it knows only what building
    # its rows told it; a simplified one starts out known
    rng = random.Random(17)
    known = 0
    for _ in range(80):
        a = random_poly(rng, DIMS, rng.randint(1, 5))
        for block in (contextlib.nullcontext, memo):
            with block():
                p = _fresh(a)
                p.sat()
                renamed = p.rename(SWAP)
                assert renamed._sat is _fresh(renamed)._sat, a
                for q in (renamed, _fresh(a).simplify()):
                    if q._sat is not None:
                        known += 1
                        assert q._sat == _fresh(q).sat(), (a, q)
    assert known >= 178


def test_entailment_builds_no_polyhedra(monkeypatch):
    # entailment is decided on rows: asking a polyhedron again builds
    # nothing, and ``simplify`` builds only its result, by either constructor
    built = []
    init, trusted = Polyhedron.__init__, Polyhedron._trusted

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    def counting_trusted(*args):
        built.append(trusted(*args))
        return built[-1]
    rng = random.Random(59)
    for block in (contextlib.nullcontext, memo):
        for _ in range(60):
            p = random_poly(rng, DIMS, rng.randint(1, 5))
            cands = [random_constraint(rng, DIMS) for _ in range(6)] + list(p.constraints)
            with block():
                asked = [p.entails_constraint(c) for c in cands]
                q = _fresh(p)
                with monkeypatch.context() as m:
                    m.setattr(Polyhedron, "__init__", counting)
                    m.setattr(Polyhedron, "_trusted", staticmethod(counting_trusted))
                    assert [p.entails_constraint(c) for c in cands] == asked
                    assert built == []
                    s = q.simplify()
                    assert len(built) == 1 and built[0] is s
                    built.clear()


def test_simplify_is_its_own_fixed_point():
    # a simplified polyhedron simplifies to itself
    rng = random.Random(53)
    for _ in range(100):
        a = random_poly(rng, DIMS, rng.randint(1, 6))
        s = _fresh(a).simplify()
        assert _fresh(s).simplify() == s, a


def test_no_table_after_solve(fib_bench, monkeypatch):
    assert solve(fib_bench).solved
    assert polyhedra._MEMO.get() is None
    monkeypatch.setattr(polyhedra, "_ROW_CAP", 0)
    out = solve(fib_bench)
    assert (out.status, out.reason) == ("unknown", RowCapExceeded.reason)
    assert polyhedra._MEMO.get() is None


def test_nested_memo_reuses_the_outer_table():
    with memo() as outer:
        with memo() as inner:
            assert inner is outer
        assert polyhedra._MEMO.get() is outer
    assert polyhedra._MEMO.get() is None


def test_raised_operation_stores_nothing(monkeypatch):
    monkeypatch.setattr(polyhedra, "_ROW_CAP", 0)
    box = poly(("A",), C({"A": -1}, 0), C({"A": 1}, -1))  # 0 =< A =< 1
    with memo() as table:
        with pytest.raises(RowCapExceeded):
            box.sat()
        assert table == {}
    # each side's ``sat`` eliminates A without combining a row, but the
    # hull's lifted elimination combines rows and raises
    a = poly(("A",), C({"A": -1}, 0))  # A >= 0
    b = poly(("A",), C({"A": -1}, 1))  # A >= 1
    with memo() as table:
        with pytest.raises(RowCapExceeded):
            a.hull(b)
        assert {key[0] for key in table} == {"sat"}
    # ``entails`` checks the dimensions before the lookup
    with memo() as table:
        with pytest.raises(DimensionMismatch):
            a.entails(poly(("B",), C({"B": -1}, 0)))
        assert table == {}
