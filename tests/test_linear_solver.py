import inspect
import random

from dimsolve import linear_solver
from dimsolve.driver import solve
from dimsolve.kdim import kdim
from dimsolve.linear_solver import solve_linear, step
from dimsolve.models import (Model, head_image, linearize, satisfies_program,
                             violations)
from dimsolve.parser import parse
from dimsolve.polyhedra import Polyhedron, memo
from dimsolve.syntax import ATMOST, EXACT, Atom, Clause, PredRef, Program, Var
from dimsolve.terms import EQ, LT

from conftest import (GRAZE_SRC, C, false_feasible_without_narrowing, poly,
                      random_program)

SEG0 = poly(("A", "B"), C({"A": -1}, 0), C({"A": 1}, -1), C({"A": 1, "B": -1}, 0, EQ))


def test_solves_nonlinear_program(fib, fib_bench):
    # nothing in the engine needs one body atom per clause; the convex
    # fixpoint solves benchmarks/fib.pl but not its ``B = A`` variant
    v = solve_linear(fib_bench)
    assert v.solved
    assert violations(v.model, fib_bench) == []
    assert solve_linear(fib).reason == "false variant reachable in the abstraction"


def test_soundness_gate_failure_goes_to_trace(monkeypatch, capsys, fib_bench):
    # the verdict's reason is the only report, and the level's record carries it
    monkeypatch.setattr(linear_solver, "satisfies_program", lambda model, p: False)
    assert solve_linear(fib_bench).reason == "soundness gate failed"
    records = []
    out = solve(fib_bench, trace=records.append)
    assert capsys.readouterr().err == ""
    assert records == list(out.stats)
    assert (records[-1]["solved"], records[-1]["reason"]) == (
        False, "soundness gate failed")


def test_verdict_counts_its_rounds():
    verdict = solve_linear(parse(GRAZE_SRC))
    assert verdict.solved
    assert verdict.rounds > 0 and verdict.narrowing > 0


def test_solve_linear_takes_no_trace():
    assert list(inspect.signature(solve_linear).parameters) == ["p"]


def test_step_from_empty_fires_facts_only(fib):
    k0 = kdim(fib, 0)
    s1 = step(k0, {})
    assert set(s1) == {PredRef("fib", EXACT, 0)}
    got = s1[PredRef("fib", EXACT, 0)]
    assert got.entails(SEG0) and SEG0.entails(got)


def test_second_step_fires_bookkeeping(fib):
    k0 = kdim(fib, 0)
    s2 = step(k0, step(k0, {}))
    assert PredRef("fib", ATMOST, 0) in s2
    assert not any(p.base == "false" for p in s2)


def test_step_empty_program():
    empty = {}
    assert step(parse(""), empty) is empty


def test_widening_schedule():
    # a predicate's first contribution is taken as it is, every later growth
    # is widened, and a round that grows nothing returns its input
    program = parse("p(X) :- X=0.\np(Y) :- Y=X+1, p(X).")
    p = PredRef("p")
    first = step(program, {})
    assert first[p] == poly(("A",), C({"A": 1}, 0, EQ))
    second = step(program, first)
    assert second[p] == poly(("A",), C({"A": -1}, 0))
    assert step(program, second) is second


def _hull_key(a, b):
    return "hull", a.dims, a.constraints, b.dims, b.constraints


def test_body_free_images_lead_each_hull_chain():
    # body-free images never change within a solve, so when they lead the
    # chain its prefix is a table hit: a round in which only the recursive
    # image changes computes only the hull after that prefix, and
    # ``old.hull``
    program = parse("p(Y) :- Y=X+1, p(X).\np(X) :- X=0.\np(X) :- X=5.\np(X) :- X=9.")
    p = PredRef("p")
    free = [c for c in program.clauses if not c.body]
    with memo() as table:
        first = step(program, {})
        images = linear_solver._images(program, first)[p]
        assert images[:3] == [head_image(c, ()) for c in free] and len(images) == 4
        prefix = images[0].hull(images[1]).hull(images[2])
        assert first[p] == prefix
        before = set(table)
        second = step(program, first)
        added = {key for key in table.keys() - before if key[0] == "hull"}
    assert second is not first
    assert added == {_hull_key(prefix, images[3]),
                     _hull_key(prefix, prefix.hull(images[3]))}


def test_solve_fib_level0(fib):
    v = solve_linear(kdim(fib, 0))
    assert v.solved
    exact = v.model.facts_for(PredRef("fib", EXACT, 0))
    atmost = v.model.facts_for(PredRef("fib", ATMOST, 0))
    assert len(exact) == len(atmost) == 1
    for f in (exact[0], atmost[0]):
        assert f.entails(SEG0) and SEG0.entails(f)
    assert not v.model.facts_for(PredRef("false", EXACT, 0))


def test_unsafe_program_not_solved():
    v = solve_linear(parse("false :- X>0, p(X).\np(X) :- X=1."))
    assert not v.solved


def test_widening_reaches_unbounded_invariant():
    v = solve_linear(parse("p(X) :- X=0.\np(Y) :- Y=X+1, p(X)."))
    (fact,) = v.model.facts_for(PredRef("p"))
    expected = poly(("A",), C({"A": -1}, 0))
    assert fact.entails(expected) and expected.entails(fact)


def test_soundness_gate_on_solved_models(fib, fib_bench):
    from dimsolve.models import linearize
    for p in (fib, fib_bench):
        level0 = kdim(p, 0)
        v0 = solve_linear(level0)
        assert v0.solved
        assert satisfies_program(v0.model, level0)
        level1 = linearize(kdim(p, 1), v0.model)
        v1 = solve_linear(level1)
        if v1.solved:
            assert satisfies_program(v1.model, level1)


def test_round_cap_within_budget(fib):
    """Stabilization within constraint-count + 9 rounds."""
    for program in (kdim(fib, 0), kdim(fib, 1),
                    parse("p(X) :- X=0.\np(Y) :- Y=X+1, p(X).")):
        if not all(len(c.body) <= 1 for c in program.clauses):
            continue
        cap = sum(len(c.constraint) for c in program.clauses) + 9
        state = {}
        rounds = 0
        while True:
            nxt = step(program, state)
            rounds += 1
            assert rounds <= cap, "fixpoint exceeded the round budget"
            if nxt is state:
                break
            state = nxt


def test_monotone_rounds_pre_widening(fib):
    """Per-predicate values only grow: a round joins into the old value, and
    widening is an upper bound of the join."""
    program = kdim(fib, 1)
    state = {}
    for _ in range(3):
        nxt = step(program, state)
        for pred, old in state.items():
            assert old.entails(nxt[pred])
        state = nxt


def test_narrowing_recovers_spurious_false():
    # the extrapolated interpretation grazes the error states; a descending
    # pass restores the exact bounded interpretation and proves them empty
    program = parse(GRAZE_SRC)
    assert false_feasible_without_narrowing(program)
    assert solve_linear(program).solved


def _level_programs(fib, tree3):
    rng = random.Random(83)
    return [fib, tree3, parse(GRAZE_SRC)] + [random_program(rng) for _ in range(10)]


def _solve_levels(programs) -> set[bool]:
    """Solve kdim levels 0-2 of each program, each linearized against the
    model of the levels below it; the linear verdicts seen."""
    outcomes = set()
    for p in programs:
        model = Model()
        for k in range(3):
            v = solve_linear(linearize(kdim(p, k, k), model))
            outcomes.add(v.solved)
            if not v.solved:
                break
            model.facts.update(v.model.facts)
    return outcomes


def test_no_interpretation_is_empty(monkeypatch, fib, tree3):
    # the rounds never test an interpretation for emptiness; this holds
    # them to it, in the ascending rounds (``step``, and the joins it
    # builds) and the narrowing rounds (``_contributions``), on kdim levels
    # 0-2 linearized.  A fresh copy is tested, so no carried ``sat`` answers
    calls = {"step": 0, "_contributions": 0}

    def empty(poly):
        return Polyhedron(poly.dims, poly.constraints).is_empty()

    def nonempty(name, fn):
        def wrapped(p, s):
            out = fn(p, s)
            calls[name] += 1
            assert not any(empty(poly) for poly in out.values())
            return out
        return wrapped

    def checked_join(polys, join=linear_solver._join):
        out = join(polys)
        assert not empty(out)
        return out
    monkeypatch.setattr(linear_solver, "step", nonempty("step", linear_solver.step))
    monkeypatch.setattr(linear_solver, "_contributions", nonempty(
        "_contributions", linear_solver._contributions))
    monkeypatch.setattr(linear_solver, "_join", checked_join)
    assert _solve_levels(_level_programs(fib, tree3)) == {True, False}
    assert calls["step"] > 0 and calls["_contributions"] > 0


def _reference_step(p, s):
    """``step`` as a join of every predicate's images, then one ``entails``
    test of the join against the old polyhedron."""
    joins = {}
    for c in p.clauses:
        interps = [s.get(atom.pred) for atom in c.body]
        if any(i is None for i in interps):
            continue
        poly = head_image(c, zip(c.body, interps))
        if poly is None:
            continue
        old = joins.get(c.head.pred)
        joins[c.head.pred] = poly if old is None else old.hull(poly)
    grown = {}
    for pred, poly in joins.items():
        old = s.get(pred)
        if old is None:
            grown[pred] = poly
        elif not poly.entails(old):
            grown[pred] = old.widen(old.hull(poly))
    return {**s, **grown} if grown else s


def _compared_step(monkeypatch):
    """Patch ``step`` to check every round against ``_reference_step``;
    the number of rounds checked."""
    rounds = [0]

    def compared(p, s, step=linear_solver.step):
        out = step(p, s)
        want = _reference_step(p, s)
        assert out == want and (out is s) == (want is s)
        rounds[0] += 1
        return out
    monkeypatch.setattr(linear_solver, "step", compared)
    return rounds


def test_step_matches_the_reference_join_and_test(monkeypatch, fib, tree3):
    # ``step`` builds a predicate's join only when some image leaves the
    # old polyhedron; it must grow what the join-then-test round grows,
    # row for row, in every round
    rounds = _compared_step(monkeypatch)
    assert _solve_levels(_level_programs(fib, tree3)) == {True, False}
    assert rounds[0] > 100


def _strict_program():
    # p(A, B) :- A >= 0, A < 1, B = 0.   p(A, B) :- p(A1, B1), A = A1, B = B1.
    # The parser turns ``A < 1`` into ``A =< 0``; only the API keeps it strict
    p = PredRef("p")
    head = Atom(p, (Var("A"), Var("B")))
    base = Clause(0, head, (C({"A": -1}, 0), C({"A": 1}, -1, LT), C({"B": 1}, 0, EQ)), ())
    rec = Clause(0, head, (C({"A": 1, "A1": -1}, 0, EQ), C({"B": 1, "B1": -1}, 0, EQ)),
                 (Atom(p, (Var("A1"), Var("B1"))),))
    return Program.from_clauses([base, rec])


def test_strict_row_holding_each_image_does_not_grow():
    # both images equal the strict polyhedron, which therefore holds their
    # union: it is a post-fixpoint, though their hull closes A < 1 to A =< 1
    program = _strict_program()
    first = step(program, {})
    assert first[PredRef("p")] == poly(("A", "B"), C({"A": -1}, 0),
                                       C({"A": 1}, -1, LT), C({"B": 1}, 0, EQ))
    assert step(program, first) is first


def test_narrowing_rounds_only_shrink(monkeypatch, fib, tree3):
    # the descending rounds stop at the first round whose state entails its
    # refinement; one direction is enough because a descending round from a
    # post-fixpoint adds no predicate and grows none
    ascending = []
    narrowing_rounds = 0
    step, contributions = linear_solver.step, linear_solver._contributions

    def flagged_step(p, s):
        ascending.append(True)
        try:
            return step(p, s)
        finally:
            ascending.pop()

    def checked_contributions(p, s):
        nonlocal narrowing_rounds
        refined = contributions(p, s)
        if not ascending:
            narrowing_rounds += 1
            assert refined.keys() <= s.keys()
            assert all(refined[q].entails(s[q]) for q in refined)
        return refined
    monkeypatch.setattr(linear_solver, "step", flagged_step)
    monkeypatch.setattr(linear_solver, "_contributions", checked_contributions)
    _solve_levels(_level_programs(fib, tree3))
    assert narrowing_rounds > 0
