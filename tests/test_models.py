import random
import time
from itertools import product

import pytest

from dimsolve import models, polyhedra
from dimsolve.kdim import kdim
from dimsolve.linear_solver import solve_linear
from dimsolve.models import (Model, head_image, inductive, linearize, satisfies_clause,
                             violations)
from dimsolve.parser import parse
from dimsolve.polyhedra import Polyhedron, SolverTimeout, SplitBudgetExceeded, memo
from dimsolve.syntax import FALSE, PredRef, Var, canonical_params, is_linear
from dimsolve.terms import EQ

from conftest import (C, grid_points, poly, random_constraint, random_poly,
                      random_program)

SEG0 = poly(("A", "B"), C({"A": -1}, 0), C({"A": 1}, -1), C({"A": 1, "B": -1}, 0, EQ))


def model_of(*facts):
    """The model of the ``(pred, polyhedron)`` pairs ``facts``."""
    m = Model()
    for pred, poly in facts:
        m.add(pred, poly)
    return m


def seg0_model(pred="fib"):
    return model_of((PredRef(pred), SEG0))


def test_base_model_rejects_recursive_clause(fib):
    m = seg0_model()
    c1, c2, c3 = fib.clauses
    assert satisfies_clause(m, c1)
    assert not satisfies_clause(m, c2)
    assert satisfies_clause(m, c3)
    assert violations(m, fib) == [c2]
    assert not inductive(m, fib)


def test_top_model_satisfies_definite_clauses(fib):
    top = model_of((PredRef("fib"), Polyhedron(("A", "B"))))
    c1, c2, c3 = fib.clauses
    assert satisfies_clause(top, c1)
    assert satisfies_clause(top, c2)
    # the integrity clause needs the body to be unsatisfiable, which top is not
    assert not satisfies_clause(top, c3)


def test_false_interpretation_is_pinned_empty():
    p = parse("false :- X > 2, p(X).")
    m = model_of((PredRef("p"), poly(("A",), C({"A": 1}, -1))))
    # body cannot reach X > 2, clause holds; no stored fact for false is consulted
    assert satisfies_clause(m, p.clauses[0])


def test_empty_model_vacuously_inductive():
    p = parse("false :- p(X).")
    assert inductive(Model(), p)


def test_disjunction_covers_head():
    # fib -> two disjuncts covering the head region of a chain clause
    p = parse("q(X) :- X >= 0, X =< 3.\nr(Y) :- Y = X, q(X).")
    m = model_of(
        (PredRef("q"), poly(("A",), C({"A": -1}, 0), C({"A": 1}, -3))),
        (PredRef("r"), poly(("A",), C({"A": -1}, 0), C({"A": 1}, -1))),
        (PredRef("r"), poly(("A",), C({"A": -1}, 1), C({"A": 1}, -3))),
    )
    assert satisfies_clause(m, p.clauses[1])


def interval(lo, hi):
    return poly(("A",), C({"A": -1}, lo), C({"A": 1}, -hi))


def test_split_budget_exhaustion_raises(monkeypatch):
    # the image 0 =< A =< 9 meets both facts of r: the first leaves the piece
    # A > 4, and the second splits that again.  Over the rationals
    # 4 < A < 5 stays uncovered.
    p = parse("r(Y) :- Y = X, q(X).")
    m = model_of((PredRef("q"), interval(0, 9)),
                 *((PredRef("r"), r) for r in (interval(0, 4), interval(5, 9))))
    assert not satisfies_clause(m, p.clauses[0])
    monkeypatch.setattr(polyhedra, "_SPLIT_BUDGET", 1)
    with pytest.raises(SplitBudgetExceeded):
        satisfies_clause(m, p.clauses[0])


def test_fact_whose_rows_hold_the_image_splits_nothing(monkeypatch):
    # each row of the head fact is a row of the image, so no piece is made
    p = parse("r(Y) :- Y = X, q(X).")
    m = model_of(*((PredRef(name), interval(0, 9)) for name in ("q", "r")))
    monkeypatch.setattr(polyhedra, "_SPLIT_BUDGET", 0)
    assert satisfies_clause(m, p.clauses[0])


def count_constructions(monkeypatch) -> list:
    """The polyhedra built from now on, in order."""
    built = []
    init = Polyhedron.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)
    monkeypatch.setattr(Polyhedron, "__init__", counted)
    return built


def test_region_pieces_build_no_polyhedron(monkeypatch):
    # the image 0 =< A =< 9 less the first fact leaves the piece A > 4, which
    # the second fact covers; with the image stored, the check builds nothing
    p = parse("r(Y) :- Y = X, q(X).")
    m = model_of((PredRef("q"), interval(0, 9)),
                 *((PredRef("r"), r) for r in (interval(0, 4), interval(4, 9))))

    def forget_coverage():  # so that the next check splits regions again
        for key in [key for key in table if key[0] == "covered"]:
            del table[key]
    with memo() as table:
        assert satisfies_clause(m, p.clauses[0])
        forget_coverage()
        built = count_constructions(monkeypatch)
        assert satisfies_clause(m, p.clauses[0])
        forget_coverage()
        monkeypatch.setattr(polyhedra, "_SPLIT_BUDGET", 0)  # a piece is made
        with pytest.raises(SplitBudgetExceeded):
            satisfies_clause(m, p.clauses[0])
    assert built == []


def box(a_lo, a_hi, b_lo, b_hi):
    """The fact region a_lo =< A =< a_hi, b_lo =< B =< b_hi."""
    return poly(("A", "B"), C({"A": -1}, a_lo), C({"A": 1}, -a_hi),
                C({"B": -1}, b_lo), C({"B": 1}, -b_hi))


def test_coverage_on_head_image_in_head_argument_order():
    # The head lists Z before Y and X is projected away: the image is the
    # segment A = B + 1, 0 =< B =< 9, covered only by the union of two facts.
    p = parse("r(Z, Y) :- q(X), Y = X, Z = X + 1.")
    q = (PredRef("q"), poly(("A",), C({"A": -1}, 0), C({"A": 1}, -9)))

    def model(*regions):
        return model_of(q, *((PredRef("r"), r) for r in regions))

    low, high = box(1, 6, 0, 5), box(5, 10, 4, 9)
    assert satisfies_clause(model(low, high), p.clauses[0])
    assert not satisfies_clause(model(low), p.clauses[0])
    assert not satisfies_clause(model(high), p.clauses[0])
    # the same bounds with A and B swapped in one fact miss the point (1, 0)
    assert not satisfies_clause(model(box(0, 5, 1, 6), high), p.clauses[0])


def test_inductive_monotone_in_program(fib):
    m = seg0_model()
    sub = parse("fib(A, B) :- A >= 0, A =< 1, B = A.")
    assert inductive(m, sub)
    # adding clauses can only remove solutions
    assert not inductive(m, fib)


def test_arity_mismatch_raises():
    p = parse("r(Y) :- q(Y).")
    bad = model_of((PredRef("q"), Polyhedron(("A", "B"))))
    with pytest.raises(ValueError):
        satisfies_clause(bad, p.clauses[0])


def test_model_text_roundtrip():
    m = seg0_model()
    assert Model.parse(m.render()) == m
    assert Model.parse(m.render()).render() == m.render()


def test_fact_arguments_are_positional():
    # argument i of a fact is the i-th dimension of its polyhedron, which is
    # renamed onto the canonical parameters whatever its names
    m = Model.parse("p(Y, X) :- [X >= 0].\n")
    assert m.render() == "p(A, B) :- [B>=0].\n"
    assert Model.parse(m.render()) == m
    added = Model()
    added.add(PredRef("p"), poly(("Y", "X"), C({"X": -1}, 0)))
    assert added == m


def test_wide_fact_parameters_continue_past_z():
    # 28 arguments: A to Z, then V1 and V2, the names ``fresh_names`` gives
    dims = tuple(f"X{i}" for i in range(28))
    m = Model()
    m.add(PredRef("w"), poly(dims, C({"X0": 1, "X27": -1}, 0)))
    text = m.render()
    params = [chr(c) for c in range(ord("A"), ord("Z") + 1)] + ["V1", "V2"]
    assert text == f"w({', '.join(params)}) :- [A-V2=<0].\n"
    assert canonical_params(28)[-3:] == (Var("Z"), Var("V1"), Var("V2"))
    assert Model.parse(text) == m


def test_model_dedup_and_empty_drop():
    m = Model()
    m.add(PredRef("p"), SEG0)
    m.add(PredRef("p"), SEG0)
    m.add(PredRef("p"), Polyhedron.bottom(("A", "B")))
    assert len(m.facts_for(PredRef("p"))) == 1


def test_erase_indices_merges_facts():
    m = model_of(
        (PredRef("fib", "exact", 0), SEG0),
        (PredRef("fib", "atmost", 0), SEG0),
        (PredRef("fib", "exact", 1), poly(("A", "B"), C({"A": -1}, 2))),
    )
    erased = m.erase_indices()
    assert set(erased.facts) == {PredRef("fib")}
    assert len(erased.facts_for(PredRef("fib"))) == 2  # duplicates merge


# reference final model for the unit-base program (two dimension levels of
# facts); its index-erased form solves that program
FINAL_LISTING = """\
fib(0)(A,B) :- [-A>= -1,A>=0,B=1].
fib[0](A,B) :- [-A>= -1,A>=0,B=1].
fib(1)(A,B) :- [A>=2,A-B=0].
fib[1](A,B) :- [A-B>= -1,B>=1,-A+B>=0].
fib(2)(A,B) :- [A>=4,-2*A+B>= -3].
fib[2](A,B) :- [A>=0,B>=1,-A+B>=0].
"""


def test_fact_erasure_drops_index():
    m = Model.parse("fib(0)(A,B) :- [-A>= -1,A>=0,B=1].\n")
    erased = m.erase_indices()
    assert set(erased.facts) == {PredRef("fib")}
    assert erased.facts_for(PredRef("fib")) == Model.parse(
        "fib(A,B) :- [-A>= -1,A>=0,B=1].\n").facts_for(PredRef("fib"))


def test_final_listing_erases_to_disjunction():
    erased = Model.parse(FINAL_LISTING).erase_indices()
    # six facts, two of them textually identical, merge into five disjuncts
    assert len(erased.facts_for(PredRef("fib"))) == 5


def test_final_listing_inductive_for_unit_base(fib, fib_bench):
    m = Model.parse(FINAL_LISTING)
    assert inductive(m, fib_bench)
    # ...but not for the variant whose base ties the result to the argument:
    # that base admits the pair (0,0), which no fact above covers
    assert not inductive(m, fib)


# --- linearization -------------------------------------------------------

def s0_for(pred="fib"):
    return model_of((PredRef(pred, "atmost", 0), SEG0),
                    (PredRef(pred, "exact", 0), SEG0))


EXCERPT = """\
false(1) :- A>5, B<A, fib(1)(A,B).
fib(1)(A,B) :- A>1, C=A-2, E=A-1, B=F+D, fib(1)(C,D), fib[0](E,F).
"""


def test_linearize_excerpt_clauses():
    p = parse(EXCERPT)
    out = linearize(p, s0_for())
    assert is_linear(out)
    assert len(out.clauses) == 2
    first, second = out.clauses
    # integrity clause is untouched
    assert first.constraint == p.clauses[0].constraint
    # the substituted clause keeps only the level-one atom
    assert [a.pred for a in second.body] == [PredRef("fib", "exact", 1)]
    got = Polyhedron(second.vars(), second.constraint)
    c, d = (v.name for v in second.body[0].args)
    # the reference simplified form, with A>1 tightened to A>=2 and the head
    # offset following B=A on the base interval instead of B=1
    expected = Polyhedron(second.vars(), [
        C({"A": 1}, -2), C({"A": -1}, 2),
        C({"A": 1, c: -1}, -2, EQ), C({"B": 1, d: -1, "A": -1}, 1, EQ),
    ])
    assert got.entails(expected) and expected.entails(got)


def test_linearize_simplifies_nothing(fib):
    # the rows are the projection as computed; the fixpoint simplifies what
    # it keeps
    acc = solve_linear(kdim(fib, 0)).model
    with memo() as table:
        out = linearize(kdim(fib, 1, 1), acc)
    assert out.clauses
    assert not [key for key in table if key[0] == "simplify"]


def test_linearize_builds_no_polyhedron(fib, monkeypatch):
    # each clause body is projected on rows, and the rows are emitted
    acc = solve_linear(kdim(fib, 0)).model
    built = count_constructions(monkeypatch)
    assert linearize(kdim(fib, 1, 1), acc).clauses
    assert built == []


def test_clause_image_builds_one_polyhedron(fib, monkeypatch):
    # the body and its projection stay rows; only the image that is kept
    # is built, and a stored image is not built again
    p = kdim(fib, 0)
    m = solve_linear(p).model
    images = 0
    with memo():
        built = count_constructions(monkeypatch)
        for c in p.clauses:
            for choice in product(*(m.facts_for(a.pred) for a in c.body)):
                built.clear()
                image = head_image(c, zip(c.body, choice))
                assert built == ([] if image is None else [image])
                assert head_image(c, zip(c.body, choice)) is image
                assert len(built) <= 1
                images += image is not None and bool(c.body)
    assert images > 0


def test_linearize_empty_interpretation_drops_clause():
    p = parse(EXCERPT)
    out = linearize(p, Model())  # fib[0] has the empty interpretation
    assert [len(c.body) for c in out.clauses] == [1]  # only the false(1) clause


def test_linearize_disjunction_multiplies_clauses():
    p = parse("fib(1)(A,B) :- A>1, C=A-2, E=A-1, B=F+D, fib(1)(C,D), fib[0](E,F).")
    m = model_of((PredRef("fib", "atmost", 0), SEG0),
                 (PredRef("fib", "atmost", 0),
                  poly(("A", "B"), C({"A": 1}, -5, EQ), C({"B": 1}, -5, EQ))))
    out = linearize(p, m)
    assert len(out.clauses) == 2
    assert is_linear(out)


def test_linearize_drops_unsat_combinations(fib):
    # an interpretation incompatible with the clause guard removes the clause
    p = parse("fib(1)(A,B) :- A>9, C=A-2, fib[0](C,D).")
    out = linearize(p, s0_for())
    assert not out.clauses


def test_linearize_of_kdim_is_linear_random():
    rng = random.Random(17)
    cases = 0
    while cases < 40:
        p = random_program(rng)
        k = rng.randint(0, 1)
        kp = kdim(p, k + 1)
        model = Model()
        for pred in kp.signatures:
            if pred.indexed and pred.d <= k and rng.random() < 0.8:
                dims = [v.name for v in canonical_params(kp.signatures[pred])]
                model.add(pred, random_poly(rng, dims, coeff_range=(-3, 3)))
        out = linearize(kp, model)
        assert is_linear(out)
        cases += 1


def test_ground_instance_agreement(fib):
    """When satisfies_clause accepts, every integer body point maps into some
    head disjunct (checked on a small grid)."""
    m = model_of((PredRef("fib"), SEG0),
                 (PredRef("fib"), poly(("A", "B"), C({"A": -1}, 2), C({"A": 1}, -3),
                                       C({"A": 1, "B": -1}, -1, EQ))))
    for clause in fib.clauses:
        if not satisfies_clause(m, clause):
            continue
        facts = [m.facts_for(a.pred) for a in clause.body]
        heads = m.facts_for(clause.head.pred)
        dims = clause.vars()
        for choice in product(*facts):
            rows = list(clause.constraint)
            for atom, fact in zip(clause.body, choice):
                mapping = {d: a.name for d, a in zip(fact.dims, atom.args)}
                rows.extend(c.rename(mapping) for c in fact.constraints)
            body = Polyhedron(dims, rows)
            for pt in grid_points(dims, -5, 5):
                if not body.eval_point(pt):
                    continue
                head_pt = {p.name: pt[a.name] for p, a in
                           zip((Var("A"), Var("B")), clause.head.args)}
                assert any(f.eval_point(head_pt) for f in heads)


# The index-erased tree3 model at k=2: every fact but ``3*A-B=< -1`` is
# entailed by it, and that fact lets clause 3 fail at H = -1, N = -2.
TREE3_K2 = """\
t(A, B) :- [3*A-B= -1,4*A-B>=0].
t(A, B) :- [3*A-B= -1,A>=0].
t(A, B) :- [3*A-B=< -1].
t(A, B) :- [A=0,B=1].
t(A, B) :- [A>=2,3*A-B=< -4].
"""


def unpruned_violations(m, p):
    erased = m.erase_indices()
    return [c for c in p.clauses if not satisfies_clause(erased, c)]


def test_violations_on_maximal_facts_fixed_case(tree3):
    m = Model.parse(TREE3_K2)
    assert len(m.facts_for(PredRef("t"))) == 5
    assert violations(m, tree3) == [tree3.clauses[2]]
    assert unpruned_violations(m, tree3) == [tree3.clauses[2]]


def random_model(rng, p):
    """Up to two random facts per predicate, each often joined by a
    strengthened copy that it entails; the order is shuffled so subsumed
    facts come both before and after the facts that entail them."""
    facts = []
    for pred, arity in p.signatures.items():
        if pred == FALSE:
            continue
        dims = [v.name for v in canonical_params(arity)]
        for _ in range(rng.randint(0, 2)):
            base = random_poly(rng, dims, coeff_range=(-3, 3))
            facts.append((pred, base))
            if rng.random() < 0.7:
                stronger = Polyhedron(base.dims, base.constraints
                                      + (random_constraint(rng, dims, (-3, 3)),))
                facts.append((pred, stronger))
    rng.shuffle(facts)
    return model_of(*facts)


def test_violations_agree_with_unpruned_check(fib, tree3):
    rng = random.Random(23)
    programs = [fib, tree3] + [random_program(rng) for _ in range(8)]
    pruned = 0
    for p in programs:
        for _ in range(12):
            m = random_model(rng, p)
            erased = m.erase_indices()
            pruned += (sum(len(fs) for fs in erased.facts.values())
                       - sum(len(fs) for fs in models._maximal(erased).facts.values()))
            assert violations(m, p) == unpruned_violations(m, p)
    assert pruned > 0  # the reduction is exercised, not bypassed


def test_violations_and_linearize_honor_deadline(fib):
    # built outside the block: building a model already runs eliminations
    model, level1, s0 = seg0_model(), kdim(fib, 1), s0_for()
    with memo(deadline=time.monotonic() - 1.0):
        with pytest.raises(SolverTimeout):
            violations(model, fib)
        with pytest.raises(SolverTimeout):
            linearize(level1, s0)
