"""Acceptance suite: one test per exit criterion, one printed verdict line
each.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import random
import time
from contextlib import contextmanager

from dimsolve.driver import Config, solve
from dimsolve.kdim import kdim
from dimsolve.linear_solver import solve_linear
from dimsolve.models import (Model, inductive, linearize, satisfies_clause,
                             violations)
from dimsolve.parser import parse
from dimsolve.polyhedra import Polyhedron
from dimsolve.syntax import ATMOST, PredRef, is_linear
from dimsolve.terms import EQ, Constraint
from dimsolve.trees import (Node, contract_skeleton, dim, enumerate_contracted,
                            enumerate_trees, height)

from conftest import (FIB_SRC, C, alpha_equal, grid_points, multiset_alpha_equal,
                      poly, random_poly, random_program)


@contextmanager
def criterion(n, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL - {text}")
        raise
    print(f"ACCEPTANCE {n}: PASS - {text}")


FIG3_SRC = """\
fib(0)(A,A) :- A>=0, A=<1.
false(0) :- A>5, B<A, fib(0)(A,B).
false[0] :- false(0).
fib[0](A,B) :- fib(0)(A,B).
"""

EXCERPT_SRC = """\
false(1) :- A>5, B<A, fib(1)(A,B).
fib(1)(A,B) :- A>1, C=A-2, E=A-1, B=F+D, fib(1)(C,D), fib[0](E,F).
"""


def test_criterion_1_transformation_golden():
    with criterion(1, "level-0 transformation reproduces the reference four-clause form"):
        began = time.monotonic()
        fib = parse(FIB_SRC)
        got = kdim(fib, 0).clauses
        expected = parse(FIG3_SRC).clauses
        assert multiset_alpha_equal(got, expected)
        assert time.monotonic() - began < 1.0


def test_criterion_2_level1_excerpt():
    with criterion(2, "level-1 transformation contains both reference excerpt clauses"):
        k1 = kdim(parse(FIB_SRC), 1)
        for expected in parse(EXCERPT_SRC).clauses:
            assert any(alpha_equal(expected, c) for c in k1.clauses)


def test_criterion_3_linearization_golden():
    with criterion(3, "linearizing the excerpt against the level-0 model gives the "
                      "reference simplified clauses (base B=A)"):
        seg0 = poly(("A", "B"), C({"A": -1}, 0), C({"A": 1}, -1),
                    C({"A": 1, "B": -1}, 0, EQ))
        s0 = Model()
        s0.add(PredRef("fib", ATMOST, 0), seg0)
        out = linearize(parse(EXCERPT_SRC), s0)
        assert is_linear(out)  # exact (the linearization lemma)
        expected = parse("""\
false(1) :- A>5, B<A, fib(1)(A,B).
fib(1)(A,B) :- -A>= -2, A>1, A-C=2, B-D=A-1, fib(1)(C,D).
""")
        assert len(out.clauses) == len(expected.clauses) == 2
        for got, want in zip(out.clauses, expected.clauses):
            assert got.head.pred == want.head.pred
            assert [a.pred for a in got.body] == [a.pred for a in want.body]
            ren = {}
            for ga, wa in zip((got.head, *got.body), (want.head, *want.body)):
                ren.update(dict(zip((v.name for v in ga.args),
                                    (v.name for v in wa.args))))
            dims = [v for v in want.vars()]
            gp = Polyhedron(dims, [c.rename(ren) for c in got.constraint])
            wp = Polyhedron(dims, want.constraint)
            assert gp.entails(wp) and wp.entails(gp)


def test_criterion_4_end_to_end_fib():
    with criterion(4, "fib benchmark solved at small k with an independently "
                      "re-checked inductive model, within 60 s"):
        began = time.monotonic()
        with open("benchmarks/fib.pl", encoding="utf-8") as fh:
            program = parse(fh.read())
        out = solve(program, Config())
        elapsed = time.monotonic() - began
        assert out.solved
        assert out.k_reached <= 3
        assert elapsed <= 60.0
        assert inductive(out.model, program)
        assert all(satisfies_clause(out.model, c) for c in program.clauses)


def test_criterion_5_inductive_rejection():
    with criterion(5, "the level-0 model is rejected and the recursive clause "
                      "is the one identified as violated"):
        fib = parse(FIB_SRC)
        verdict = solve_linear(kdim(fib, 0))
        assert verdict.solved
        assert not inductive(verdict.model, fib)
        bad = violations(verdict.model, fib)
        assert [c.id for c in bad] == [2]


def test_criterion_6_dimension_units():
    with criterion(6, "dimension/height of the worked derivation tree and of "
                      "complete binary trees"):
        base = Node("base", (Node("step"),))
        fib3 = Node("fib(3)", (base, Node("fib(2)", (base, base))))
        assert dim(fib3) == 1
        assert height(fib3) == 3

        def complete(h):
            if h == 0:
                return Node("leaf")
            sub = complete(h - 1)
            return Node("node", (sub, sub))

        for h in range(7):
            assert dim(complete(h)) == h


def test_criterion_7_dimension_restriction_property():
    with criterion(7, "transformed programs generate exactly the low-dimension "
                      "derivation trees (50 random programs, k in 0..2)"):
        began = time.monotonic()
        rng = random.Random(2024)
        budget = 9
        for i in range(50):
            p = random_program(rng)
            source = {}
            for pred in {q for q in p.signatures if not q.indexed}:
                trees = list(enumerate_trees(p, pred, budget))
                by_dim = {}
                for t in trees:
                    by_dim.setdefault(dim(t), set()).add(t.skeleton())
                source[pred.base] = by_dim
            for k in (0, 1, 2):
                kp = kdim(p, k)
                for base, by_dim in source.items():
                    want = set().union(*(s for d, s in by_dim.items() if d <= k),
                                       set())
                    got = {contract_skeleton(kp, t.skeleton())
                           for t in enumerate_contracted(
                               kp, PredRef(base, ATMOST, k), budget)}
                    assert got == want, (i, k, base)
        assert time.monotonic() - began <= 300.0


def test_criterion_8_linearization_always_linear():
    with criterion(8, "substituting any model into the next transformation "
                      "level yields a linear program (200 cases)"):
        from dimsolve.syntax import canonical_params
        rng = random.Random(4096)
        cases = 0
        while cases < 200:
            p = random_program(rng)
            k = rng.randint(0, 2)
            kp = kdim(p, k + 1)
            model = Model()
            for pred in kp.signatures:
                if pred.indexed and pred.d <= k and rng.random() < 0.75:
                    arity = kp.signatures[pred]
                    dims = [v.name for v in canonical_params(arity)]
                    for _ in range(rng.randint(1, 2)):
                        model.add(pred, random_poly(rng, dims, coeff_range=(-3, 3)))
            assert is_linear(linearize(kp, model))
            cases += 1


def test_criterion_9_linear_engine_properties():
    with criterion(9, "constraint-engine invariant suite (grid agreement, "
                      "entailment, projection, hull, widening; 500+ cases)"):
        rng = random.Random(987)
        cases = 0
        dims3 = ("x", "y", "z")
        pts3 = grid_points(dims3)
        for _ in range(150):  # sat agrees with the integer grid, one direction
            p = random_poly(rng, dims3)
            if any(p.eval_point(pt) for pt in pts3):
                assert p.sat()
            cases += 1
        for _ in range(100):  # entailment is reflexive and transitive
            a, b, c = (random_poly(rng, ("x", "y")) for _ in range(3))
            assert a.entails(a)
            if a.entails(b) and b.entails(c):
                assert a.entails(c)
            cases += 1
        for _ in range(100):  # projection: sound on grid points, complete rationally
            p = random_poly(rng, dims3)
            q = p.project(("x", "y"))
            for pt in grid_points(("x", "y", "z"), -2, 2):
                if p.eval_point(pt):
                    assert q.eval_point({k: pt[k] for k in ("x", "y")})
            for pt in grid_points(("x", "y"), -2, 2):
                if q.eval_point(pt):
                    assert p.conjoin(
                        [Constraint.make({k: 1}, -pt[k], EQ) for k in ("x", "y")]).sat()
            cases += 1
        for _ in range(100):  # hull contains both arguments
            a = random_poly(rng, ("x", "y"))
            b = random_poly(rng, ("x", "y"))
            h = a.hull(b)
            assert a.entails(h) and b.entails(h)
            cases += 1
        stabilized_chains = 0
        while stabilized_chains < 60:  # widening is an upper bound and stabilizes
            chain = random_poly(rng, ("x", "y"))
            if chain.is_empty():
                continue
            budget = len(chain.simplify().constraints) + 1
            steps = 0
            while True:
                nxt = chain.hull(random_poly(rng, ("x", "y")))
                w = chain.widen(nxt)
                assert nxt.entails(w)
                steps += 1
                if w.entails(chain) and chain.entails(w):
                    break
                chain = w
                assert steps <= budget
            stabilized_chains += 1
            cases += 1
        assert cases >= 500


def test_criterion_10_benchmark_sweep():
    with criterion(10, "non-linear safe benchmarks all solved at k <= 3 "
                       "within 60 s each"):
        results = {}
        for name in ("fib", "merge_sum", "doubling_sum", "tree_count"):
            with open(f"benchmarks/{name}.pl", encoding="utf-8") as fh:
                program = parse(fh.read())
            began = time.monotonic()
            out = solve(program, Config())
            elapsed = time.monotonic() - began
            assert out.solved, name
            assert out.k_reached <= 3, name
            assert elapsed <= 60.0, name
            assert inductive(out.model, program), name
            results[name] = out.k_reached
        # solutions become inductive at small k on all of these
        assert all(k <= 2 for k in results.values())
        print(f"  inductive at k: {results}", end=" ")
