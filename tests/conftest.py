import itertools
import random

import pytest

from dimsolve.linear_solver import _false_feasible, step
from dimsolve.parser import parse
from dimsolve.polyhedra import Polyhedron
from dimsolve.syntax import Clause
from dimsolve.terms import EQ, LE, LT, Constraint

# The motivating three-clause program: binary recursion plus a safety query.
FIB_SRC = """\
fib(A, B) :- A >= 0, A =< 1, B = A.
fib(A, B) :- A > 1, A2 = A - 2, fib(A2, B2),
             A1 = A - 1, fib(A1, B1), B = B1 + B2.
false :- A > 5, fib(A, B), B < A.
"""

# Benchmark variant with unit base values (the form the verification
# benchmark suites use); see benchmarks/fib.pl and notes in the README.
FIB_BENCH_SRC = """\
fib(A, B) :- A >= 0, A =< 1, B = 1.
fib(A, B) :- A > 1, A2 = A - 2, fib(A2, B2),
             A1 = A - 1, fib(A1, B1), B = B1 + B2.
false :- A > 5, fib(A, B), B < A.
"""

def tree_count_src(n: int) -> str:
    """Node count of an n-ary tree with at least one full-depth branch: never
    fewer than 2*height+1 nodes.  One child is at full depth, the others no
    deeper."""
    rest = "".join(f", H{i} >= 0, H{i} =< H - 1" for i in range(2, n + 1))
    kids = ", ".join(f"t(H{i}, N{i})" for i in range(1, n + 1))
    total = " + ".join(f"N{i}" for i in range(1, n + 1))
    return (f"t(H, N) :- H = 0, N = 1.\n"
            f"t(H, N) :- H >= 1, H1 = H - 1{rest},\n"
            f"           {kids}, N = {total} + 1.\n"
            f"false :- t(H, N), N < 2*H + 1.\n")


# The ternary tree: safe, but the erased models fail the inductiveness check
# at every level up to k=8.
TREE3_SRC = tree_count_src(3)

# Its widened interpretation grazes the error states: plain ``step`` rounds
# leave ``false`` feasible, and only the descending (narrowing) pass of
# ``solve_linear`` proves it empty.
GRAZE_SRC = """\
p(X) :- X = 2.
p(Y) :- Y = X + 1, Y =< 3, p(X).
false :- X >= 6, p(X).
"""


def false_feasible_without_narrowing(program) -> bool:
    """Run plain ``step`` rounds until one grows nothing; is ``false`` feasible?
    A ``step`` that never settles fails the caller after 1 000 rounds, where an
    unbounded loop would hang the suite."""
    state = {}
    for _ in range(1000):
        nxt = step(program, state)
        if nxt is state:
            return _false_feasible(state)
        state = nxt
    raise AssertionError("plain step rounds did not settle within 1 000 rounds")


@pytest.fixture
def fib():
    return parse(FIB_SRC)


@pytest.fixture
def fib_bench():
    return parse(FIB_BENCH_SRC)


@pytest.fixture
def tree3():
    return parse(TREE3_SRC)


def C(coeffs, const, rel=LE):
    return Constraint.make(coeffs, const, rel)


def poly(dims, *constraints):
    return Polyhedron(dims, constraints)


def grid_points(dims, lo=-3, hi=3):
    """All integer points of the box [lo, hi]^n as dicts."""
    pts = [{}]
    for d in dims:
        pts = [dict(p, **{d: v}) for p in pts for v in range(lo, hi + 1)]
    return pts


def random_constraint(rng, dims, coeff_range=(-4, 4)):
    coeffs = {}
    for d in dims:
        if rng.random() < 0.7:
            coeffs[d] = rng.randint(*coeff_range)
    const = rng.randint(*coeff_range)
    rel = rng.choice([LE, LE, LE, EQ, LT])
    return Constraint.make(coeffs, const, rel)


def random_poly(rng, dims, n_constraints=None, coeff_range=(-4, 4)):
    n = n_constraints if n_constraints is not None else rng.randint(1, 4)
    return Polyhedron(dims, [random_constraint(rng, dims, coeff_range) for _ in range(n)])


def random_program(rng: random.Random, max_preds=4, max_body=3):
    """Small unary-predicate programs with binary/ternary recursion; every
    predicate has a base clause so derivations exist.  Coefficients and
    offsets stay within [-3, 3]."""
    npreds = rng.randint(1, max_preds)
    preds = [f"p{i}" for i in range(npreds)]
    lines = []
    for i, name in enumerate(preds):
        lo = rng.randint(-2, 1)
        lines.append(f"{name}(X) :- X >= {lo}, X =< {lo + rng.randint(0, 3)}.")
    n_rec = rng.randint(0, 2)
    for _ in range(n_rec):
        name = rng.choice(preds)
        r = rng.randint(1, max_body)
        items = []
        if rng.random() < 0.5:
            items.append(f"X >= {rng.randint(-1, 1)}")
        for j in range(r):
            callee = rng.choice(preds)
            off = rng.randint(-2, 2)
            op = rng.choice(["=", ">=", "=<"])
            items.append(f"Y{j} {op} X - {off}" if off >= 0 else f"Y{j} {op} X + {-off}")
            items.append(f"{callee}(Y{j})")
        lines.append(f"{name}(X) :- {', '.join(items)}.")
    if rng.random() < 0.4:
        lines.append(f"false :- X >= {rng.randint(2, 3)}, {preds[0]}(X).")
    return parse("\n".join(lines) + "\n")


def alpha_equal(c1: Clause, c2: Clause) -> bool:
    """Heads, bodies and constraint multisets equal under a variable bijection."""
    if c1.head.pred != c2.head.pred or len(c1.body) != len(c2.body):
        return False
    for a, b in zip(c1.body, c2.body):
        if a.pred != b.pred or len(a.args) != len(b.args):
            return False
    mapping: dict[str, str] = {}
    for a, b in zip((c1.head, *c1.body), (c2.head, *c2.body)):
        for v, w in zip(a.args, b.args):
            if mapping.setdefault(v.name, w.name) != w.name:
                return False
    if len(set(mapping.values())) != len(mapping):
        return False
    cvars1 = {v for c in c1.constraint for v in c.vars()}
    cvars2 = {v for c in c2.constraint for v in c.vars()}
    free1 = sorted(cvars1 - set(mapping))
    free2 = sorted(cvars2 - set(mapping.values()))
    if len(free1) != len(free2):
        return False
    target = sorted(c2.constraint, key=repr)
    for perm in itertools.permutations(free2):
        m = dict(mapping, **dict(zip(free1, perm)))
        if len(set(m.values())) != len(m):
            continue
        if sorted((c.rename(m) for c in c1.constraint), key=repr) == target:
            return True
    return False


def multiset_alpha_equal(cs1, cs2) -> bool:
    """Clause multisets equal up to per-clause variable renaming."""
    cs1, cs2 = list(cs1), list(cs2)
    if len(cs1) != len(cs2):
        return False
    remaining = list(cs2)
    for c in cs1:
        for other in remaining:
            if alpha_equal(c, other):
                remaining.remove(other)
                break
        else:
            return False
    return True

