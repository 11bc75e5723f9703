import os
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from dimsolve.terms import EQ, LE, LT, Constraint, linear_combination, render_constraint


def test_gcd_reduction():
    c = Constraint.make({"A": 2, "B": -4}, 6, LE)
    assert c.terms == (("A", 1), ("B", -2))
    assert c.const == 3


def test_make_rejects_fractions():
    # the core is integer-only; a rational input is a caller's bug
    with pytest.raises(TypeError):
        Constraint.make({"A": Fraction(1, 2), "B": Fraction(1, 3)}, Fraction(-1, 6), EQ)
    with pytest.raises(TypeError):
        Constraint.make({"A": 1}, Fraction(1, 2), LE)


def test_core_does_not_import_fractions():
    # run in a fresh interpreter: this test module itself imports fractions
    probe = "import sys, dimsolve; print('fractions' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_equality_sign_canonical():
    a = Constraint.make({"A": -1, "B": 1}, 0, EQ)
    b = Constraint.make({"A": 1, "B": -1}, 0, EQ)
    assert a == b


def test_zero_coefficients_dropped():
    c = Constraint.make({"A": 0, "B": 1}, 0, LE)
    assert c.vars() == {"B"}


def test_negations_le():
    (n,) = Constraint.make({"A": 1}, -2, LE).negations()  # A =< 2
    assert n == Constraint.make({"A": -1}, 2, LT)         # A > 2


def test_negations_eq_split():
    ns = Constraint.make({"A": 1}, 0, EQ).negations()
    assert len(ns) == 2 and all(n.rel == LT for n in ns)


def test_eval_point():
    c = Constraint.make({"A": 1, "B": -1}, 0, LE)  # A =< B
    assert c.eval_point({"A": 1, "B": 2})
    assert not c.eval_point({"A": 3, "B": 2})


def test_render_forms():
    assert render_constraint(Constraint.make({"A": -1}, 0, LE)) == "A>=0"
    assert render_constraint(Constraint.make({"A": 1}, -2, LE)) == "A=<2"
    assert render_constraint(Constraint.make({"A": 1}, 1, LE)) == "A=< -1"
    assert render_constraint(Constraint.make({"A": 1, "B": -2}, 0, EQ)) == "A-2*B=0"


coeff = st.integers(min_value=-9, max_value=9)


@given(st.dictionaries(st.sampled_from("ABC"), coeff, max_size=3), coeff,
       st.sampled_from([EQ, LE, LT]))
def test_make_is_idempotent(coeffs, const, rel):
    c = Constraint.make(coeffs, const, rel)
    again = Constraint.make(dict(c.terms), c.const, c.rel)
    assert c == again


@given(st.dictionaries(st.sampled_from("ABCD"), coeff, max_size=4), coeff,
       st.sampled_from([EQ, LE, LT]), st.integers(min_value=-6, max_value=6))
def test_normal_form(coeffs, const, rel, k):
    c = Constraint.make(coeffs, const, rel)
    names = [v for v, _ in c.terms]
    assert names == sorted(set(names))
    assert all(x != 0 for _, x in c.terms)
    numbers = [x for _, x in c.terms] + [c.const]
    assert gcd(*numbers) == (1 if any(numbers) else 0)
    if rel == EQ:
        assert numbers[0] >= 0  # the first nonzero number, as coefficients are nonzero
    if k >= 1 or k != 0 and rel == EQ:
        assert Constraint.make({v: k * x for v, x in coeffs.items()}, k * const, rel) == c


@given(st.dictionaries(st.sampled_from("ABC"), coeff, min_size=1, max_size=3), coeff)
def test_negation_involution_le(coeffs, const):
    c = Constraint.make(coeffs, const, LE)
    if not c.terms:
        return
    (n,) = c.negations()
    (back,) = n.negations()
    assert back == c


@given(st.dictionaries(st.sampled_from("ABCD"), coeff, max_size=4), coeff,
       st.sampled_from([EQ, LE, LT]), st.permutations("ABCDEFG"), st.integers(0, 4))
def test_rename_and_negations_equal_make(coeffs, const, rel, names, n):
    c = Constraint.make(coeffs, const, rel)
    mapping = dict(zip("ABCD"[:n], names))  # the names past n keep their own
    renamed = [mapping.get(v, v) for v, _ in c.terms]
    assume(len(set(renamed)) == len(renamed))  # injective on the row
    assert c.rename(mapping) == Constraint.make(
        {mapping.get(v, v): k for v, k in c.terms}, c.const, c.rel)
    neg = {v: -k for v, k in c.terms}
    want = [Constraint.make(neg, -c.const, LE if rel == LT else LT)]
    if rel == EQ:
        want.append(Constraint.make(dict(c.terms), c.const, LT))
    assert c.negations() == want


def test_linear_combination():
    a = Constraint.make({"x": 1, "y": -1}, 0, LE)
    b = Constraint.make({"y": 1, "z": -1}, 0, LE)
    c = linear_combination([(1, a), (1, b)], LE)
    assert c == Constraint.make({"x": 1, "z": -1}, 0, LE)
