import random

import pytest

from dimsolve.parser import ParseError, Token, parse, tokenize
from dimsolve.syntax import ArityError, FALSE, PredRef, is_linear, render_program
from dimsolve.terms import EQ

from conftest import FIB_SRC, multiset_alpha_equal, random_program


def test_integrity_clause_shape():
    p = parse("false:- A>5, fib(A,B), B<A.")
    (c,) = p.clauses
    assert c.head.pred == FALSE and not c.head.args
    assert len(c.constraint) == 2 and len(c.body) == 1


def test_indexed_head_read_back_splits_repeated_var():
    p = parse("fib(0)(A,A) :- A>=0, A=<1.")
    (c,) = p.clauses
    assert c.head.pred == PredRef("fib", "exact", 0)
    a, b = c.head.args
    assert a != b
    eqs = [x for x in c.constraint if x.rel == EQ and x.vars() == {a.name, b.name}]
    assert eqs, "normalization must add the equality tying the split variables"


def test_bare_fact():
    p = parse("p.")
    (c,) = p.clauses
    assert not c.constraint and not c.body and c.head.pred == PredRef("p")


def test_integer_argument_normalized():
    p = parse("q(X) :- r(0, X).")
    (c,) = p.clauses
    (atom,) = c.body
    assert all(v.name for v in atom.args)
    assert any(x.rel == EQ and x.const == 0 for x in c.constraint)


def test_strict_inequalities_tightened():
    p = parse("p(A) :- A > 1.")
    (c,) = p.clauses
    (x,) = c.constraint
    # A > 1 over the integers is A >= 2
    assert repr(x) == "A>=2"


def test_fibonacci_is_nonlinear_fig_programs_are_linear(fib):
    assert not is_linear(fib)
    assert is_linear(parse("p(X) :- X=1.\nq(X) :- p(X).\n"))


def test_roundtrip_fib(fib):
    assert parse(render_program(fib)).clauses == fib.clauses


def test_roundtrip_random_programs():
    rng = random.Random(5)
    for _ in range(30):
        p = random_program(rng)
        assert parse(render_program(p)).clauses == p.clauses


def test_normalization_idempotent(fib):
    once = render_program(fib)
    assert render_program(parse(once)) == once


def test_nullary_indexed_roundtrip():
    from dimsolve.kdim import kdim
    p = kdim(parse("p.\nq :- p.\n"), 1)
    assert parse(render_program(p)).clauses == p.clauses


def test_comments_and_whitespace():
    p = parse("% header\np(X) :- X = 1. % trailing\n\n% done\n")
    assert len(p.clauses) == 1


def test_empty_program_prints_empty():
    assert render_program(parse("")) == ""


def test_syntax_error_position():
    with pytest.raises(ParseError) as e:
        parse("p(X) :- X >.\n")
    assert e.value.line == 1


def test_arity_mismatch():
    with pytest.raises(ArityError):
        parse("p(X) :- q(X).\nq(X, Y) :- X = Y.")


def test_nonlinear_term_rejected():
    with pytest.raises(ParseError) as e:
        parse("p(X) :- X * X = 4.")
    assert "non-linear" in str(e.value)


def test_coefficient_after_variable_names_the_fix():
    # X*2 is linear; the grammar only takes the coefficient first
    with pytest.raises(ParseError, match=r"1:9: coefficient after the variable: write 2\*X"):
        parse("p(X) :- X*2 = 4.")


def test_false_with_args_rejected():
    with pytest.raises(ParseError):
        parse("false(X) :- X = 1.")


def test_false_in_body_rejected():
    with pytest.raises(ParseError):
        parse("p(X) :- X = 1, false.")


def test_indexed_false_in_body_allowed():
    p = parse("false[0] :- false(0).")
    (c,) = p.clauses
    assert c.head.pred == PredRef("false", "atmost", 0)
    assert c.body[0].pred == PredRef("false", "exact", 0)


def test_multiset_alpha_equal_on_renamed(fib):
    renamed = parse(FIB_SRC.replace("A", "P").replace("B", "Q"))
    assert multiset_alpha_equal(fib.clauses, renamed.clauses)
    assert not multiset_alpha_equal(fib.clauses, fib.clauses[:2])


def test_token_positions():
    text = "fib(0)(A, B) :-\tA >= 0. % base\np[1](A)."
    assert [(t.kind, t.text, t.line, t.col) for t in tokenize(text)] == [
        ("IDENT", "fib", 1, 1), ("SYM", "(", 1, 4), ("INT", "0", 1, 5),
        ("SYM", ")", 1, 6), ("SYM", "(", 1, 7), ("VAR", "A", 1, 8),
        ("SYM", ",", 1, 9), ("VAR", "B", 1, 11), ("SYM", ")", 1, 12),
        ("SYM", ":-", 1, 14), ("VAR", "A", 1, 17), ("SYM", ">=", 1, 19),
        ("INT", "0", 1, 22), ("SYM", ".", 1, 23),
        ("IDENT", "p", 2, 1), ("SYM", "[", 2, 2), ("INT", "1", 2, 3),
        ("SYM", "]", 2, 4), ("SYM", "(", 2, 5), ("VAR", "A", 2, 6),
        ("SYM", ")", 2, 7), ("SYM", ".", 2, 8), ("EOF", "", 2, 9)]
    # a trailing comment with no newline still advances the EOF column
    assert tokenize("p. % end")[-1] == Token("EOF", "", 1, 9)


@pytest.mark.parametrize("text, col", [
    ("p(X) :- X = \u00b2.", 13),    # superscript two
    ("p(X) :- X = \u0663.", 13),    # Arabic-Indic three
    ("p(X) :- X = 1, caf\u00e9(X).", 19),
], ids=["superscript-digit", "arabic-digit", "accented-letter"])
def test_non_ascii_character_rejected(text, col):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.line, e.value.col) == (1, col)
    assert str(e.value) == f"1:{col}: unexpected character {text[col - 1]!r}"


def test_underscore_identifier_rejected():
    with pytest.raises(ParseError) as e:
        parse("p(X) :-\n  _q(X).")
    assert str(e.value) == "2:3: identifier may not start with '_': _q"
