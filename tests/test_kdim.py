import random
from collections import Counter

import pytest

from dimsolve.kdim import clause_count, kdim
from dimsolve.parser import parse
from dimsolve.syntax import Program, is_linear, render_clause, render_program

from conftest import FIB_SRC, alpha_equal, multiset_alpha_equal, random_program

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


def test_fib_level0_matches_reference_form(fib):
    assert multiset_alpha_equal(kdim(fib, 0).clauses, parse(FIG3_SRC).clauses)


def test_level0_always_linear():
    rng = random.Random(3)
    for _ in range(25):
        assert is_linear(kdim(random_program(rng), 0))


def test_fib_level1_clause_inventory(fib):
    k1 = kdim(fib, 1)
    assert len(k1.clauses) == 12
    for expected in parse(EXCERPT_SRC).clauses:
        assert any(alpha_equal(expected, c) for c in k1.clauses)


def test_clause_count_against_output(fib):
    rng = random.Random(9)
    programs = [fib, parse("p.")] + [random_program(rng) for _ in range(10)]
    for p in programs:
        for k in range(3):
            assert clause_count(p, k) == len(kdim(p, k).clauses)
    assert clause_count(parse("p."), 5) == len(kdim(parse("p."), 5).clauses) == 22


def test_monotone_inclusion(fib):
    rng = random.Random(13)
    for p in [fib] + [random_program(rng) for _ in range(5)]:
        for k in range(2):
            small = kdim(p, k)
            big = kdim(p, k + 1)
            for c in small.clauses:
                assert any(alpha_equal(c, d) for d in big.clauses)


def test_predicate_inventory(fib):
    k2 = kdim(fib, 2)
    bases = {"fib", "false"}
    expected = {(b, kind, d) for b in bases for kind in ("exact", "atmost")
                for d in range(3)}
    got = {(p.base, p.kind, p.d) for p in k2.signatures}
    assert got == expected


def test_deterministic_output(fib):
    assert render_program(kdim(fib, 2)) == render_program(kdim(fib, 2))


def test_rejects_indexed_input(fib):
    with pytest.raises(ValueError):
        kdim(kdim(fib, 0), 0)


def test_rejects_negative_k(fib):
    with pytest.raises(ValueError):
        kdim(fib, -1)


def level_programs():
    rng = random.Random(21)
    return [parse(FIB_SRC), parse("p.")] + [
        random_program(rng) for _ in range(12)]


def clause_keys(clauses):
    return [(render_clause(c), c.provenance) for c in clauses]


def test_level_zero_is_the_full_program():
    for p in level_programs():
        for k in range(4):
            assert render_program(kdim(p, k, 0)) == render_program(kdim(p, k))


def test_levels_partition_the_full_program():
    for p in level_programs():
        for k in range(4):
            levels = [c for d in range(k + 1) for c in kdim(p, d, d).clauses]
            assert Counter(clause_keys(levels)) == Counter(clause_keys(kdim(p, k).clauses))


def test_level_form_keeps_head_indices_from_lowest_in_order():
    for p in level_programs():
        for k in range(4):
            for lowest in range(k + 1):
                part = kdim(p, k, lowest).clauses
                assert all(c.head.pred.d >= lowest for c in part)
                assert clause_keys(part) == clause_keys(
                    c for c in kdim(p, k).clauses if c.head.pred.d >= lowest)


@pytest.mark.parametrize("k, lowest", [(2, -1), (2, 3), (0, 1)])
def test_rejects_lowest_outside_levels(fib, k, lowest):
    with pytest.raises(ValueError):
        kdim(fib, k, lowest)


def kdim_pairs(p, k):
    """kdim(p, k) with rule 2b restricted to two-element tie sets: the
    rule-2b clauses whose tie set has more than two members are dropped."""
    return Program.from_clauses(
        c for c in kdim(p, k).clauses
        if not (c.provenance[0] == "rule2b" and len(c.provenance[3]) > 2))


def test_pairs_mode_agrees_on_binary_bodies(fib):
    # bodies of two atoms: both tie-set rules coincide
    assert multiset_alpha_equal(kdim(fib, 2).clauses, kdim_pairs(fib, 2).clauses)


TRIPLE_SRC = """\
t(X) :- X = 0.
s(X) :- X = 0, X1 = 0, X2 = 0, X3 = 0, t(X1), t(X2), t(X3).
"""


def test_pairs_mode_misses_three_way_ties():
    """A three-child node whose children tie at the same dimension has
    dimension one more, but the two-element tie rule cannot produce it; the
    full-subset rule covers it.  Recorded as a regression, not patched away
    silently: level-1 programs restricted to pairs have no clause for it."""
    from dimsolve.syntax import PredRef
    from dimsolve.trees import (contract_skeleton, dim, enumerate_contracted,
                                enumerate_trees)

    p = parse(TRIPLE_SRC)
    triple = next(t for t in enumerate_trees(p, PredRef("s"), 9)
                  if len(t.children) == 3)
    assert dim(triple) == 1

    def contracted(kp):
        return {contract_skeleton(kp, t)
                for t in enumerate_contracted(kp, PredRef("s", "atmost", 1), 9)}

    assert triple in contracted(kdim(p, 1))
    assert triple not in contracted(kdim_pairs(p, 1))
