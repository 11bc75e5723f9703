import random
from collections import Counter

import pytest

from dimsolve.kdim import clause_count, kdim
from dimsolve.parser import parse
from dimsolve.syntax import ATMOST, PredRef, is_linear, render_clause, render_program
from dimsolve.trees import contract_skeleton, dim, enumerate_contracted, enumerate_trees

from conftest import (FIB_SRC, alpha_equal, multiset_alpha_equal, random_program,
                      tree_count_src)

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
    wide = parse(tree_count_src(12))
    assert clause_count(wide, 3) == len(kdim(wide, 3).clauses)


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


TRIPLE_SRC = """\
t(X) :- X = 0.
s(X) :- X = 0, X1 = 0, X2 = 0, X3 = 0, t(X1), t(X2), t(X3).
"""

# the same three-child node over binary ``t``, whose subtrees reach dimension 1
TRIPLE_DEEP_SRC = """\
t(X) :- X = 0.
t(X) :- X = 0, X1 = 0, X2 = 0, t(X1), t(X2).
s(X) :- X = 0, X1 = 0, X2 = 0, X3 = 0, t(X1), t(X2), t(X3).
"""


@pytest.mark.parametrize("src, d, budget", [(TRIPLE_SRC, 1, 9),
                                            (TRIPLE_DEEP_SRC, 2, 10)],
                         ids=["d1", "d2"])
def test_three_way_tie_derived_by_a_pair_clause(src, d, budget):
    """Three children tied at d-1 give a node of dimension d, and a rule-2b
    clause naming two of them, with the third at [d-1], derives it."""
    p = parse(src)
    triple = next(t for t in enumerate_trees(p, PredRef("s"), budget)
                  if len(t.children) == 3 and all(dim(c) == d - 1 for c in t.children))
    assert dim(triple) == d

    kp = kdim(p, d)
    by_id = {c.id: c for c in kp.clauses}
    # the root is the bookkeeping step s[d] :- s(d); its child is the tie
    ties = [by_id[t.children[0].label].provenance
            for t in enumerate_contracted(kp, PredRef("s", ATMOST, d), budget)
            if contract_skeleton(kp, t) == triple]
    assert ties
    assert all(prov[0] == "rule2b" and len(prov[3]) == 2 for prov in ties)


@pytest.mark.parametrize("r", range(2, 7))
def test_rule2b_has_one_clause_per_pair_and_level(r):
    atoms = ", ".join(f"b(X{i})" for i in range(r))
    p = parse(f"b(X) :- X = 0.\nh(X) :- X = 0, {atoms}.\n")
    per_level = Counter(c.provenance[2] for c in kdim(p, 3).clauses
                        if c.provenance[0] == "rule2b")
    assert per_level == {d: r * (r - 1) // 2 for d in (1, 2, 3)}
