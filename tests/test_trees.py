import random

import pytest

from dimsolve.kdim import kdim
from dimsolve.syntax import ATMOST, PredRef
from dimsolve.terms import EQ, Constraint
from dimsolve.trees import (Node, contract_skeleton, dim,
                            enumerate_contracted, enumerate_trees, height,
                            parse_tree, render_tree, tree_constraint)

from conftest import random_program


def leafy(label="x"):
    return Node(label)


def complete_binary(h):
    if h == 0:
        return leafy()
    sub = complete_binary(h - 1)
    return Node("n", (sub, sub))


def test_dim_single_node():
    assert dim(leafy()) == 0
    assert height(leafy()) == 0


def test_dim_complete_binary_equals_height():
    for h in range(7):
        t = complete_binary(h)
        assert dim(t) == h
        assert height(t) == h


def test_dim_chain_is_zero():
    t = leafy()
    for _ in range(5):
        t = Node("n", (t,))
    assert dim(t) == 0
    assert height(t) == 5


def test_fibonacci_number3_derivation_tree():
    # as drawn: the two base-case applications carry their own leaf step
    base = Node("base", (Node("apply"),))
    t = Node("fib3", (base, Node("fib2", (base, base))))
    assert dim(t) == 1
    assert height(t) == 3


def test_dim_invariant_under_child_reordering():
    rng = random.Random(2)

    def shuffle(t):
        kids = list(t.children)
        rng.shuffle(kids)
        return Node(t.label, tuple(shuffle(c) for c in kids))

    t = Node("r", (complete_binary(2), Node("n", (complete_binary(3),)), leafy()))
    for _ in range(10):
        assert dim(shuffle(t)) == dim(t)


def test_dim_three_way_tie_adds_one():
    t = Node("r", (leafy(), leafy(), leafy()))
    assert dim(t) == 1


def test_dim_le_height_random_trees():
    rng = random.Random(4)

    def rand_tree(depth):
        if depth == 0 or rng.random() < 0.3:
            return leafy()
        return Node("n", tuple(rand_tree(depth - 1) for _ in range(rng.randint(1, 3))))

    for _ in range(50):
        t = rand_tree(4)
        assert dim(t) <= height(t)


# --- enumeration ---------------------------------------------------------

def test_enumerate_min_budget(fib):
    ts = list(enumerate_trees(fib, PredRef("fib"), 1))
    assert ts == [(1, ())]


def test_enumerate_includes_fibonacci3(fib):
    ts = list(enumerate_trees(fib, PredRef("fib"), 7))
    fib3 = (2, ((1, ()), (2, ((1, ()), (1, ())))))
    assert fib3 in ts
    t = next(t for t in ts if t == fib3)
    assert dim(t) == 1


def test_enumerate_filters_unsatisfiable(fib):
    # the left-nested variant needs A-2 simultaneously below 2 and above 1
    ts = set(enumerate_trees(fib, PredRef("fib"), 7))
    left_nested = (2, ((2, ((1, ()), (1, ()))), (1, ())))
    assert left_nested not in ts


def test_enumerate_deterministic_order(fib):
    a = list(enumerate_trees(fib, PredRef("fib"), 7))
    b = list(enumerate_trees(fib, PredRef("fib"), 7))
    assert a == b == sorted(a, key=lambda s: _preorder(s))


def _preorder(skel):
    cid, kids = skel
    out = [cid]
    for k in kids:
        out.extend(_preorder(k))
    return tuple(out)


def test_level0_trees_have_dim_zero(fib):
    k0 = kdim(fib, 0)
    ts = list(enumerate_trees(k0, PredRef("fib", ATMOST, 0), 9))
    assert ts and all(dim(t) == 0 for t in ts)


def test_enumerate_requires_positive_budget(fib):
    with pytest.raises(ValueError):
        next(enumerate_trees(fib, PredRef("fib"), 0))


def test_tree_constraint_satisfiable_binding(fib):
    t = next(iter(enumerate_trees(fib, PredRef("fib"), 7)))
    assert tree_constraint(fib, t).sat()


def test_tree_constraint_names_variables_by_preorder_position(fib):
    # preorder: 0 c2, 1 c1, 2 c2, 3 c1, 4 c1
    fib3 = Node(2, (Node(1), Node(2, (Node(1), Node(1)))))
    poly = tree_constraint(fib, fib3)
    assert set(poly.dims) == ({f"{v}@{i}" for i in (1, 3, 4) for v in "AB"}
                              | {f"{v}@{i}" for i in (0, 2)
                                 for v in ("A", "A1", "A2", "B", "B1", "B2")})
    # node 0's body atoms fib(A2, B2) and fib(A1, B1) meet the heads of
    # nodes 1 and 2; node 2's meet those of nodes 3 and 4
    for a, h in (("A2@0", "A@1"), ("A1@0", "A@2"), ("A2@2", "A@3"), ("B1@2", "B@4")):
        assert Constraint.make({a: 1, h: -1}, 0, EQ) in poly.constraints
    assert poly.sat()


def _strictly_increasing_preorder(trees):
    seqs = [_preorder(t) for t in trees]
    return all(a < b for a, b in zip(seqs, seqs[1:]))


def test_enumeration_order_strictly_increases():
    # the enumeration is not sorted: its memoized lists come out in this order
    rng = random.Random(6)
    for _ in range(20):
        p = random_program(rng)
        for pred in {c.head.pred for c in p.clauses}:
            assert _strictly_increasing_preorder(enumerate_trees(p, pred, 8))
        for k in range(3):
            kp = kdim(p, k)
            for base in {q.base for q in p.signatures if not q.indexed}:
                assert _strictly_increasing_preorder(
                    enumerate_contracted(kp, PredRef(base, ATMOST, k), 7))


# --- the transformation preserves exactly the low-dimension trees --------

def dimension_restriction_holds(p, k, budget=9):
    source = {}
    for pred in {q for q in p.signatures if not q.indexed}:
        trees = enumerate_trees(p, pred, budget)
        source[pred.base] = {t for t in trees if dim(t) <= k}
    kp = kdim(p, k)
    lifted = {base: set() for base in source}
    for base in source:
        root = PredRef(base, ATMOST, k)
        for t in enumerate_contracted(kp, root, budget):
            lifted[base].add(contract_skeleton(kp, t))
    return source == lifted


def _size(skel):
    cid, kids = skel
    return 1 + sum(_size(k) for k in kids)


def test_dimension_restriction_fib(fib):
    for k in range(3):
        assert dimension_restriction_holds(fib, k)


def test_dimension_restriction_random_small():
    rng = random.Random(6)
    for _ in range(8):
        p = random_program(rng)
        for k in range(2):
            assert dimension_restriction_holds(p, k)


# --- text form -----------------------------------------------------------

def test_render_parse_tree_roundtrip(fib):
    for t in enumerate_trees(fib, PredRef("fib"), 7):
        back = parse_tree(render_tree(t))
        assert dim(back) == dim(t)
        assert height(back) == height(t)


def test_parse_tree_rejects_bad_indent():
    with pytest.raises(ValueError):
        parse_tree("c1\n c2\n")


def test_parse_tree_rejects_multiple_roots():
    with pytest.raises(ValueError):
        parse_tree("c1\nc2\n")
