"""Derivation trees, tree dimension, and a bounded enumeration oracle.

The dimension of a labeled tree measures its non-linearity: chains have
dimension 0, a complete binary tree has dimension equal to its height.  The
enumerator yields every derivation tree of a program up to a node budget
whose accumulated constraint is satisfiable; it serves as the ground-truth
oracle for the dimension-bounding transformation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .polyhedra import Polyhedron
from .syntax import Atom, Clause, PredRef, Program
from .terms import EQ, Constraint


class Node(NamedTuple):
    """A bare labeled tree, for dimension computations on hand-built trees."""
    label: object = None
    children: tuple = ()


class DerivTree(NamedTuple):
    clause_id: int
    binding: tuple[tuple[str, str], ...]  # clause variable -> instance variable
    children: tuple["DerivTree", ...] = ()

    def skeleton(self):
        return (self.clause_id, tuple(c.skeleton() for c in self.children))


def dim(t) -> int:
    """0 for leaves; the maximum child dimension, plus one when the maximum
    is attained by more than one child."""
    kids = t.children
    if not kids:
        return 0
    ds = [dim(c) for c in kids]
    m = max(ds)
    return m if ds.count(m) == 1 else m + 1


def height(t) -> int:
    kids = t.children
    if not kids:
        return 0
    return 1 + max(height(c) for c in kids)


# ---------------------------------------------------------------------------
# enumeration

def _skeletons(p: Program, pred: PredRef, max_nodes: int,
               free: frozenset[int] = frozenset()):
    """Skeletons (nested clause-id tuples) of complete derivations whose
    node count, not counting clauses in ``free``, stays within the budget.
    Free clauses must not form body cycles among themselves."""
    by_pred: dict[PredRef, list[Clause]] = {}
    for c in p.clauses:
        by_pred.setdefault(c.head.pred, []).append(c)
    for cs in by_pred.values():
        cs.sort(key=lambda c: c.id)

    @lru_cache(maxsize=None)
    def gen(q: PredRef, budget: int) -> tuple:
        if budget < 0:
            return ()
        out = []
        for c in by_pred.get(q, ()):
            cost = 0 if c.id in free else 1
            if budget - cost < 0:
                continue
            for kids, n in seq(c.body, budget - cost):
                out.append(((c.id, kids), cost + n))
        return tuple(out)

    @lru_cache(maxsize=None)
    def seq(atoms: tuple[Atom, ...], budget: int) -> tuple:
        if not atoms:
            return (((), 0),)
        if budget < 0:
            return ()
        head, rest = atoms[0], atoms[1:]
        out = []
        for t, n in gen(head.pred, budget):
            for ts, m in seq(rest, budget - n):
                out.append(((t, *ts), n + m))
        return tuple(out)

    return [skel for skel, n in gen(pred, max_nodes)]


def _by_id(p: Program) -> dict[int, Clause]:
    return {c.id: c for c in p.clauses}


def _instantiate(clauses: dict[int, Clause], skel, counter) -> DerivTree:
    cid, kids = skel
    clause = clauses[cid]
    idx = counter[0]
    counter[0] += 1
    binding = tuple((v, f"{v}@{idx}") for v in clause.vars())
    return DerivTree(cid, binding,
                     tuple(_instantiate(clauses, k, counter) for k in kids))


def tree_constraint(p: Program, t: DerivTree) -> Polyhedron:
    """Conjunction of all renamed clause constraints plus the equations tying
    each body atom's arguments to its child's head arguments."""
    clauses = _by_id(p)
    rows: list[Constraint] = []
    dims: set[str] = set()

    def walk(node: DerivTree):
        clause = clauses[node.clause_id]
        ren = dict(node.binding)
        dims.update(ren.values())
        for c in clause.constraint:
            rows.append(c.rename(ren))
        for atom, child in zip(clause.body, node.children):
            child_ren = dict(child.binding)
            for a, h in zip(atom.args, clauses[child.clause_id].head.args):
                rows.append(Constraint.make({ren[a.name]: 1, child_ren[h.name]: -1}, 0, EQ))
            walk(child)

    walk(t)
    return Polyhedron(sorted(dims), rows)


def _preorder_ids(skel) -> tuple[int, ...]:
    cid, kids = skel
    out = [cid]
    for k in kids:
        out.extend(_preorder_ids(k))
    return tuple(out)


def enumerate_trees(p: Program, root: PredRef, max_nodes: int,
                    free: frozenset[int] = frozenset()):
    """Yield the satisfiable derivation trees rooted at ``root`` with at most
    ``max_nodes`` nodes, ordered by their preorder clause-id sequence.
    Clauses listed in ``free`` do not count against the budget."""
    if max_nodes < 1:
        raise ValueError("max_nodes must be at least 1")
    clauses = _by_id(p)
    skels = sorted(_skeletons(p, root, max_nodes, free), key=_preorder_ids)
    for skel in skels:
        t = _instantiate(clauses, skel, [0])
        if tree_constraint(p, t).sat():
            yield t


def enumerate_contracted(kp: Program, root: PredRef, source_budget: int):
    """Derivation trees of a transformed program whose contraction has at
    most ``source_budget`` nodes: bookkeeping clauses are free."""
    eps = frozenset(c.id for c in kp.clauses
                    if c.provenance and c.provenance[0] == "eps")
    return enumerate_trees(kp, root, source_budget, free=eps)


# ---------------------------------------------------------------------------
# contraction of bookkeeping steps introduced by the transformation

def contract_skeleton(kp: Program, skel):
    """Map a transformed-program skeleton back to a source-program skeleton by
    splicing out H[d] :- H(e) steps and replacing clause ids by their origin."""
    by_id = {c.id: c for c in kp.clauses}

    def go(s):
        cid, kids = s
        clause = by_id[cid]
        if clause.provenance and clause.provenance[0] == "eps":
            return go(kids[0])
        src = clause.provenance[1] if clause.provenance else cid
        return (src, tuple(go(k) for k in kids))

    return go(skel)


# ---------------------------------------------------------------------------
# text form used by the CLI (--dump-trees and the dim subcommand)

def render_tree(t, depth: int = 0) -> str:
    label = f"c{t.clause_id}" if isinstance(t, DerivTree) else str(t.label)
    lines = ["  " * depth + label]
    for c in t.children:
        lines.append(render_tree(c, depth + 1))
    return "\n".join(lines) if depth else "\n".join(lines) + "\n"


def parse_tree(text: str) -> Node:
    """Parse the indented dump format back into a labeled tree."""
    root = None
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        indent = len(raw) - len(raw.lstrip(" "))
        if indent % 2:
            raise ValueError(f"line {lineno}: indentation must use two spaces per level")
        entries.append((indent // 2, raw.strip()))
    nodes: list[tuple[int, str, list]] = []
    for depth, label in entries:
        item = (depth, label, [])
        while nodes and nodes[-1][0] >= depth:
            nodes.pop()
        if not nodes:
            if root is not None:
                raise ValueError("multiple roots in tree dump")
            root = item
        else:
            nodes[-1][2].append(item)
        nodes.append(item)
    if root is None:
        raise ValueError("empty tree dump")

    def build(item) -> Node:
        _, label, kids = item
        return Node(label, tuple(build(k) for k in kids))

    return build(root)
