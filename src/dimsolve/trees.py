"""Derivation trees, tree dimension, and a bounded enumeration oracle.

A tree is a ``Node``; a derivation tree is a ``Node`` whose labels are
clause ids.  The dimension of a labeled tree measures its non-linearity:
chains have dimension 0, a complete binary tree has dimension equal to its
height.  The enumerator yields every derivation tree of a program up to a
node budget whose accumulated constraint is satisfiable, in the order of
their preorder clause-id sequences; it serves as the ground-truth oracle
for the dimension-bounding transformation.  ``tree_constraint`` names the
variable ``v`` of the clause at preorder position ``i`` ``v@i``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from typing import NamedTuple

from .polyhedra import Polyhedron
from .syntax import Atom, Clause, PredRef, Program
from .terms import EQ, Constraint


class Node(NamedTuple):
    """A labeled tree.  A derivation tree is a ``Node`` labeled by clause
    ids; it equals and hashes as its plain ``(label, children)`` tuple."""
    label: object = None
    children: tuple = ()


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
               free: frozenset[int] = frozenset()) -> list[Node]:
    """Complete derivation trees, satisfiable or not, whose node count, not
    counting clauses in ``free``, stays within the budget, in the order of
    their preorder clause-id sequences.  Free clauses must not form body
    cycles among themselves.

    ``gen`` goes through the clauses by id and ``seq`` through each child in
    turn, so each memoized list is ordered by the children's sequences one
    after another.  A clause fixes its number of children, so no complete
    tree's sequence is a prefix of another's, and that order is the order of
    the concatenated preorder sequences."""
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
                out.append((Node(c.id, kids), cost + n))
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

    return [t for t, n in gen(pred, max_nodes)]


def tree_constraint(p: Program, t: Node) -> Polyhedron:
    """Conjunction of all renamed clause constraints plus the equations tying
    each body atom's arguments to its child's head arguments.  The clause
    variable ``v`` of the node at preorder position ``i`` is named ``v@i``."""
    clauses = {c.id: c for c in p.clauses}
    rows: list[Constraint] = []
    dims: set[str] = set()
    positions = count()

    def walk(node: Node, i: int):
        clause = clauses[node.label]
        ren = {v: f"{v}@{i}" for v in clause.vars()}
        dims.update(ren.values())
        rows.extend(c.rename(ren) for c in clause.constraint)
        for atom, child in zip(clause.body, node.children):
            j = next(positions)
            for a, h in zip(atom.args, clauses[child.label].head.args):
                rows.append(Constraint.make({ren[a.name]: 1, f"{h.name}@{j}": -1}, 0, EQ))
            walk(child, j)

    walk(t, next(positions))
    return Polyhedron(sorted(dims), rows)


def enumerate_trees(p: Program, root: PredRef, max_nodes: int,
                    free: frozenset[int] = frozenset()):
    """Yield the satisfiable derivation trees rooted at ``root`` with at most
    ``max_nodes`` nodes, ordered by their preorder clause-id sequence.
    Clauses listed in ``free`` do not count against the budget."""
    if max_nodes < 1:
        raise ValueError("max_nodes must be at least 1")
    for t in _skeletons(p, root, max_nodes, free):
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

def contract_skeleton(kp: Program, t: Node) -> Node:
    """Map a derivation tree of a transformed program back to one of the
    source program by splicing out H[d] :- H(e) steps and replacing clause
    ids by their origin."""
    by_id = {c.id: c for c in kp.clauses}

    def go(s: Node) -> Node:
        clause = by_id[s.label]
        if clause.provenance and clause.provenance[0] == "eps":
            return go(s.children[0])
        src = clause.provenance[1] if clause.provenance else s.label
        return Node(src, tuple(go(k) for k in s.children))

    return go(t)


# ---------------------------------------------------------------------------
# text form used by the CLI (--dump-trees and the dim subcommand)

def render_tree(t: Node, depth: int = 0) -> str:
    """The indented dump format; an int label, a clause id, prints as ``c<id>``."""
    label = f"c{t.label}" if isinstance(t.label, int) else str(t.label)
    lines = ["  " * depth + label]
    for c in t.children:
        lines.append(render_tree(c, depth + 1))
    return "\n".join(lines) if depth else "\n".join(lines) + "\n"


def parse_tree(text: str) -> Node:
    """Parse the indented dump format back into a labeled tree.  Each level
    is indented by two spaces; any other leading whitespace is an error."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        indent = len(raw) - len(raw.lstrip())
        if indent % 2 or raw[:indent] != " " * indent:
            raise ValueError(f"line {lineno}: indentation must use two spaces per level")
        entries.append((indent // 2, raw.strip()))
    if not entries:
        raise ValueError("empty tree dump")

    def build(i: int) -> tuple[Node, int]:
        # the node at entry i; its children are the deeper entries after it
        depth, label = entries[i]
        kids = []
        i += 1
        while i < len(entries) and entries[i][0] > depth:
            kid, i = build(i)
            kids.append(kid)
        return Node(label, tuple(kids)), i

    root, end = build(0)
    if end < len(entries):
        raise ValueError("multiple roots in tree dump")
    return root
