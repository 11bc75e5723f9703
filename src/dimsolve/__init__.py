"""Dimension-bounded constrained Horn clause solver over linear integer arithmetic.

The pipeline: parse clauses in CLP syntax, bound the tree dimension of
derivations to obtain a linear under-approximation, solve that with an exact
polyhedral fixpoint engine, test the index-erased model for inductiveness
against the original clauses, and substitute the model into the next
dimension level until a solution is found or resources run out.
"""

from .driver import Config, SolveOutcome, solve
from .kdim import clause_count, kdim
from .linear_solver import LinearVerdict, solve_linear, step
from .models import (Model, inductive, linearize, satisfies_clause,
                     satisfies_program, violations)
from .parser import ParseError, parse
from .polyhedra import DimensionMismatch, Polyhedron
from .syntax import (Atom, Clause, PredRef, Program, Var, is_linear,
                     render_program)
from .terms import Constraint

# parse and solve never need the derivation trees, so ``trees`` loads on
# first use of one of its names (PEP 562)
_TREES = {"Node", "dim", "enumerate_trees", "height",
          "render_tree", "tree_constraint"}


def __getattr__(name):
    if name in _TREES:
        from . import trees
        return getattr(trees, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Atom", "Clause", "Config", "Constraint", "DimensionMismatch", "LinearVerdict",
    "Model", "Node", "ParseError", "Polyhedron", "PredRef", "Program",
    "SolveOutcome", "Var", "clause_count", "dim", "enumerate_trees",
    "height", "inductive", "is_linear", "kdim",
    "linearize", "parse", "render_program", "render_tree",
    "satisfies_clause", "satisfies_program", "solve",
    "solve_linear", "step", "tree_constraint", "violations",
]
