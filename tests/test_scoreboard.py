"""The verdict scoreboard: the outcome of ``solve`` at max-k 6 and of
``solve-linear`` on every scoreboard program and every perfbench program.

A change that moves a verdict shows here first, and must say which entries it
changes.  ``solve`` may never report ``SOLVED`` on an unsafe program; each
unsafe program carries a small witness that ``perfbench/check.py``'s ground
derivation finds.  Only the unsafe programs are checked that way: the box
search of a safe program such as ``bintree_size`` takes seconds.
"""

import os
import sys

import pytest

from dimsolve import Config, parse, solve
from dimsolve.linear_solver import solve_linear

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import check  # noqa: E402

SCOREBOARD = os.path.join(ROOT, "benchmarks", "scoreboard")
PERFBENCH = os.path.join(ROOT, "perfbench", "programs")

# program: (directory, solve status, reason, k reached, solve-linear solved)
EXPECTED = {
    "fib": (PERFBENCH, "solved", "", 1, True),
    "merge_sum": (PERFBENCH, "solved", "", 1, True),
    "doubling_sum": (PERFBENCH, "solved", "", 1, True),
    "bintree_size": (SCOREBOARD, "solved", "", 1, True),
    "tree_count": (PERFBENCH, "solved", "", 2, True),
    "tree3_count": (PERFBENCH, "unknown", "max-k", 6, True),
    "tree4": (SCOREBOARD, "unknown", "max-k", 6, True),
    "hanoi": (SCOREBOARD, "unknown", "not-solved", 2, True),
    "ack_like": (SCOREBOARD, "unknown", "not-solved", 1, True),
    "mc91": (SCOREBOARD, "unknown", "not-solved", 2, False),
    "fib_lb": (SCOREBOARD, "unknown", "not-solved", 2, False),
    "mutual": (SCOREBOARD, "unknown", "not-solved", 2, False),
    "fib_eq": (PERFBENCH, "unknown", "not-solved", 5, False),
    "fib_eq_unsafe": (SCOREBOARD, "unknown", "not-solved", 1, False),
    "hanoi_unsafe": (SCOREBOARD, "unknown", "not-solved", 1, False),
}


def _text(name: str) -> str:
    with open(os.path.join(EXPECTED[name][0], f"{name}.pl")) as fh:
        return fh.read()


def test_scoreboard_lists_every_program():
    on_disk = {f[:-3] for d in (SCOREBOARD, PERFBENCH) for f in os.listdir(d)
               if f.endswith(".pl")}
    assert on_disk == set(EXPECTED)


@pytest.mark.parametrize("name", EXPECTED)
def test_scoreboard_outcome(name):
    _, status, reason, k, linear_solved = EXPECTED[name]
    out = solve(parse(_text(name)), Config(max_k=6))
    assert (out.status, out.reason, out.k_reached) == (status, reason, k)
    assert solve_linear(parse(_text(name))).solved == linear_solved


@pytest.mark.parametrize("name", [n for n in EXPECTED if n.endswith("_unsafe")])
def test_unsafe_programs_have_a_witness_and_are_never_solved(name):
    witness = check.check_model(_text(name), "")
    assert witness is not None and witness.startswith("false clause ")
    assert " fires at " in witness
    assert not solve(parse(_text(name)), Config(max_k=6)).solved
