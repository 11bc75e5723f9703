"""The verdict scoreboard: the outcome of ``solve`` at max-k 6 and of
``solve-linear`` on every scoreboard program and every perfbench program,
with a digest of each rendered model and of ``solve``'s per-level records.

A change that moves a verdict or a model shows here first, and must say which
entries it changes.  ``solve`` may never report ``SOLVED`` on an unsafe
program; each unsafe program carries a small witness that
``perfbench/check.py``'s ground derivation finds.  Only the unsafe programs
are checked that way: the box search of a safe program such as
``bintree_size`` takes seconds.
"""

import hashlib
import json
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

# program: (directory, solve status, reason, k reached, level digest, model
# digests): the level digest is that of ``solve``'s per-level records (see
# ``_levels_digest``), and the model digests are those of the rendered
# ``solve`` and ``solve-linear`` models, None where the command solves nothing
EXPECTED = {
    "fib": (PERFBENCH, "solved", "", 1, "7aabc76290ab9e1a",
            "3a30dd52c8eff2a8", "99695797924ba952"),
    "merge_sum": (PERFBENCH, "solved", "", 1, "ed8913a2c4f4e221",
                  "22995995360ca036", "0260247f270a5778"),
    "doubling_sum": (PERFBENCH, "solved", "", 1, "ed8913a2c4f4e221",
                     "8df8626de2f2305b", "7f6185d83efe0428"),
    "bintree_size": (SCOREBOARD, "solved", "", 1, "0a2e3cbc88b307d1",
                     "7d148cd64dd7f1d0", "ead77cdd3a6a08aa"),
    "tree_count": (PERFBENCH, "solved", "", 2, "fd90acd44170e153",
                   "1c906157815087c1", "77ccd19f8eb8abb7"),
    "tree3_count": (PERFBENCH, "unknown", "max-k", 6, "f3342a5fd7a61f00",
                    None, "b554b80937844d01"),
    "tree4": (SCOREBOARD, "unknown", "max-k", 6, "e15b626e509e6ce1",
              None, "46fd36327731f69d"),
    "hanoi": (SCOREBOARD, "unknown", "not-solved", 2, "95309dad8a855d1e",
              None, "4ea44f80290ad3cd"),
    "ack_like": (SCOREBOARD, "unknown", "not-solved", 1, "92757a351a3df34e",
                 None, "db6e811f8d8cff25"),
    "mc91": (SCOREBOARD, "unknown", "not-solved", 2, "bc7e8029d0020cc6",
             None, None),
    "fib_lb": (SCOREBOARD, "unknown", "not-solved", 2, "5581553ab189d21d",
               None, None),
    "mutual": (SCOREBOARD, "unknown", "not-solved", 2, "dc0f72757340dbc6",
               None, None),
    "fib_eq": (PERFBENCH, "unknown", "not-solved", 5, "afa51fe7c3d54464",
               None, None),
    "fib_eq_unsafe": (SCOREBOARD, "unknown", "not-solved", 1, "85850b4a262512a0",
                      None, None),
    "hanoi_unsafe": (SCOREBOARD, "unknown", "not-solved", 1, "8f3c854d1b80ed6d",
                     None, None),
}


def _text(name: str) -> str:
    with open(os.path.join(EXPECTED[name][0], f"{name}.pl")) as fh:
        return fh.read()


def test_scoreboard_lists_every_program():
    on_disk = {f[:-3] for d in (SCOREBOARD, PERFBENCH) for f in os.listdir(d)
               if f.endswith(".pl")}
    assert on_disk == set(EXPECTED)


def _digest(model) -> str | None:
    """The first 16 hex digits of the rendered model's sha256; None for no
    model."""
    return None if model is None else hashlib.sha256(model.render().encode()).hexdigest()[:16]


_LEVEL_FIELDS = ("k", "clauses", "solved", "reason", "rounds", "narrowing", "violated")


def _levels_digest(stats) -> str:
    """The first 16 hex digits of the sha256 of the JSON list of each
    level's record, its times left out."""
    levels = [{f: entry[f] for f in _LEVEL_FIELDS} for entry in stats]
    return hashlib.sha256(json.dumps(levels).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", EXPECTED)
def test_scoreboard_outcome(name):
    _, status, reason, k, levels, model, linear_model = EXPECTED[name]
    out = solve(parse(_text(name)), Config(max_k=6))
    assert (out.status, out.reason, out.k_reached) == (status, reason, k)
    assert _levels_digest(out.stats) == levels
    assert _digest(out.model) == model
    assert _digest(solve_linear(parse(_text(name))).model) == linear_model


@pytest.mark.parametrize("name", [n for n in EXPECTED if n.endswith("_unsafe")])
def test_unsafe_programs_have_a_witness_and_are_never_solved(name):
    witness = check.check_model(_text(name), "")
    assert witness is not None and witness.startswith("false clause ")
    assert " fires at " in witness
    assert not solve(parse(_text(name)), Config(max_k=6)).solved
