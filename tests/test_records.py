"""Records are immutable named tuples: their equality, hashing, reprs and
defaults, and the import cost they keep off a cold start."""

import os
import subprocess
import sys

import pytest

from dimsolve import (Atom, Clause, Config, LinearVerdict, Node, PredRef,
                      Program, SolveOutcome, Var, enumerate_trees, parse,
                      solve)
from dimsolve.parser import Token, tokenize

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _records(fib_bench):
    clause = fib_bench.clauses[0]
    tree = next(enumerate_trees(fib_bench, clause.head.pred, 1))
    return [Var("A"), clause.head.pred, clause.head, clause, fib_bench,
            tokenize("p.")[0], Node("n"), tree, Config(),
            solve(fib_bench), LinearVerdict(None, "why")]


def test_fields_cannot_be_assigned(fib_bench):
    records = _records(fib_bench)
    assert {type(r) for r in records} == {
        Var, PredRef, Atom, Clause, Program, Token, Node,
        Config, SolveOutcome, LinearVerdict}
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None


def test_hash_is_the_tuple_hash_of_the_compared_fields(fib_bench):
    for record in _records(fib_bench):
        if isinstance(record, Clause):
            assert hash(record) == hash((record.head, record.constraint, record.body))
        elif isinstance(record, Program):
            assert hash(record) == hash((record.clauses,))
        elif not isinstance(record, SolveOutcome):  # its stats list is unhashable
            assert hash(record) == hash(tuple(record))


def test_clause_equality_ignores_id_and_provenance(fib_bench):
    c = fib_bench.clauses[1]
    for other in (c._replace(id=99), c._replace(provenance=("rule1", 2, 0))):
        assert c == other
        assert not c != other
        assert hash(c) == hash(other)
    changed = c._replace(body=c.body[:1])
    assert c != changed
    assert not c == changed


def test_program_equality_ignores_signatures(fib_bench):
    other = Program(fib_bench.clauses, {})
    assert fib_bench == other
    assert not fib_bench != other
    assert hash(fib_bench) == hash(other)
    assert fib_bench != Program(fib_bench.clauses[1:], fib_bench.signatures)


def test_solve_outcome_default_stats_are_not_shared():
    a = SolveOutcome("unknown", None)
    b = SolveOutcome("unknown", None)
    assert a.stats == b.stats == ()
    assert not isinstance(a.stats, list)


def test_config_repr_and_replace():
    assert repr(Config()) == "Config(max_k=8, timeout_s=None)"
    assert Config()._replace(max_k=2) == Config(max_k=2)


def test_cold_start_imports_neither_dataclasses_nor_inspect():
    # -S keeps site-packages hooks, which the package does not control, out
    # of the module list; ``dimsolve.trees`` loads only once a name of it
    # is asked for, and a solve from the command line asks for none
    probe = ("import contextlib, io, sys, dimsolve\n"
             "from dimsolve import cli\n"
             "with open(sys.argv[1]) as f:\n"
             "    out = dimsolve.solve(dimsolve.parse(f.read()))\n"
             "assert out.solved, out\n"
             "with contextlib.redirect_stdout(io.StringIO()) as printed:\n"
             "    assert cli.main([sys.argv[1]]) == 0\n"
             "assert printed.getvalue().startswith('SOLVED\\n')\n"
             "print(' '.join(m for m in ('dataclasses', 'inspect', 'dimsolve.trees')\n"
             "               if m in sys.modules))\n"
             "from dimsolve import dim\n"
             "print('dimsolve.trees' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    done = subprocess.run([sys.executable, "-S", "-c", probe,
                           os.path.join(ROOT, "benchmarks", "fib.pl")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["", "True", ""]
