"""The names ``perfbench/tracing.py`` patches from outside the solver must
exist: a refactor that deletes one breaks only ``perfbench/run.py --trace 1``,
with a ``KeyError``, unless this test catches it first."""

import os
import sys

from dimsolve import parse, solve

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import tracing  # noqa: E402


def test_tracer_installs_and_restores_every_target():
    targets = tracing._SPANNED + tracing._COUNTED
    originals = [owner.__dict__[attr] for owner, attr, _ in targets]
    with open(os.path.join(ROOT, "benchmarks", "fib.pl")) as fh:
        program = parse(fh.read())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = solve(program)
    finally:
        tracer.uninstall()
    assert out.solved
    assert {"fixpoint", "polyhedra.sat"} <= set(tracer.names)
    assert all(owner.__dict__[attr] is original
               for (owner, attr, _), original in zip(targets, originals))
