"""The solve loop: for k = 0, 1, ..., linearize the level's own clauses
``kdim(p, k, k)`` against the model of the levels below it (empty at level
0), solve that linear program, and test the index-erased model of all
levels so far for inductiveness, until a solution is found or resources run
out.  Each level adds facts for its own predicates only.

Soundness: a Solved outcome always carries a model that passed the
independent inductiveness re-check against the original clauses, so the
answer never depends on the abstraction being precise.  Unknown covers both
abstraction failures and exhausted bounds (the deadline, the Fourier-Motzkin
row cap, the fixpoint round cap and the region-splitting budget, each with
its own reason, caught anywhere in a level); no unsafety claim is ever made.

The whole loop runs inside one ``polyhedra.memo()`` block, so the fixpoint
rounds, the soundness gate, the inductiveness check and linearize share each
polyhedral result and each clause image (``models.head_image``) the solve
has already computed; the table is dropped when ``solve`` returns.  The
block also holds the ``timeout_s`` deadline, which every Fourier-Motzkin
elimination step checks, so no layer takes a deadline of its own.

A level's only report is its ``SolveOutcome.stats`` entry, appended as the
level starts and filled in as its layers return; ``trace``, when given,
receives it once as the level ends, also when a resource limit cuts it short.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .kdim import kdim
from .linear_solver import solve_linear
from .models import Model, linearize, violations
from .models import inductive  # noqa: F401  (perfbench/tracing.py patches it)
from .polyhedra import ResourceExhausted, memo
from .syntax import Program

UNKNOWN_NOT_SOLVED = "not-solved"
UNKNOWN_MAX_K = "max-k"


class Config(NamedTuple):
    max_k: int = 8
    timeout_s: float | None = None


class SolveOutcome(NamedTuple):
    status: str  # "solved" | "unknown"
    model: Model | None
    reason: str = ""
    k_reached: int = 0
    stats: list[dict] | tuple = ()  # one dict per level

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def solve(p: Program, cfg: Config | None = None, trace=None) -> SolveOutcome:
    cfg = cfg or Config()
    if cfg.max_k < 0:
        raise ValueError("max_k must be nonnegative")
    if cfg.timeout_s is not None and not cfg.timeout_s >= 0:  # NaN fails too
        raise ValueError("timeout_s must be a nonnegative number")
    deadline = time.monotonic() + cfg.timeout_s if cfg.timeout_s is not None else None
    stats: list[dict] = []
    accumulated = Model()
    with memo(deadline):
        try:
            for k in range(cfg.max_k + 1):
                level = kdim(p, k, k)
                entry = {"k": k, "clauses": None, "solved": False, "reason": "", "rounds": None,
                         "narrowing": None, "seconds": 0.0, "check_s": 0.0, "violated": None}
                stats.append(entry)
                try:
                    current = linearize(level, accumulated)
                    entry["clauses"] = len(current.clauses)
                    began = time.monotonic()
                    verdict = solve_linear(current)
                    entry.update(solved=verdict.solved, reason=verdict.reason,
                                 rounds=verdict.rounds, narrowing=verdict.narrowing,
                                 seconds=time.monotonic() - began)
                    if not verdict.solved:
                        return SolveOutcome("unknown", None, UNKNOWN_NOT_SOLVED, k, stats)
                    assert accumulated.facts.keys().isdisjoint(verdict.model.facts)
                    accumulated.facts.update(verdict.model.facts)
                    began = time.monotonic()
                    failed = violations(accumulated, p)
                    entry["check_s"] = time.monotonic() - began
                    entry["violated"] = [c.id for c in failed]
                    if not failed:
                        return SolveOutcome("solved", accumulated.erase_indices(), "", k, stats)
                finally:
                    if trace:
                        trace(entry)
            return SolveOutcome("unknown", None, UNKNOWN_MAX_K, cfg.max_k, stats)
        except ResourceExhausted as e:
            return SolveOutcome("unknown", None, e.reason, k, stats)
