"""The solve loop: solve one dimension level, test the index-erased model of
all levels so far for inductiveness, and linearize only the next level's
clauses ``kdim(p, k, k)`` against that model, until a solution is found or
resources run out.  Each level adds facts for its own predicates only.

Soundness: a Solved outcome always carries a model that passed the
independent inductiveness re-check against the original clauses, so the
answer never depends on the abstraction being precise.  Unknown covers both
abstraction failures and exhausted bounds (the deadline, the Fourier-Motzkin
row cap, the fixpoint round cap and the region-splitting budget, each with
its own reason, caught anywhere in a level); no unsafety claim is ever made.

The whole loop runs inside one ``polyhedra.memo()`` block, so the fixpoint
rounds, the soundness gate, the inductiveness check and linearize share each
polyhedral result the solve has already computed; the table is dropped when
``solve`` returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .kdim import kdim
from .linear_solver import NoFixpoint, SolverTimeout, solve_linear
from .models import Model, SplitBudgetExceeded, linearize, violations
from .models import inductive  # noqa: F401  (perfbench/tracing.py patches it)
from .polyhedra import ResourceExhausted, RowCapExceeded, check_deadline, memo
from .syntax import Program

UNKNOWN_NOT_SOLVED = "not-solved"
UNKNOWN_MAX_K = "max-k"
UNKNOWN_TIMEOUT = SolverTimeout.reason
UNKNOWN_ROW_CAP = RowCapExceeded.reason
UNKNOWN_NO_FIXPOINT = NoFixpoint.reason
UNKNOWN_SPLIT_BUDGET = SplitBudgetExceeded.reason


@dataclass
class Config:
    max_k: int = 8
    widen_delay: int = 1
    narrow: bool = True
    timeout_s: float | None = None
    trace: bool = False


@dataclass
class SolveOutcome:
    status: str  # "solved" | "unknown"
    model: Model | None
    reason: str = ""
    k_reached: int = 0
    stats: list[dict] = field(default_factory=list)

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def solve(p: Program, cfg: Config | None = None, trace=None) -> SolveOutcome:
    cfg = cfg or Config()
    if trace is None and cfg.trace:
        import sys
        trace = lambda msg: print(msg, file=sys.stderr)
    deadline = time.monotonic() + cfg.timeout_s if cfg.timeout_s is not None else None
    stats: list[dict] = []
    k = 0
    current = kdim(p, 0)
    accumulated = Model()
    with memo():
        try:
            while True:
                began = time.monotonic()
                verdict = solve_linear(current, widen_delay=cfg.widen_delay,
                                       narrow=cfg.narrow, deadline=deadline,
                                       trace=trace)
                entry = {"k": k, "clauses": len(current.clauses),
                         "solved": verdict.solved, "seconds": time.monotonic() - began,
                         "check_s": 0.0, "violated": None}
                stats.append(entry)
                if trace:
                    trace(f"k={k} clauses={entry['clauses']} linear-solve="
                          f"{'solved' if verdict.solved else 'not solved'} "
                          f"({entry['seconds']:.2f}s)")
                if not verdict.solved:
                    return SolveOutcome("unknown", None, UNKNOWN_NOT_SOLVED, k, stats)
                assert accumulated.facts.keys().isdisjoint(verdict.model.facts)
                accumulated.facts.update(verdict.model.facts)
                began = time.monotonic()
                failed = violations(accumulated, p, deadline)
                entry["check_s"] = time.monotonic() - began
                entry["violated"] = [c.id for c in failed]
                if trace:
                    trace(f"k={k}: model {'not ' if failed else 'is '}inductive "
                          f"violated={entry['violated']} check={entry['check_s']:.2f}s")
                if not failed:
                    return SolveOutcome("solved", accumulated.erase_indices(), "", k, stats)
                check_deadline(deadline)
                if k + 1 > cfg.max_k:
                    return SolveOutcome("unknown", None, UNKNOWN_MAX_K, k, stats)
                k += 1
                current = linearize(kdim(p, k, k), accumulated, deadline)
        except ResourceExhausted as e:
            return SolveOutcome("unknown", None, e.reason, k, stats)
