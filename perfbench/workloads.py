"""Workload definitions and the seeded program generator.

A workload is a fixed list of programs plus the solver settings it runs
with.  ``program_texts`` turns a workload, a seed and a pass number into the
exact text the solver receives: seed 0 is each program as written; any other
seed renames every clause variable to a fresh random name and shuffles the
clause order, with a different renaming for each of ``VARIANTS`` passes.
Renaming matters because the Fourier-Motzkin engine breaks ties by variable
name, so one set of names fixes one elimination order among many; cycling
through several per run keeps one lucky or unlucky order from deciding the
run's median.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass
from pathlib import Path

PROGRAMS = Path(__file__).resolve().parent / "programs"
VARIANTS = 8  # renamings per seed; pass i of a run uses variant i % VARIANTS


@dataclass(frozen=True)
class Workload:
    name: str
    programs: tuple[str, ...]  # file stems under programs/
    max_k: int
    limit_s: float  # per-program wall limit, enforced by killing the worker
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("suite", ("fib", "merge_sum", "doubling_sum", "tree_count"), 8, 30.0,
             "the typical decided input: all four shipped programs end SOLVED "
             "at k <= 2 and every inductiveness check passes"),
    Workload("tree3-deep", ("tree3_count",), 4, 60.0,
             "the inductiveness check fails on models full of subsumed facts; "
             "about 94% of the time is in models.inductive"),
    Workload("fib-eq", ("fib_eq",), 8, 40.0,
             "ends UNKNOWN not-solved with most time in the linear fixpoint; "
             "bypasses the inductiveness check"),
)}

_VAR = re.compile(r"\b[A-Z][A-Za-z0-9_]*")
_NAME_CHARS = string.ascii_uppercase + string.digits


def _clauses(text: str) -> list[str]:
    """Clause texts without comments, one clause per string."""
    body = "\n".join(line.split("%", 1)[0] for line in text.splitlines())
    return [" ".join(c.split()) + "." for c in body.split(".") if c.strip()]


def rename(text: str, rng: random.Random) -> str:
    """Fresh variable names per clause and a shuffled clause order."""
    used: set[str] = set()

    def fresh() -> str:
        while True:
            name = rng.choice(string.ascii_uppercase) + "".join(
                rng.choice(_NAME_CHARS) for _ in range(4))
            if name not in used:
                used.add(name)
                return name

    out = []
    for clause in _clauses(text):
        mapping: dict[str, str] = {}

        def sub(m: re.Match) -> str:
            if m.group() not in mapping:
                mapping[m.group()] = fresh()
            return mapping[m.group()]
        out.append(_VAR.sub(sub, clause))
    rng.shuffle(out)
    return "".join(c + "\n" for c in out)


def program_texts(workload: Workload, seed: int, variant: int = 0) -> list[tuple[str, str]]:
    """(program name, generated text) for every program of the workload."""
    out = []
    for name in workload.programs:
        text = (PROGRAMS / f"{name}.pl").read_text()
        if seed != 0:
            rng = random.Random(f"{workload.name}/{name}/{seed}/{variant % VARIANTS}")
            text = rename(text, rng)
        out.append((name, text))
    return out
