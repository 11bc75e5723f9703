import os
import random
import sys
import time

import pytest

from dimsolve import driver, linear_solver, polyhedra
from dimsolve.driver import Config, UNKNOWN_MAX_K, UNKNOWN_NOT_SOLVED, solve
from dimsolve.kdim import clause_count, kdim
from dimsolve.linear_solver import NoFixpoint, solve_linear
from dimsolve.models import inductive, linearize, satisfies_clause
from dimsolve.parser import parse
from dimsolve.polyhedra import RowCapExceeded, SolverTimeout, SplitBudgetExceeded

from conftest import random_program, tree_count_src

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
from workloads import VARIANTS, WORKLOADS, program_texts  # noqa: E402


def test_fib_bench_solved_with_inductive_model(fib_bench):
    out = solve(fib_bench, Config())
    assert out.solved
    assert out.k_reached <= 3
    # independent re-check: the returned model really is a solution
    assert inductive(out.model, fib_bench)
    assert all(satisfies_clause(out.model, c) for c in fib_bench.clauses)


def test_linear_safe_program_solved_at_k0():
    out = solve(parse("p(X) :- X = 0.\nfalse :- X >= 1, p(X)."))
    assert out.solved and out.k_reached == 0


def test_one_clause_fact_program():
    out = solve(parse("p(X) :- X = 3."))
    assert out.solved and out.k_reached == 0


def test_unsafe_program_unknown():
    out = solve(parse("false :- X=1, p(X).\np(X) :- X=1."))
    assert out.status == "unknown"
    assert out.reason == UNKNOWN_NOT_SOLVED
    assert out.k_reached == 0


def test_max_k_bound(fib_bench):
    out = solve(fib_bench, Config(max_k=0))
    assert out.status == "unknown"
    assert out.reason == UNKNOWN_MAX_K


def test_negative_max_k_rejected():
    # a negative bound admits no level, not even level 0
    with pytest.raises(ValueError, match="max_k must be nonnegative"):
        solve(parse("p(X) :- X = 0."), Config(max_k=-1))


@pytest.mark.parametrize("timeout_s", [float("nan"), -1.0])
def test_nan_or_negative_timeout_rejected(timeout_s):
    # no clock reading is ever later than NaN, so a NaN deadline never holds
    with pytest.raises(ValueError, match="timeout_s must be a nonnegative number"):
        solve(parse("p(X) :- X = 0."), Config(timeout_s=timeout_s))


def test_timeout():
    with open("benchmarks/fib.pl", encoding="utf-8") as fh:
        out = solve(parse(fh.read()), Config(timeout_s=0.0))
    assert out.status == "unknown"
    assert out.reason == SolverTimeout.reason


# Each resource cap, forced to trip: (module, attribute, value, reason).
CAPS = [
    (polyhedra, "_ROW_CAP", 0, RowCapExceeded.reason),
    (linear_solver, "step", lambda p, s: dict(s), NoFixpoint.reason),
    (polyhedra, "_SPLIT_BUDGET", 0, SplitBudgetExceeded.reason),
]


@pytest.mark.parametrize("module, attr, value, reason", CAPS)
def test_resource_caps_end_unknown(fib_bench, monkeypatch, module, attr, value, reason):
    monkeypatch.setattr(module, attr, value)
    out = solve(fib_bench, Config())
    assert out.status == "unknown"
    assert out.reason == reason
    assert out.model is None


def test_work_grows_with_k(fib):
    counts = [clause_count(fib, k) for k in range(5)]
    assert counts == sorted(counts)
    assert all(len(kdim(fib, k).clauses) == counts[k] for k in range(5))


def test_determinism(fib_bench):
    a = solve(fib_bench, Config())
    b = solve(fib_bench, Config())
    assert a.status == b.status and a.k_reached == b.k_reached
    assert a.model.render() == b.model.render()


def test_solved_models_pass_independent_recheck_random():
    rng = random.Random(77)
    solved = 0
    for _ in range(15):
        p = random_program(rng)
        out = solve(p, Config(max_k=2))
        if out.solved:
            solved += 1
            assert inductive(out.model, p)
    assert solved >= 1  # the generator produces some solvable programs


def test_stats_recorded(fib_bench):
    out = solve(fib_bench, Config())
    assert len(out.stats) == out.k_reached + 1
    assert all(e["clauses"] > 0 for e in out.stats)
    assert all(e["check_s"] >= 0 for e in out.stats)
    # every level before the last fails the check on some clause ids
    assert [bool(e["violated"]) for e in out.stats] == [True] * out.k_reached + [False]
    ids = {c.id for c in fib_bench.clauses}
    assert all(set(e["violated"]) <= ids for e in out.stats)


def test_stats_of_unsolved_level_have_no_check():
    records = []
    out = solve(parse("false :- X=1, p(X).\np(X) :- X=1."), trace=records.append)
    assert [(e["violated"], e["check_s"]) for e in out.stats] == [(None, 0.0)]
    assert records == list(out.stats)
    assert not records[-1]["solved"]
    assert records[-1]["reason"] == "false variant reachable in the abstraction"


def test_tree3_deep_ends_max_k(tree3):
    records = []
    out = solve(tree3, Config(max_k=4), trace=records.append)
    assert out.status == "unknown"
    assert out.reason == UNKNOWN_MAX_K
    assert out.k_reached == 4
    assert [e["violated"] for e in out.stats] == [[2], [2], [3], [3], [3]]
    # each level solves only its own clauses
    assert [e["clauses"] for e in out.stats] == [4, 10, 11, 12, 13]
    # each level's record reaches ``trace`` once, after its check ran
    assert records == list(out.stats)
    assert all(r["solved"] and r["check_s"] >= 0 for r in records)
    assert (records[2]["k"], records[2]["violated"]) == (2, [3])


def test_wide_tree_count_ends_max_k_in_time():
    """Rule 2b gives r(r-1)/2 clauses per level to a clause of r body atoms,
    so a 12-ary tree count runs to max-k within the deadline."""
    out = solve(parse(tree_count_src(12)), Config(max_k=4, timeout_s=5))
    assert (out.status, out.reason, out.k_reached) == ("unknown", UNKNOWN_MAX_K, 4)
    assert [e["violated"] for e in out.stats] == [[2], [2], [3], [3], [3]]
    assert [e["clauses"] for e in out.stats] == [4, 82, 83, 84, 85]
    assert len(kdim(parse(tree_count_src(16)), 2, 2).clauses) == 143


def test_every_stats_entry_reaches_trace_once(monkeypatch, fib_bench):
    # a resource limit that cuts level 1's check short still reports it
    checks = []

    def check(model, p, violations=driver.violations):
        checks.append(model)
        if len(checks) == 2:
            raise SolverTimeout
        return violations(model, p)
    monkeypatch.setattr(driver, "violations", check)
    records = []
    out = solve(fib_bench, Config(), trace=records.append)
    assert (out.reason, out.k_reached) == (SolverTimeout.reason, 1)
    assert len(out.stats) == 2
    assert [id(r) for r in records] == [id(e) for e in out.stats]
    assert records[1]["solved"] and records[1]["violated"] is None


def test_fib_eq_renamings_end_not_solved():
    # without redundancy filtering in Fourier-Motzkin, five of these eight
    # renamings ended UNKNOWN fm-row-cap at k=3
    w = WORKLOADS["fib-eq"]
    for variant in range(VARIANTS):
        for _, text in program_texts(w, 1, variant):
            out = solve(parse(text), Config(max_k=w.max_k))
            assert (out.status, out.reason) == ("unknown", UNKNOWN_NOT_SOLVED), variant


def test_level_program_solves_like_the_full_program(fib, tree3):
    """Linearized against the accumulated model, the level-k clauses alone
    give every level-k predicate the same facts as all of P^{<=k}; the
    lower levels of P^{<=k} add nothing the model does not already say."""
    rng = random.Random(17)
    compared = 0
    for p in [fib, tree3] + [random_program(rng) for _ in range(12)]:
        accumulated = solve_linear(kdim(p, 0)).model
        for k in range(1, 4):
            if accumulated is None:
                break
            level = solve_linear(linearize(kdim(p, k, k), accumulated))
            full = solve_linear(linearize(kdim(p, k), accumulated))
            assert level.solved == full.solved
            if not level.solved:
                break
            assert level.model.facts == {
                q: facts for q, facts in full.model.facts.items() if q.d == k}
            accumulated.facts.update(level.model.facts)
            compared += 1
    assert compared >= 30


@pytest.mark.parametrize("layer, k", [("violations", 0), ("linearize", 1)])
def test_timeout_in_check_and_linearize(fib_bench, monkeypatch, layer, k):
    # the clock stands still until ``layer`` starts at level ``k`` and then
    # jumps past the deadline, so only the eliminations inside that call can
    # see it; each layer runs once per level, level 0 included
    clock = [0.0]
    monkeypatch.setattr(time, "monotonic", lambda: clock[0])
    original = getattr(driver, layer)
    calls = []

    def jump(*args):
        calls.append(args)
        if len(calls) == k + 1:
            clock[0] = 100.0
        return original(*args)

    monkeypatch.setattr(driver, layer, jump)
    out = solve(fib_bench, Config(timeout_s=1.0))
    assert out.status == "unknown"
    assert out.reason == SolverTimeout.reason
    assert out.k_reached == k
    # the cut level keeps an entry: the check's level was solved, and the
    # level cut in linearize has no clauses and no linear verdict
    assert [e["k"] for e in out.stats] == list(range(k + 1))
    last = out.stats[-1]
    assert (last["solved"], last["violated"]) == (layer == "violations", None)
    if layer == "linearize":
        assert (last["clauses"], last["rounds"], last["narrowing"]) == (None, None, None)


def test_nullary_predicates_end_to_end():
    out = solve(parse("q.\np :- q.\nfalse :- X > 1, X < 0, p."))
    assert out.solved and out.k_reached == 0
    from dimsolve.models import Model
    assert Model.parse(out.model.render()) == out.model


def test_integrity_only_programs():
    # unsatisfiable query body: trivially safe
    assert solve(parse("false :- X > 1, X < 0.")).solved
    # satisfiable query body: never solvable
    assert solve(parse("false :- X > 1.")).status == "unknown"
