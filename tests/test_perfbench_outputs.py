"""Output preservation: the benchmark's programs, solved in-process, give the
outcomes recorded in ``perfbench/expected.json``.

Covers the ``suite`` and ``tree3-deep`` workloads at seed 0 (the texts as
written) and the eight renamings of each of seeds 1, 2 and 3, and ``fib-eq``
at seed 0, the hull- and widen-heavy program that ends ``UNKNOWN not-solved``
at k=5.  It compares the status, the reason, the level reached and the
sha256 of the rendered model of every solve.  A change that alters any of
them must say so and update the record.
"""

import hashlib
import json
import os
import sys

import pytest

from dimsolve import Config, parse, solve

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
sys.path.insert(0, PERFBENCH)

from workloads import VARIANTS, WORKLOADS, program_texts  # noqa: E402

with open(os.path.join(PERFBENCH, "expected.json")) as f:
    EXPECTED = json.load(f)

RUNS = [(name, 0, 0) for name in ("suite", "tree3-deep", "fib-eq")] + [
    (name, seed, v) for name in ("suite", "tree3-deep")
    for seed in (1, 2, 3) for v in range(VARIANTS)]


@pytest.mark.parametrize("workload, seed, variant", RUNS)
def test_outcomes_match_expected(workload, seed, variant):
    w = WORKLOADS[workload]
    for name, text in program_texts(w, seed, variant):
        entries = EXPECTED[workload][name]
        want = entries.get(hashlib.sha256(text.encode()).hexdigest(), entries.get("*"))
        assert want is not None, f"no recorded outcome for {name}"
        out = solve(parse(text), Config(max_k=w.max_k))
        model = out.model.render() if out.model is not None else ""
        got = {"status": out.status.upper(), "reason": out.reason, "k": out.k_reached,
               "model_sha": hashlib.sha256(model.encode()).hexdigest()}
        assert got == want, name
