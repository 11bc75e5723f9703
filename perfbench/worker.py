"""Solving process of the benchmark: one solve at a time, on request.

Started by ``run.py`` as ``python3 worker.py <src dir>``.  It reads one JSON
job per line on stdin (``text``, ``max_k``, ``trace``), parses and solves it
through the public ``dimsolve`` calls, and answers with one JSON line that
includes the host speed probes taken during the solve (``speed.py``).  The
parent enforces the time limit by killing this process, so nothing here
watches the clock beyond timing the solve.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

from speed import Sampler


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    import dimsolve
    from tracing import Tracer

    if hasattr(os, "sched_setaffinity"):  # the probe thread must share our CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sampler = Sampler()
    out = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr  # keep the reply channel free of stray prints
    tracer = Tracer()

    def reply(msg: dict):
        out.write(json.dumps(msg) + "\n")
        out.flush()

    reply({"ready": True})
    for line in sys.stdin:
        job = json.loads(line)
        if job.get("spans"):
            with open(job["spans"], "w") as f:
                json.dump({"names": tracer.names, "spans": tracer.spans()}, f)
            reply({"written": job["spans"]})
            continue
        cfg = dimsolve.Config(max_k=job["max_k"])
        traced = job["trace"]
        if traced:
            tracer.reset()
            tracer.install()
        error = None
        began = time.perf_counter()
        try:
            if traced:
                program = tracer.span("parser", dimsolve.parse, job["text"])
                outcome = tracer.span("driver", dimsolve.solve, program, cfg)
            else:
                outcome = dimsolve.solve(dimsolve.parse(job["text"]), cfg)
        except Exception as e:  # a failed solve is a result, not a crash
            error = e
        ended = time.perf_counter()
        seconds, probes = ended - began, sampler.between(began, ended)
        tracer.uninstall()
        if error is not None:
            reply({"seconds": seconds, "probes": probes, "error": type(error).__name__,
                   "message": str(error)[:200]})
            continue
        model = outcome.model.render() if outcome.model is not None else ""
        msg = {"seconds": seconds, "probes": probes, "status": outcome.status.upper(),
               "reason": outcome.reason, "k": outcome.k_reached, "model": model,
               "model_sha": hashlib.sha256(model.encode()).hexdigest()}
        if traced:
            layers = tracer.summary()
            layers["parser.parse_s"] = layers.pop("parser.s")
            layers["parser.clauses"] = len(program.clauses)
            layers["driver.levels"] = len(outcome.stats)
            msg["layers"] = layers
        reply(msg)
    sampler.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
