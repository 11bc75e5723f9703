"""dimsolve benchmark: time to verdict on fixed workloads, closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 0 --seconds 40 --trace 0

One client sends one solve at a time to a single worker process
(``worker.py``) and sends the next only when the previous one has ended.
The worker is killed when a program overruns its workload's limit; that
program counts as failed, as does one that raised or whose worker died, and
a fresh worker takes the next one.  With
``--trace 0`` every solve is untraced and the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced solves alternate and the
per-layer metrics are reported, with ``trace.overhead_s`` the difference of
their medians.  Times of whole solves and of set-up are scaled to a reference
host speed by probes taken alongside them (``speed.py``).

Every outcome is checked: verdict, reason, level reached and the sha256 of
the rendered model must match ``expected.json``, and every SOLVED model must
pass the engine-independent check of ``check.py``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record of the generated program texts and
every outcome is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 10  # fresh interpreters before and again after the loop
READY_LIMIT_S = 60.0

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
from workloads import VARIANTS, WORKLOADS, program_texts  # noqa: E402

SPEED_PROBES = 8  # host speed probes after each set-up probe

_PROBE = """\
import json, sys, time
texts = json.load(sys.stdin)
began = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dimsolve
for text in texts:
    dimsolve.parse(text)
seconds = time.perf_counter() - began
sys.path.insert(0, sys.argv[2])
import speed
print(json.dumps([seconds, [speed.probe() for _ in range(int(sys.argv[3]))]]))
"""


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def measure_setup(texts: list[str], probes: int) -> list[float]:
    """Seconds to import dimsolve and parse the inputs, per fresh interpreter,
    scaled to the reference host speed."""
    times = []
    for _ in range(probes):
        done = subprocess.run([sys.executable, "-c", _PROBE, str(SRC), str(HERE),
                               str(SPEED_PROBES)],
                              input=json.dumps(texts), capture_output=True,
                              text=True, timeout=60, check=True)
        seconds, speeds = json.loads(done.stdout)
        times.append(speed.scale(seconds, speeds))
    return times


class WorkerExited(Exception):
    pass


class Worker:
    """The solving process; ``peak_rss_mb`` is set once it has ended."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(SRC)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.peak_rss_mb = 0.0
        if self._read(READY_LIMIT_S) is None:
            self.stop(kill=True)
            raise RuntimeError("benchmark worker did not start")

    def _read(self, limit_s: float) -> dict | None:
        ready, _, _ = select.select([self.proc.stdout], [], [], limit_s)
        if not ready:
            return None
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerExited
        return json.loads(line)

    def request(self, job: dict, limit_s: float) -> dict | None:
        """The worker's reply, or None when it overran ``limit_s``."""
        try:
            self.proc.stdin.write((json.dumps(job) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise WorkerExited from None
        return self._read(limit_s)

    def stop(self, kill: bool = False):
        if self.proc.returncode is not None:
            return
        if kill:
            self.proc.kill()
        else:
            self.proc.stdin.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024
        for f in (self.proc.stdin, self.proc.stdout):
            f.close()


def median_or_none(values):
    return statistics.median(values) if values else None


def percentile_note(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    note = f"median of {len(values)}"
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            idx = min(len(values) - 1, int(len(values) * q / 100))
            return f"{note}, p{q} {values[idx]:.4f}"
    return note


class Run:
    def __init__(self, workload, seed: int, seconds: float, traced: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        # the generated texts, one list per pass variant; seed 0 has one
        self.variants = [program_texts(workload, seed, v)
                         for v in range(VARIANTS if seed else 1)]
        self.solves: list[dict] = []  # one per pass over the workload's programs
        self.peak_rss_mb = 0.0
        self.exit_status: int | None = None
        self.worker: Worker | None = None

    def _solve_program(self, text: str, traced: bool) -> dict:
        if self.worker is None:
            self.worker = Worker()
        job = {"text": text, "max_k": self.workload.max_k, "trace": traced}
        began = time.perf_counter()
        try:
            reply = self.worker.request(job, self.workload.limit_s)
        except WorkerExited:  # died without a reply, say by a signal
            self._end_worker()
            return {"seconds": time.perf_counter() - began, "error": "WorkerExited",
                    "message": f"exit status {self.exit_status}"}
        if reply is None:
            self._end_worker(kill=True)
            return {"seconds": time.perf_counter() - began, "error": "Timeout",
                    "message": f"killed after {self.workload.limit_s} s"}
        return reply

    def _end_worker(self, kill: bool = False):
        if self.worker is not None:
            self.worker.stop(kill=kill)
            self.peak_rss_mb = max(self.peak_rss_mb, self.worker.peak_rss_mb)
            self.exit_status = self.worker.proc.returncode
            self.worker = None

    def scale(self):
        """Give each pass ``scaled_s``: its seconds at the reference host speed,
        by the probes taken during it, or during the run if it has none (a
        program that was killed takes its probes with it)."""
        everything = [p for s in self.solves for r in s["programs"]
                      for p in r.get("probes", ())]
        if not everything:
            everything = [speed.probe() for _ in range(SPEED_PROBES)]
        for solve in self.solves:
            probes = [p for r in solve["programs"] for p in r.get("probes", ())]
            probes = probes or everything
            solve["probe_s"] = statistics.fmean(probes)
            solve["scaled_s"] = speed.scale(solve["seconds"], probes)

    def measure(self):
        """Closed loop until ``seconds`` have passed.  In a traced run each
        variant runs untraced and then traced, and each kind runs once at least."""
        deadline = time.monotonic() + self.seconds
        try:
            while True:
                n = len(self.solves)
                traced = self.traced and n % 2 == 1
                texts = self.variants[(n // 2 if self.traced else n) % len(self.variants)]
                results = [dict(self._solve_program(text, traced), program=name,
                                text_sha=sha(text))
                           for name, text in texts]
                self.solves.append({"traced": traced, "programs": results,
                                    "seconds": sum(r["seconds"] for r in results)})
                enough = not self.traced or len(self.solves) >= 2
                if enough and time.monotonic() >= deadline:
                    break
            if self.traced and self.worker is not None:
                OUT.mkdir(exist_ok=True)
                spans = OUT / f"{self.workload.name}-seed{self.seed}.spans.json"
                self.worker.request({"spans": str(spans)}, READY_LIMIT_S)
        except BaseException:
            self._end_worker(kill=True)
            raise
        self._end_worker()


def check(run: Run, expected: dict) -> list[str]:
    """Problems with the outputs; marks rejected SOLVED results as failed."""
    from check import check_model

    problems = []
    texts = {sha(t): t for variant in run.variants for _, t in variant}
    model_verdicts: dict[tuple, str | None] = {}
    first: dict[str, dict] = {}
    for solve in run.solves:
        for r in solve["programs"]:
            name = r["program"]
            if "error" in r:
                continue  # a failure, counted as such; there is no output to check
            got = {"status": r["status"], "reason": r["reason"], "k": r["k"],
                   "model_sha": r["model_sha"]}
            entries = expected.get(run.workload.name, {}).get(name, {})
            want = entries.get(r["text_sha"], entries.get("*"))
            if want is None:
                want = first.setdefault(r["text_sha"], got)  # repeats must agree
            if got != want:
                problems.append(f"{name}: outcome {got} drifted from {want}")
            if got["status"] == "SOLVED":
                key = (r["text_sha"], r["model_sha"])
                if key not in model_verdicts:
                    model_verdicts[key] = check_model(texts[r["text_sha"]], r["model"])
                if model_verdicts[key] is not None:
                    r["error"] = "ModelRejected"
                    r["message"] = model_verdicts[key]
                    problems.append(f"{name}: model rejected: {model_verdicts[key]}")
    return problems


def layer_metrics(run: Run) -> dict[str, float]:
    """Medians over traced passes of the per-layer figures of each pass."""
    per_pass = []
    for solve in run.solves:
        if not solve["traced"] or any("layers" not in r for r in solve["programs"]):
            continue
        m: dict[str, float] = {}
        for r in solve["programs"]:
            for key, value in r["layers"].items():
                m[key] = m.get(key, 0) + value
        m["inductive.useful_ratio"] = (
            1 - m.get("inductive.subsumed_facts", 0) / m["inductive.facts"]
            if m.get("inductive.facts") else 1.0)
        m["fixpoint.solved_ratio"] = m.get("fixpoint.solved", 0) / m["fixpoint.calls"]
        m["polyhedra.sat.memo_ratio"] = (
            m.get("polyhedra.sat.memo", 0) / m["polyhedra.sat.calls"])
        per_pass.append(m)
    keys = sorted({k for m in per_pass for k in m})
    return {k: statistics.median(m.get(k, 0) for m in per_pass) for k in keys}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dimsolve" / "__init__.py").is_file():
        print(f"run.py: no dimsolve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(HERE / "expected.json") as f:
        expected = json.load(f)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {workload.name}, seed {args.seed}: {workload.why}")
    for i, (name, _) in enumerate(run.variants[0]):
        shas = ", ".join(sha(v[i][1])[:12] for v in run.variants)
        print(f"  program {name}: text sha256 {shas}")
    # the first probe only writes the bytecode cache; probes on both sides of
    # the loop sample more of the host's speed drift
    setup_texts = [text for _, text in run.variants[0]]
    setup = measure_setup(setup_texts, SETUP_PROBES + 1)[1:]
    run.measure()
    run.scale()
    setup += measure_setup(setup_texts, SETUP_PROBES)
    problems = check(run, expected)

    results = [r for s in run.solves for r in s["programs"]]
    failed = [r for r in results if "error" in r]
    for r in failed:
        print(f"  failed {r['program']}: {r['error']}: {r['message']}")
    for problem in problems:
        print(f"  CHECK FAILED {problem}")
    outcomes: dict[tuple, int] = {}
    for r in results:
        r.pop("probes", None)  # summarised per pass; too many to keep
        if "error" not in r:
            key = (r["program"], r["status"], r["reason"] or "-", r["k"], r["model_sha"][:16])
            outcomes[key] = outcomes.get(key, 0) + 1
    for (name, status, reason, k, model), n in outcomes.items():
        print(f"  outcome {name}: {status} {reason} k={k} model sha256 {model} ({n}x)")
    solved = sum(1 for r in results if r.get("status") == "SOLVED" and "error" not in r)

    plain = [s["scaled_s"] for s in run.solves if not s["traced"]]
    traced = [s["scaled_s"] for s in run.solves if s["traced"]]
    wall = median_or_none([s["seconds"] for s in run.solves if not s["traced"]])
    probe_ms = 1000 * statistics.fmean(s["probe_s"] for s in run.solves)
    report = {
        "solve_s": (median_or_none(plain),
                    f"{percentile_note(plain)} untraced passes, scaled; "
                    f"wall median {wall:.4f} s, probe mean {probe_ms:.4f} ms"
                    if plain else ""),
        "setup_s": (statistics.median(setup),
                    f"median of {len(setup)} fresh interpreters, scaled"),
        "peak_rss_mb": (run.peak_rss_mb, "peak of the solving processes"),
        "solved_share": (solved / len(results), f"{solved} of {len(results)} solves"),
        "failed_share": (len(failed) / len(results), f"{len(failed)} of {len(results)} solves"),
    }
    if args.trace:
        layers = layer_metrics(run)
        layers["trace.overhead_s"] = median_or_none(traced) - median_or_none(plain)
        if layers.get("driver.s"):
            shares = {name: layers.get(f"{name}.s", 0) / layers["driver.s"]
                      for name in ("inductive", "fixpoint", "linearize", "kdim")}
            largest = max(shares, key=shares.get)
            print(f"  largest layer: {largest} ({shares[largest]:.0%} of the traced "
                  "solve); " + ", ".join(f"{k} {v:.0%}" for k, v in shares.items()))
        names = [m["name"] for m in bench["per_layer"]]
        metrics = {n: layers.get(n, 0.0) for n in names}
    else:
        names = [m["name"] for m in bench["end_to_end"]]
        metrics = {n: report[n][0] for n in names}
    for name, (value, note) in report.items():
        unit = units.get(name, "share")
        if value is not None:
            print(f"{name:<13} {value:.4f} {unit:<6} {note}")
    if args.trace:
        for name in names:
            print(f"{name:<36} {metrics[name]:.6g} {units[name]}")

    OUT.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "texts": [{"variant": i, "program": n, "sha256": sha(t), "text": t}
                        for i, variant in enumerate(run.variants) for n, t in variant],
              "solves": [dict(s, programs=[{k: v for k, v in r.items() if k != "model"}
                                           for r in s["programs"]])
                         for s in run.solves],
              "problems": problems, "setup_s": setup}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
