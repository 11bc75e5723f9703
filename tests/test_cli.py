import errno
import json
import os
import shlex
import shutil
import subprocess
import sys

import pytest

from dimsolve import trees
from dimsolve.cli import main
from dimsolve.driver import solve
from dimsolve.parser import parse

from conftest import GRAZE_SRC, false_feasible_without_narrowing

ROOT = os.path.join(os.path.dirname(__file__), "..")
BENCH = os.path.join(ROOT, "benchmarks")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_exit_zero_and_model(capsys):
    code, out, _ = run_cli([os.path.join(BENCH, "fib.pl")], capsys)
    assert code == 0
    assert out.startswith("SOLVED")
    assert "fib(A, B)" in out


def test_max_k_zero_unknown(capsys):
    code, out, _ = run_cli(["--max-k", "0", os.path.join(BENCH, "fib.pl")], capsys)
    assert code == 2
    assert "UNKNOWN max-k" in out


# Each resource cap, forced to trip: (module, attribute, value, reason).
CAPS = [
    ("dimsolve.polyhedra", "_ROW_CAP", 0, "fm-row-cap"),
    ("dimsolve.linear_solver", "step", lambda p, s: dict(s), "no-fixpoint"),
    ("dimsolve.polyhedra", "_SPLIT_BUDGET", 0, "split-budget"),
]


@pytest.mark.parametrize("module, attr, value, reason", CAPS)
def test_resource_cap_unknown_exit_two(capsys, monkeypatch, module, attr, value, reason):
    monkeypatch.setattr(f"{module}.{attr}", value)
    code, out, err = run_cli([os.path.join(BENCH, "fib.pl")], capsys)
    assert code == 2
    assert out == f"UNKNOWN {reason}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("module, attr, value, reason", CAPS)
def test_solve_linear_cap_unknown_exit_two(tmp_path, capsys, monkeypatch,
                                           module, attr, value, reason):
    f = tmp_path / "count.pl"
    f.write_text("p(X) :- X = 0.\np(Y) :- p(X), Y = X + 1.\nfalse :- p(X), X < 0.\n")
    monkeypatch.setattr(f"{module}.{attr}", value)
    code, out, err = run_cli(["solve-linear", str(f)], capsys)
    assert code == 2
    assert out == f"UNKNOWN {reason}\n"
    assert "Traceback" not in err


def test_missing_file_exit_one(capsys):
    code, _, err = run_cli(["definitely-missing.pl"], capsys)
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize("command", [[], ["dim"]], ids=["solve", "dim"])
def test_non_utf8_file_exit_one(tmp_path, capsys, command):
    f = tmp_path / "latin1.pl"
    f.write_bytes(b"p(X) :- X = 0. % caf\xe9\n")
    code, out, err = run_cli([*command, str(f)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"dimsolve: cannot read {f}: 'utf-8' codec can't decode byte 0xe9")
    assert "Traceback" not in err


def test_parse_error_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.pl"
    bad.write_text("p(X :- X = 1.\n")
    code, _, err = run_cli([str(bad)], capsys)
    assert code == 1


def test_non_ascii_digit_exit_one(tmp_path, capsys):
    f = tmp_path / "square.pl"
    f.write_text("p(X) :- X = \u00b2.\n", encoding="utf-8")
    code, out, err = run_cli([str(f)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"dimsolve: {f}: 1:13: unexpected character '\u00b2'\n"


CHAIN_SRC = "p(X) :- X = 0.\np(X) :- p(Y), X = Y + 1.\n"


def test_deep_tree_dump_exit_one(tmp_path, capsys):
    f = tmp_path / "chain.pl"
    f.write_text(CHAIN_SRC)
    code, out, err = run_cli(["--dump-trees", "1", "--max-nodes", "250", str(f)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"dimsolve: {f}: tree too deep\n"


def test_deep_dim_dump_exit_one(tmp_path, capsys):
    f = tmp_path / "chain-tree.txt"
    f.write_text("".join("  " * depth + "c2\n" for depth in range(1199)) + "  " * 1199 + "c1\n")
    code, out, err = run_cli(["dim", str(f)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"dimsolve: {f}: tree too deep\n"


@pytest.mark.parametrize("indent", ["\t", "  \t"], ids=["tab", "spaces-tab"])
def test_tab_indented_dim_dump_exit_one(tmp_path, capsys, indent):
    # a tab is not two spaces: the child is rejected, not read as a second
    # root or as a child one level down
    f = tmp_path / "tab-tree.txt"
    f.write_text(f"c2\n{indent}c1\n")
    code, out, err = run_cli(["dim", str(f)], capsys)
    assert (code, out) == (1, "")
    assert err == f"dimsolve: {f}: line 2: indentation must use two spaces per level\n"


def test_usage_error_exit_one(capsys):
    code, _, _ = run_cli(["--max-k", "notanumber", "x.pl"], capsys)
    assert code == 1


WIDEN_DELAY_REJECTED = ("usage: dimsolve [-h] {solve,kdim,solve-linear,dim} ...\n"
                        "dimsolve: error: unrecognized arguments: --widen-delay=1\n")
SOLVE_ONLY_REJECTED = ("dimsolve: --emit-model, --trace and --timeout-s apply only "
                       "without --dump-trees\n")


@pytest.mark.parametrize("args, message", [
    (["--max-k", "-3"], "dimsolve: --max-k must be nonnegative\n"),
    (["--dump-trees", "3", "--max-nodes", "0"], "dimsolve: --max-nodes must be at least 1\n"),
    # widening has no delay to set: every growth after a predicate's first is widened
    (["--widen-delay=1"], WIDEN_DELAY_REJECTED),
    (["solve-linear", "--widen-delay=1"], WIDEN_DELAY_REJECTED),
    (["--dump-trees", "-2"], "dimsolve: --dump-trees must be nonnegative\n"),
    (["--timeout-s", "-1"], "dimsolve: --timeout-s must be a nonnegative number\n"),
    (["--timeout-s", "nan"], "dimsolve: --timeout-s must be a nonnegative number\n"),
    (["--dump-trees", "2", "--root", "nosuch"], "dimsolve: no clause has head nosuch\n"),
    (["kdim", "--k", "-1"], "dimsolve: --k must be nonnegative\n"),
    # without --dump-trees no tree is dumped, so neither option is read
    (["--max-nodes", "0"], "dimsolve: --root and --max-nodes apply only with --dump-trees\n"),
    (["--root", "Bad"], "dimsolve: --root and --max-nodes apply only with --dump-trees\n"),
    # a dump runs no solve, so no model is written, no level traced, no clock read
    (["--dump-trees", "1", "--emit-model", "model.pl"], SOLVE_ONLY_REJECTED),
    (["--dump-trees", "1", "--trace"], SOLVE_ONLY_REJECTED),
    (["--dump-trees", "1", "--timeout-s", "0"], SOLVE_ONLY_REJECTED),
], ids=["max-k", "max-nodes", "widen-delay", "solve-linear-widen-delay", "dump-trees",
        "timeout-s-negative", "timeout-s-nan", "dump-trees-root", "kdim-k",
        "max-nodes-without-dump-trees", "root-without-dump-trees",
        "emit-model-with-dump-trees", "trace-with-dump-trees", "timeout-s-with-dump-trees"])
def test_bad_bound_exit_one(tmp_path, capsys, args, message):
    # inductive at level 0, so an unchecked --max-k would print SOLVED
    f = tmp_path / "zero.pl"
    f.write_text("p(X) :- X = 0.\nfalse :- p(X), X > 1.\n")
    assert run_cli([str(f)], capsys)[0] == 0
    code, out, err = run_cli([*args, str(f)], capsys)
    assert code == 1
    assert out == ""
    assert err == message


def test_kdim_bound_checked_before_reading(tmp_path, capsys):
    code, out, err = run_cli(["kdim", "--k", "-1", str(tmp_path / "missing.pl")], capsys)
    assert (code, out, err) == (1, "", "dimsolve: --k must be nonnegative\n")


def test_indexed_input_exit_one(tmp_path, capsys):
    f = tmp_path / "indexed.pl"
    f.write_text("p(0)(X) :- X = 1.\n")
    for args in ([], ["kdim", "--k", "1"]):
        code, out, err = run_cli([*args, str(f)], capsys)
        assert code == 1
        assert out == ""
        assert err == f"dimsolve: {f}: input program already contains indexed predicates\n"


def test_emit_model_unwritable_exit_one(tmp_path, capsys):
    target = tmp_path / "missing" / "model.txt"
    code, out, err = run_cli(["--emit-model", str(target),
                              os.path.join(BENCH, "fib.pl")], capsys)
    assert code == 1
    assert out == ""
    assert err == f"dimsolve: cannot write {target}: {os.strerror(errno.ENOENT)}\n"


def test_kdim_subcommand(capsys):
    code, out, _ = run_cli(["kdim", "--k", "0", os.path.join(BENCH, "fib.pl")], capsys)
    assert code == 0
    assert "fib(0)(A, B)" in out and "fib[0](A, B)" in out


def test_solve_linear_subcommand(tmp_path, capsys):
    f = tmp_path / "lin.pl"
    f.write_text("p(X) :- X=0.\np(Y) :- Y=X+1, p(X).\n")
    code, out, _ = run_cli(["solve-linear", str(f)], capsys)
    assert code == 0
    assert "p(A) :- [A>=0]." in out

    f2 = tmp_path / "bad.pl"
    f2.write_text("false :- X>0, p(X).\np(X) :- X=1.\n")
    code, out, _ = run_cli(["solve-linear", str(f2)], capsys)
    assert code == 2
    assert out == "NOT SOLVED false variant reachable in the abstraction\n"


def test_solve_linear_on_nonlinear_program(tmp_path, capsys):
    f = tmp_path / "nl.pl"
    f.write_text("p(X) :- q(X), q(X).\nq(X) :- X=0.\n")
    code, out, _ = run_cli(["solve-linear", str(f)], capsys)
    assert code == 0
    assert out == "p(A) :- [A=0].\nq(A) :- [A=0].\n"


def test_solve_linear_recovers_by_narrowing(tmp_path, capsys):
    assert false_feasible_without_narrowing(parse(GRAZE_SRC))
    f = tmp_path / "graze.pl"
    f.write_text(GRAZE_SRC)
    code, _, _ = run_cli(["solve-linear", str(f)], capsys)
    assert code == 0
    code, _, err = run_cli(["solve-linear", "--narrow", "0", str(f)], capsys)
    assert code == 1 and "unrecognized arguments" in err


def test_dump_trees_and_dim_subcommand(tmp_path, capsys):
    code, out, _ = run_cli(["--dump-trees", "3", "--root", "fib",
                            "--max-nodes", "7", os.path.join(BENCH, "fib.pl")], capsys)
    assert code == 0
    dump = "\n".join(line for line in out.splitlines() if not line.startswith("#"))
    trees = [t for t in dump.split("c1\n") if t]
    f = tmp_path / "tree.txt"
    f.write_text("c2\n  c1\n  c2\n    c1\n    c1\n")
    code, out, _ = run_cli(["dim", str(f)], capsys)
    assert code == 0
    assert out.strip() == "1"


def test_dump_of_zero_trees_builds_none(capsys, monkeypatch):
    # no tree is asked for, so none is built or tested
    tested = []
    tree_constraint = trees.tree_constraint

    def counted(p, t):
        tested.append(t)
        return tree_constraint(p, t)
    monkeypatch.setattr(trees, "tree_constraint", counted)
    code, out, _ = run_cli(["--dump-trees", "0", "--max-nodes", "25",
                            os.path.join(BENCH, "fib.pl")], capsys)
    assert (code, out, tested) == (0, "", [])


def test_emit_model(tmp_path, capsys):
    target = tmp_path / "model.txt"
    code, out, _ = run_cli(["--emit-model", str(target),
                            os.path.join(BENCH, "fib.pl")], capsys)
    assert code == 0
    from dimsolve.models import Model
    m = Model.parse(target.read_text())
    assert m.facts


def test_trace_flag(capsys):
    # one JSON object per level on stderr, each that level's stats entry
    fib = os.path.join(BENCH, "fib.pl")
    code, _, err = run_cli(["--trace", fib], capsys)
    assert code == 0
    records = [json.loads(line) for line in err.splitlines()]
    with open(fib, encoding="utf-8") as fh:
        stats = solve(parse(fh.read())).stats
    assert records and [r["k"] for r in records] == list(range(len(stats)))
    assert [r.keys() for r in records] == [e.keys() for e in stats]
    untimed = {"seconds": 0, "check_s": 0}
    assert [{**r, **untimed} for r in records] == [{**e, **untimed} for e in stats]


def test_trace_reports_a_level_cut_in_linearize(capsys):
    # the deadline has passed before level 0's linearization returns
    code, out, err = run_cli(["--trace", "--timeout-s", "0",
                              os.path.join(BENCH, "fib.pl")], capsys)
    assert (code, out) == (2, "UNKNOWN timeout\n")
    records = [json.loads(line) for line in err.splitlines()]
    assert [(r["k"], r["clauses"], r["solved"]) for r in records] == [(0, None, False)]


def test_installed_entry_point():
    # Run the ``dimsolve`` console script declared in pyproject.toml the way
    # the generated wrapper does (``sys.exit(main())`` with the file as
    # ``sys.argv[1]``), so a plain checkout checks it too; an installed
    # script found on PATH is checked as well.
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["dimsolve"]
    module, func = entry.split(":")
    wrapper = (f"import sys; from {module} import {func}; "
               f"sys.exit({func}())")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    commands = [([sys.executable, "-c", wrapper], env)]
    installed = shutil.which("dimsolve")
    if installed:
        commands.append(([installed], None))
    fib = os.path.join(BENCH, "fib.pl")
    for command, command_env in commands:
        proc = subprocess.run([*command, fib],
                              capture_output=True, text=True, env=command_env)
        assert proc.returncode == 0
        assert proc.stdout.startswith("SOLVED")
        # A non-zero verdict shows that main's return value is the exit code.
        proc = subprocess.run([*command, "--max-k", "0", fib],
                              capture_output=True, text=True, env=command_env)
        assert proc.returncode == 2
        assert proc.stdout.startswith("UNKNOWN max-k")


def test_python_dash_m():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "dimsolve", os.path.join(BENCH, "fib.pl")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("SOLVED")


def _readme_examples():
    """``(command, listing)`` for each ``$ dimsolve ...`` line in the fenced
    blocks of README.md, the listing being the lines after it up to the next
    ``$`` line or the end of the block."""
    examples = []
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = fh.read().split("```")[1::2]
    for block in blocks:
        for chunk in ("\n" + block).split("\n$ ")[1:]:
            command, _, listing = chunk.partition("\n")
            if command.startswith("dimsolve "):
                examples.append((command, listing))
    return examples


def test_readme_listings(capsys, monkeypatch):
    # run from the repository root, as the listings' relative paths assume
    monkeypatch.chdir(ROOT)
    examples = _readme_examples()
    assert examples
    for command, listing in examples:
        code, out, _ = run_cli(shlex.split(command)[1:], capsys)
        assert code in (0, 2), command
        assert out == listing, command


def test_output_stable_across_processes():
    outs = []
    for seed in ("0", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-m", "dimsolve.cli", "kdim", "--k", "2",
             os.path.join(BENCH, "fib.pl")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
