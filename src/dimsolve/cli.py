"""Command line interface.

``dimsolve [options] <file>`` runs the full solve loop; the subcommands
expose the building blocks:

  dimsolve kdim --k N <file>          print the dimension-bounded program
  dimsolve solve-linear <file>        the convex fixpoint engine, on any program
  dimsolve dim <tree-file>            dimension of a dumped derivation tree

Exit codes: 0 solved (or subcommand success), 2 unknown / not solved,
1 input or usage errors, including a tree too deep to recurse over.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys

from .driver import Config, SolveOutcome, solve
from .kdim import IndexedInput, kdim
from .linear_solver import solve_linear
from .parser import ParseError, parse
from .polyhedra import ResourceExhausted
from .syntax import ATMOST, EXACT, ArityError, PredRef, render_program
# ``trees`` is imported by the branches that use it: a solve never loads it

_SUBCOMMANDS = ("solve", "kdim", "solve-linear", "dim")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    top = _Parser(prog="dimsolve", description=(
        "Solve constrained Horn clauses over linear integer arithmetic. SOLVED prints a "
        "model over the rationals of the clauses as parsed, with strict comparisons "
        "tightened for the integers; every integer point is a rational point, so it is "
        "a model over the integers too. UNKNOWN can come from rational points that no "
        "integer model needs to exclude."))
    sub = top.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="solve a set of Horn clauses")
    s.add_argument("file")
    s.add_argument("--max-k", type=int, default=Config._field_defaults["max_k"])
    s.add_argument("--timeout-s", type=float, default=None)
    s.add_argument("--trace", action="store_true")
    s.add_argument("--emit-model", metavar="PATH")
    s.add_argument("--dump-trees", type=int, metavar="N",
                   help="print the first N derivation trees and exit")
    s.add_argument("--root", help="root predicate for --dump-trees")
    s.add_argument("--max-nodes", type=int,
                   help="node budget for --dump-trees (default 9)")

    k = sub.add_parser("kdim", help="print the at-most-k-dimension program")
    k.add_argument("--k", type=int, required=True)
    k.add_argument("file")

    sl = sub.add_parser("solve-linear", help="run the convex fixpoint engine once")
    sl.add_argument("file")

    d = sub.add_parser("dim", help="dimension of a dumped derivation tree")
    d.add_argument("file")
    return top


def _fail(message) -> int:
    print(f"dimsolve: {message}", file=sys.stderr)
    return 1


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise SystemExit(_fail(f"cannot read {path}: {e.strerror}"))
    except UnicodeDecodeError as e:
        raise SystemExit(_fail(f"cannot read {path}: {e}"))


def _parse_program(path: str):
    try:
        return parse(_read(path))
    except (ParseError, ArityError) as e:
        raise SystemExit(_fail(f"{path}: {e}"))


def _parse_predref(text: str) -> PredRef:
    m = re.fullmatch(r"([a-z][A-Za-z0-9_]*)(?:\((\d+)\)|\[(\d+)\])?", text)
    if not m:
        raise SystemExit(_fail(f"bad predicate reference {text!r}"))
    base, exact, atmost = m.groups()
    if exact is not None:
        return PredRef(base, EXACT, int(exact))
    if atmost is not None:
        return PredRef(base, ATMOST, int(atmost))
    return PredRef(base)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        argv = ["solve"]
    elif argv[0] not in _SUBCOMMANDS and argv[0] not in ("-h", "--help"):
        argv = ["solve", *argv]
    try:
        return _run(_build_parser().parse_args(argv))
    except SystemExit as e:
        return int(e.code or 0)


def _run(args) -> int:
    if args.command == "kdim":
        if args.k < 0:
            return _fail("--k must be nonnegative")
        program = _parse_program(args.file)
        try:
            sys.stdout.write(render_program(kdim(program, args.k)))
        except IndexedInput as e:
            return _fail(f"{args.file}: {e}")
        return 0

    if args.command == "solve-linear":
        program = _parse_program(args.file)
        try:
            verdict = solve_linear(program)
        except ResourceExhausted as e:
            print(f"UNKNOWN {e.reason}")
            return 2
        if not verdict.solved:
            print(f"NOT SOLVED {verdict.reason}")
            return 2
        sys.stdout.write(verdict.model.render())
        return 0

    if args.command == "dim":
        from .trees import dim, parse_tree
        try:
            depth = dim(parse_tree(_read(args.file)))
        except ValueError as e:
            return _fail(f"{args.file}: {e}")
        except RecursionError:
            return _fail(f"{args.file}: tree too deep")
        print(depth)
        return 0

    # default: solve
    if args.dump_trees is None and (args.root is not None or args.max_nodes is not None):
        return _fail("--root and --max-nodes apply only with --dump-trees")
    if args.dump_trees is not None and (args.emit_model is not None or args.trace
                                        or args.timeout_s is not None):
        return _fail("--emit-model, --trace and --timeout-s apply only without --dump-trees")
    if args.max_k < 0:
        return _fail("--max-k must be nonnegative")
    if args.max_nodes is not None and args.max_nodes < 1:
        return _fail("--max-nodes must be at least 1")
    if args.dump_trees is not None and args.dump_trees < 0:
        return _fail("--dump-trees must be nonnegative")
    if args.timeout_s is not None and not args.timeout_s >= 0:  # NaN fails too
        return _fail("--timeout-s must be a nonnegative number")
    program = _parse_program(args.file)
    if args.dump_trees is not None:
        from .trees import dim, enumerate_trees, height, render_tree
        root = (_parse_predref(args.root) if args.root
                else program.clauses[0].head.pred if program.clauses else None)
        if root is None:
            return _fail("empty program has no trees")
        if root not in {c.head.pred for c in program.clauses}:
            return _fail(f"no clause has head {root}")
        try:
            # a --max-nodes below 1 was refused above
            trees = enumerate_trees(program, root, args.max_nodes or 9)
            for t in itertools.islice(trees, args.dump_trees):
                sys.stdout.write(render_tree(t))
                print(f"# dim={dim(t)} height={height(t)}")
        except RecursionError:
            return _fail(f"{args.file}: tree too deep")
        return 0
    cfg = Config(max_k=args.max_k, timeout_s=args.timeout_s)
    trace = (lambda entry: print(json.dumps(entry), file=sys.stderr)) if args.trace else None
    try:
        outcome: SolveOutcome = solve(program, cfg, trace=trace)
    except IndexedInput as e:
        return _fail(f"{args.file}: {e}")
    if outcome.solved:
        rendered = outcome.model.render()
        if args.emit_model:
            try:
                with open(args.emit_model, "w", encoding="utf-8") as fh:
                    fh.write(rendered)
            except OSError as e:
                return _fail(f"cannot write {args.emit_model}: {e.strerror}")
        print("SOLVED")
        sys.stdout.write(rendered)
        return 0
    print(f"UNKNOWN {outcome.reason}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
