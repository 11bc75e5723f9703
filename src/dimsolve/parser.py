"""Concrete CLP syntax: tokenizer plus recursive-descent parser.

Grammar (``%`` starts a line comment)::

    program := clause* ; clause := head (":-" bodyitems)? "." ;
    head := atom | "false" ; bodyitems := item ("," item)* ;
    item := constraint | atom ; atom := ident ("(" arg ("," arg)* ")")? ;
    arg := VAR | INT ; constraint := linexpr REL linexpr ;
    REL := "=" | "=<" | "<" | ">=" | ">" ;
    linexpr := ("-")? term (("+"|"-") term)* ;
    term := INT | INT "*" VAR | VAR

Dimension-indexed predicates are read back as ``name(d)(args)`` or
``name[d](args)``; the nullary reserved head ``false`` also accepts the
argument-free forms ``false(d)`` / ``false[d]``.  Any other nullary indexed
predicate is printed and re-read as ``name(d)()``.

Strict inequalities are tightened for the integer value domain while parsing:
``e1 < e2`` becomes ``e1 =< e2 - 1``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .syntax import (ATMOST, EXACT, FALSE, FALSE_NAME, Atom, PredRef, Program,
                     Var, normalize_clause)
from .terms import EQ, LE, Constraint

# Symbols longest first, so that ``:-``, ``=<`` and ``>=`` are never split;
# every character is matched by some group, ``bad`` the last.
_TOKEN = re.compile(r"""
    (?P<skip>[ \t\r]+|%[^\n]*)
  | (?P<newline>\n)
  | (?P<SYM>:-|=<|>=|[()\[\],.=<>+\-*])
  | (?P<INT>[0-9]+)
  | (?P<VAR>[A-Z][A-Za-z0-9_]*)
  | (?P<IDENT>[a-z][A-Za-z0-9_]*)
  | (?P<underscore>_[A-Za-z0-9_]*)
  | (?P<bad>.)
""", re.VERBOSE)
_LOOKAHEAD = 3  # the furthest ``_Parser.peek`` looks past the current token


class ParseError(ValueError):
    def __init__(self, msg, line, col):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # IDENT | VAR | INT | SYM | EOF
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text`` in one ``_TOKEN.finditer`` pass, ending in EOF."""
    toks = []
    line, line_start = 1, 0
    new = tuple.__new__  # builds each ``Token`` without ``NamedTuple.__new__``
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        if kind == "newline":
            line, line_start = line + 1, m.end()
            continue
        word, col = m.group(), m.start() - line_start + 1
        if kind == "underscore":
            raise ParseError(f"identifier may not start with '_': {word}", line, col)
        if kind == "bad":
            raise ParseError(f"unexpected character {word!r}", line, col)
        toks.append(new(Token, (kind, word, line, col)))
    toks.append(Token("EOF", "", line, len(text) - line_start + 1))
    return toks


class _Parser:
    def __init__(self, text: str):
        toks = tokenize(text)
        self.toks = toks + toks[-1:] * _LOOKAHEAD  # ``peek`` past the end reads EOF
        self.pos = 0

    def peek(self, ahead=0) -> Token:
        return self.toks[self.pos + ahead]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text or t.kind != "SYM":
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def error(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def items(self, item, close=None) -> list:
        """``item ("," item)*``, or nothing when the next token is ``close``."""
        if self.peek().text == close:
            return []
        out = [item()]
        while self.peek().text == ",":
            self.next()
            out.append(item())
        return out

    # -- clauses ------------------------------------------------------------

    def program(self) -> list[tuple]:
        clauses = []
        while self.peek().kind != "EOF":
            clauses.append(self.clause())
        return clauses

    def clause(self) -> tuple:
        head_pred, head_args = self.atom()
        items = []
        if self.peek().text == ":-":
            self.next()
            items = self.items(self.item)
        self.expect(".")
        return (head_pred, head_args, [x for x in items if isinstance(x, Constraint)],
                [x for x in items if isinstance(x, Atom)])

    def item(self) -> Atom | Constraint:
        if self.peek().kind != "IDENT":
            return self.constraint()
        pred, args = self.atom()
        if pred == FALSE:
            self.error("'false' is reserved for clause heads")
        # integer arguments stay until normalize_clause replaces them
        return Atom(pred, tuple(args))

    # -- atoms --------------------------------------------------------------

    def atom(self):
        t = self.next()
        if t.kind != "IDENT":
            raise ParseError(f"expected predicate name, found {t.text!r}", t.line, t.col)
        name = t.text
        pred = PredRef(name)
        if self.peek().text == "[" and self.peek(1).kind == "INT":
            pred = PredRef(name, ATMOST, self.index("]"))
        elif (self.peek().text == "(" and self.peek(1).kind == "INT"
              and self.peek(2).text == ")"
              and (self.peek(3).text == "(" or name == FALSE_NAME)):
            pred = PredRef(name, EXACT, self.index(")"))
        args: list = []
        if self.peek().text == "(":
            self.next()
            args = self.items(self.arg, ")")
            self.expect(")")
        elif pred.indexed and name != FALSE_NAME:
            self.error("expected argument list")
        if name == FALSE_NAME and args:
            self.error("'false' takes no arguments")
        return pred, args

    def index(self, close: str) -> int:
        self.next()
        d = int(self.next().text)
        self.expect(close)
        return d

    def arg(self) -> Var | int:
        t = self.next()
        if t.kind == "VAR":
            return Var(t.text)
        if t.kind == "INT":
            return int(t.text)
        raise ParseError(f"atom arguments must be variables or integers, found {t.text!r}",
                         t.line, t.col)

    # -- constraints ----------------------------------------------------------

    def constraint(self) -> Constraint:
        lc, lk = self.linexpr()
        t = self.next()
        if t.text not in ("=", "=<", "<", ">=", ">"):
            raise ParseError(f"expected relation, found {t.text!r}", t.line, t.col)
        rc, rk = self.linexpr()
        if t.text in (">=", ">"):  # e1 >= e2 is e2 =< e1
            lc, lk, rc, rk = rc, rk, lc, lk
        diff = dict(lc)
        for v, c in rc.items():
            diff[v] = diff.get(v, 0) - c
        # e1 < e2 is e1 =< e2 - 1 over the integers
        const = lk - rk + (t.text in ("<", ">"))
        return Constraint.make(diff, const, EQ if t.text == "=" else LE)

    def linexpr(self) -> tuple[dict[str, int], int]:
        coeffs: dict[str, int] = {}
        const = 0
        sign = 1
        if self.peek().text == "-":
            self.next()
            sign = -1
        while True:
            c, k = self.term(sign)
            for v, x in c.items():
                coeffs[v] = coeffs.get(v, 0) + x
            const += k
            if self.peek().text in ("+", "-"):
                sign = 1 if self.next().text == "+" else -1
            else:
                return coeffs, const

    def term(self, sign: int) -> tuple[dict[str, int], int]:
        t = self.next()
        if t.kind == "INT":
            val = sign * int(t.text)
            if self.peek().text == "*":
                self.next()
                v = self.next()
                if v.kind != "VAR":
                    raise ParseError("non-linear arithmetic term: coefficient must "
                                     "multiply a variable", v.line, v.col)
                return {v.text: val}, 0
            return {}, val
        if t.kind == "VAR":
            if self.peek().text == "*":
                k = self.peek(1)
                if k.kind == "INT":
                    raise ParseError(f"coefficient after the variable: write "
                                     f"{k.text}*{t.text}", t.line, t.col)
                raise ParseError("non-linear arithmetic term: variable products are "
                                 "not supported", t.line, t.col)
            return {t.text: sign}, 0
        raise ParseError(f"expected term, found {t.text!r}", t.line, t.col)


def parse(text: str) -> Program:
    """Parse and normalize a program."""
    return Program.from_clauses(normalize_clause(*raw) for raw in _Parser(text).program())


def parse_model_facts(text: str) -> list[tuple[Atom, list[Constraint]]]:
    """Parse the model listing format: ``pred(Vars) :- [c1,...].`` per line."""
    p = _Parser(text)
    facts = []
    while p.peek().kind != "EOF":
        pred, args = p.atom()
        if not all(isinstance(a, Var) for a in args):
            p.error("model facts must use variable parameters")
        constraints: list[Constraint] = []
        if p.peek().text == ":-":
            p.next()
            p.expect("[")
            constraints = p.items(p.constraint, "]")
            p.expect("]")
        p.expect(".")
        facts.append((Atom(pred, tuple(args)), constraints))
    return facts
