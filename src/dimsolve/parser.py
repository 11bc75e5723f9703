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

from dataclasses import dataclass

from .syntax import (ATMOST, EXACT, FALSE, FALSE_NAME, Atom, PredRef, Program,
                     Var, normalize_clause)
from .terms import EQ, LE, Constraint

_SYMBOLS = (":-", "=<", ">=", "(", ")", "[", "]", ",", ".", "=", "<", ">", "+", "-", "*")


class ParseError(ValueError):
    def __init__(self, msg, line, col):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT | VAR | INT | SYM | EOF
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Token("SYM", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                toks.append(Token("INT", text[i:j], line, col))
                col += j - i
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                kind = "VAR" if word[0].isupper() else "IDENT"
                if word[0] == "_":
                    raise ParseError(f"identifier may not start with '_': {word}", line, col)
                toks.append(Token(kind, word, line, col))
                col += j - i
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0

    def peek(self, ahead=0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

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

    # -- clauses ------------------------------------------------------------

    def program(self) -> list[tuple]:
        clauses = []
        while self.peek().kind != "EOF":
            clauses.append(self.clause())
        return clauses

    def clause(self) -> tuple:
        head_pred, head_args = self.atom(in_head=True)
        constraints: list[Constraint] = []
        body: list[Atom] = []
        if self.peek().text == ":-":
            self.next()
            while True:
                self.item(constraints, body)
                if self.peek().text == ",":
                    self.next()
                else:
                    break
        self.expect(".")
        return head_pred, head_args, constraints, body

    def item(self, constraints, body):
        t = self.peek()
        if t.kind == "IDENT":
            pred, args = self.atom(in_head=False)
            if pred == FALSE:
                self.error("'false' is reserved for clause heads")
            # integer arguments stay until normalize_clause replaces them
            body.append(Atom(pred, tuple(args)))
        else:
            constraints.append(self.constraint())

    # -- atoms --------------------------------------------------------------

    def atom(self, in_head: bool):
        t = self.next()
        if t.kind != "IDENT":
            raise ParseError(f"expected predicate name, found {t.text!r}", t.line, t.col)
        name = t.text
        pred = PredRef(name)
        args: list = []
        if self.peek().text == "[" and self.peek(1).kind == "INT":
            self.next()
            d = int(self.next().text)
            self.expect("]")
            pred = PredRef(name, ATMOST, d)
            args = self.paren_args(optional=name == FALSE_NAME)
        elif (self.peek().text == "(" and self.peek(1).kind == "INT"
              and self.peek(2).text == ")"
              and (self.peek(3).text == "(" or name == FALSE_NAME)):
            self.next()
            d = int(self.next().text)
            self.expect(")")
            pred = PredRef(name, EXACT, d)
            args = self.paren_args(optional=name == FALSE_NAME)
        elif self.peek().text == "(":
            args = self.paren_args(optional=False)
        if pred.base == FALSE_NAME and args:
            self.error("'false' takes no arguments")
        return pred, args

    def paren_args(self, optional: bool) -> list:
        if self.peek().text != "(":
            if optional:
                return []
            self.error("expected argument list")
        self.next()
        args: list = []
        if self.peek().text != ")":
            while True:
                t = self.next()
                if t.kind == "VAR":
                    args.append(Var(t.text))
                elif t.kind == "INT":
                    args.append(int(t.text))
                else:
                    raise ParseError(
                        f"atom arguments must be variables or integers, found {t.text!r}",
                        t.line, t.col)
                if self.peek().text == ",":
                    self.next()
                else:
                    break
        self.expect(")")
        return args

    # -- constraints ----------------------------------------------------------

    def constraint(self) -> Constraint:
        lc, lk = self.linexpr()
        t = self.next()
        if t.text not in ("=", "=<", "<", ">=", ">"):
            raise ParseError(f"expected relation, found {t.text!r}", t.line, t.col)
        rc, rk = self.linexpr()
        diff = dict(lc)
        for v, c in rc.items():
            diff[v] = diff.get(v, 0) - c
        const = lk - rk
        if t.text == "=":
            return Constraint.make(diff, const, EQ)
        if t.text == "=<":
            return Constraint.make(diff, const, LE)
        if t.text == "<":
            return Constraint.make(diff, const + 1, LE)
        diff = {v: -c for v, c in diff.items()}
        const = -const
        if t.text == ">=":
            return Constraint.make(diff, const, LE)
        return Constraint.make(diff, const + 1, LE)  # ">"

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
                raise ParseError("non-linear arithmetic term: variable products are "
                                 "not supported", t.line, t.col)
            return {t.text: sign}, 0
        raise ParseError(f"expected term, found {t.text!r}", t.line, t.col)


def parse(text: str) -> Program:
    """Parse and normalize a program."""
    raw = _Parser(text).program()
    clauses = []
    for i, (head_pred, head_args, constraints, body) in enumerate(raw):
        used = {a.name for a in head_args if isinstance(a, Var)}
        for b in body:
            used.update(a.name for a in b.args if isinstance(a, Var))
        for c in constraints:
            used.update(c.vars())
        clauses.append(normalize_clause(i + 1, head_pred, head_args, constraints,
                                        body, used))
    return Program.from_clauses(clauses)


def parse_model_facts(text: str) -> list[tuple[Atom, list[Constraint]]]:
    """Parse the model listing format: ``pred(Vars) :- [c1,...].`` per line."""
    p = _Parser(text)
    facts = []
    while p.peek().kind != "EOF":
        pred, args = p.atom(in_head=True)
        if not all(isinstance(a, Var) for a in args):
            p.error("model facts must use variable parameters")
        constraints: list[Constraint] = []
        if p.peek().text == ":-":
            p.next()
            p.expect("[")
            if p.peek().text != "]":
                while True:
                    constraints.append(p.constraint())
                    if p.peek().text == ",":
                        p.next()
                    else:
                        break
            p.expect("]")
        p.expect(".")
        facts.append((Atom(pred, tuple(args)), constraints))
    return facts
