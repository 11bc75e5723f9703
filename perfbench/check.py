"""Independent check of a SOLVED model by bounded ground derivation.

Uses only the parsed clauses and plain integer arithmetic, never the
polyhedra engine: every ground fact derivable with all values inside the box
``[LO, HI]`` must satisfy the model, and no ``false`` clause may fire inside
the box.  A model that passes is not proven correct, but a wrong model that
misses a small fact, or a program that is unsafe on small values, fails.
"""

from __future__ import annotations

LO, HI = -3, 20


def _value(terms, const, point) -> int:
    return const + sum(k * point[v] for v, k in terms)


def _holds(c, point) -> bool:
    val = _value(c.terms, c.const, point)
    return val == 0 if c.rel == "=" else val <= 0 if c.rel == "=<" else val < 0


def _complete(binding: dict, constraints, variables):
    """Every extension of ``binding`` to ``variables`` inside the box that
    satisfies ``constraints``; equalities with one unknown are solved."""
    binding = dict(binding)
    while True:
        progress = False
        for c in constraints:
            unbound = [(v, k) for v, k in c.terms if v not in binding]
            if not unbound:
                if not _holds(c, binding):
                    return
            elif c.rel == "=" and len(unbound) == 1:
                v, k = unbound[0]
                rest = _value([t for t in c.terms if t[0] != v], c.const, binding)
                if rest % k or not LO <= -rest // k <= HI:
                    return
                binding[v] = -rest // k
                progress = True
        if not progress:
            break
    free = [v for v in variables if v not in binding]
    if not free:
        yield binding
        return
    for x in range(LO, HI + 1):
        yield from _complete({**binding, free[0]: x}, constraints, variables)


def _derivations(clause, facts):
    def walk(i, binding):
        if i == len(clause.body):
            yield from _complete(binding, clause.constraint, clause.vars())
            return
        atom = clause.body[i]
        for values in list(facts.get(atom.pred.base, ())):
            b = dict(binding)
            if all(b.setdefault(v.name, x) == x for v, x in zip(atom.args, values)):
                yield from walk(i + 1, b)

    yield from walk(0, {})


def _in_model(model, pred: str, values) -> bool:
    for atom, constraints in model:
        if atom.pred.base == pred:
            point = {v.name: x for v, x in zip(atom.args, values)}
            if all(_holds(c, point) for c in constraints):
                return True
    return False


def check_model(program_text: str, model_text: str) -> str | None:
    """None when the model passes; otherwise the first problem found."""
    from dimsolve.parser import parse, parse_model_facts

    clauses = parse(program_text).clauses
    model = parse_model_facts(model_text)
    facts: dict[str, set] = {}
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            for binding in _derivations(clause, facts):
                if clause.is_integrity:
                    return f"false clause {clause.id} fires at {binding}"
                values = tuple(binding[v.name] for v in clause.head.args)
                known = facts.setdefault(clause.head.pred.base, set())
                if values not in known:
                    known.add(values)
                    changed = True
    for pred, known in facts.items():
        for values in sorted(known):
            if not _in_model(model, pred, values):
                return f"derivable fact {pred}{values} is outside the model"
    return None
