"""Reduction of prenex 3-CNF sentences into the choice fragment.

Each existential quantifier becomes a choice-ex quantifier.  Each universal
quantifier over y becomes the gadget

    (G(0) cand G(1)) \\/ cex y: (~G(y) /\\ rest)

with a fresh unary letter G: the prover can only survive the gadget by
waiting on the choice conjunction and then committing the quantifier to the
same bit, which is exactly a universal move.  Each matrix literal becomes a
two-atom disjunction over its own fresh unary letter, true under matching
exactly when the literal's variable got the right bit: x turns into
(G(x) \\/ ~G(1)) and ~x into (G(x) \\/ ~G(0)).

The cl4 image uses general letters throughout.  The cl3 image is the same
formula with elementary letters, which lands in the match-free logic.
"""

from __future__ import annotations

from .formula import (
    Atom, ChoAnd, ChoEx, Constant, Formula, LetterId, ParAnd, ParOr, TOP,
    Variable, GENERAL, ELEMENTARY,
)
from .qbf import EXISTS, Lit, Qbf, validate_qbf


def _literal_form(lit: Lit, letter: LetterId) -> Formula:
    bad = Constant(1 if lit.positive else 0)
    return ParOr((Atom(letter, (Variable(lit.var),)),
                  Atom(letter, (bad,), negated=True)))


def _reduce(q: Qbf, sort: str) -> Formula:
    validate_qbf(q)
    lhead = "L" if sort == GENERAL else "l"
    ghead = "P" if sort == GENERAL else "p"

    clauses = []
    counter = 0
    for clause in q.matrix:
        forms = []
        for lit in clause:
            counter += 1
            forms.append(_literal_form(lit, LetterId(sort, f"{lhead}{counter}", 1)))
        clauses.append(ParOr(tuple(forms)))
    if not clauses:
        body: Formula = TOP
    elif len(clauses) == 1:
        body = clauses[0]
    else:
        body = ParAnd(tuple(clauses))

    forall_count = len(q.prefix) // 2
    for i in range(len(q.prefix) - 1, -1, -1):
        quant, var = q.prefix[i]
        if quant is EXISTS:
            body = ChoEx(var, body)
        else:
            g = LetterId(sort, f"{ghead}{forall_count}", 1)
            forall_count -= 1
            body = ParOr((
                ChoAnd((Atom(g, (Constant(0),)), Atom(g, (Constant(1),)))),
                ChoEx(var, ParAnd((Atom(g, (Variable(var),), negated=True), body))),
            ))
    return body


def reduce_to_cl4(q: Qbf) -> Formula:
    return _reduce(q, GENERAL)


def reduce_to_cl3(q: Qbf) -> Formula:
    return _reduce(q, ELEMENTARY)
