"""Stability: classical validity of a formula's elementarization.

The elementarization of a formula forgets everything interactive about it:
surface choice conjunctions and choice-all quantifiers become T, surface
choice disjunctions and choice-ex quantifiers become F, and surface general
literals become F (a positive one is unresolved, a negated one is the
negation of something at least as strong as T).  What remains is a classical
formula over elementary literals, and a formula is stable when that remnant
is classically valid.  An elementary formula is its own elementarization, so
is_stable of an elementary formula is its classical validity.

Validity is decided on the structure of the formula, with no truth
assignments.  The check flattens a disjunction into its literals, T, F and
conjunctive disjuncts.  A disjunction of literals alone is valid exactly
when it holds T or a complementary pair p, ~p (with equal letter and
arguments): otherwise the assignment that makes every literal false refutes
it, and F never helps.  A conjunctive disjunct is split by distributivity:
D \\/ (c1 /\\ ... /\\ ck) is valid exactly when every D \\/ ci is.  Each split
removes one conjunction, so the check ends, and at the end only literals
remain, where the test above is exact.

Stability is read off the formula itself, with no elementarized copy: the
check counts a surface choice conjunction or choice-all quantifier as T and
skips a choice disjunction, a choice-ex quantifier and a general literal as
it skips F.  The reference elementarization is `oracle_elementarize` in
tests/conftest.py, and the tests hold the check to a truth table of it.
"""

from __future__ import annotations

from .formula import (
    Atom, ChoAll, ChoAnd, Formula, GENERAL, ParAnd, ParOr, Top, Variable,
)


def atom_key(a: Atom) -> tuple:
    """Propositional identity of an elementary atom: letter name plus the
    literal argument tuple.  Distinct terms give distinct keys."""
    return (a.letter.name,) + tuple(
        (t.name if isinstance(t, Variable) else t.value) for t in a.args)


def _valid(pending: list, lits: set, keep=frozenset()) -> bool:
    """Classical validity of the disjunction of the elementarizations of the
    formulas in `pending` and the (atom_key, negated) literals in `lits`,
    where general atoms whose letter name is in keep count as literals.
    Neither argument is modified."""
    pending = list(pending)
    lits = set(lits)
    rest = []
    conj = None
    while pending:
        f = pending.pop()
        if isinstance(f, ParOr):
            pending.extend(f.operands)
        elif isinstance(f, Atom):
            if f.letter.sort == GENERAL and f.letter.name not in keep:
                continue
            key = atom_key(f)
            if (key, not f.negated) in lits:
                return True
            lits.add((key, f.negated))
        elif isinstance(f, (Top, ChoAnd, ChoAll)):
            return True
        elif isinstance(f, ParAnd):
            if conj is None:
                conj = f
            else:
                rest.append(f)
    if conj is None:
        return False
    # D \/ (c1 /\ ... /\ ck) is valid exactly when every D \/ ci is.
    return all(_valid(rest + [c], lits, keep) for c in conj.operands)


def is_stable(f: Formula) -> bool:
    return _valid([f], set())


def is_stable_matched(f: Formula, letters) -> bool:
    """Stability of a choiceless f after matching, for each general letter
    name in letters, its one positive with its one negative occurrence.

    A match gives the pair a fresh elementary letter of its own, so the
    matched atoms are complementary exactly when their arguments agree.
    Keeping the general atoms themselves as literals decides the same
    thing: their upper-case names never meet an elementary atom_key.
    """
    return _valid([f], set(), letters)
