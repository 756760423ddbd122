import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    oracle_elementarize, oracle_stable, random_formula, tt_atom_keys, tt_valid,
)
from clprover.elementary import (
    NotElementaryError, elementarize, evaluate, is_stable, is_valid_classical,
)
from clprover.formula import (
    Atom, BOT, Constant, ELEMENTARY, LetterId, ParAnd, ParOr, TOP,
    is_elementary, letter_names, parse_formula,
)


def test_elementarize_leaves_elementary_input_alone():
    f = parse_formula("p \\/ ~p")
    assert elementarize(f) == f


def test_elementarize_gadget_shape():
    f = parse_formula("(G(0) cand G(1)) \\/ cex x: (~G(x) /\\ p)")
    assert elementarize(f) == parse_formula("T \\/ F")


def test_elementarize_general_atoms_both_polarities():
    # a negated general occurrence collapses to F as a whole; the AST never
    # carries negation on T/F
    f = parse_formula("P(0) \\/ ~P(1)")
    assert elementarize(f) == ParOr((BOT, BOT))


def test_elementarize_stops_at_choice_boundaries():
    f = parse_formula("p /\\ (q cor cex x: r(x))")
    assert elementarize(f) == parse_formula("p /\\ F")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_elementarize_idempotent_and_choiceless(seed):
    f = random_formula(random.Random(seed), budget=7)
    e = elementarize(f)
    assert is_elementary(e)
    assert elementarize(e) == e


def test_is_valid_examples():
    assert is_valid_classical(parse_formula("p \\/ ~p"))
    assert not is_valid_classical(parse_formula("p(x) \\/ ~p(0)"))
    assert is_valid_classical(parse_formula("T \\/ F"))


def test_is_valid_rejects_non_elementary():
    with pytest.raises(NotElementaryError):
        is_valid_classical(parse_formula("p cand q"))
    with pytest.raises(NotElementaryError):
        is_valid_classical(parse_formula("P \\/ ~P"))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_is_valid_matches_truth_tables(seed):
    # budget 24 nests conjunctions inside disjunctions often enough to
    # exercise the distributive split
    for budget in (7, 24):
        f = elementarize(random_formula(random.Random(seed), budget=budget))
        assert is_valid_classical(f) == tt_valid(f)


def test_evaluate_uses_keys():
    f = parse_formula("p(x) /\\ ~p(0)")
    assert evaluate(f, {("p", "x"): True, ("p", 0): False})
    assert not evaluate(f, {("p", "x"): True, ("p", 0): True})


def test_is_stable_examples():
    assert is_stable(parse_formula("p \\/ ~p"))
    assert not is_stable(parse_formula("P \\/ ~P"))
    assert is_stable(parse_formula("(G(0) cand G(1)) \\/ cex x: (~G(x) /\\ p)"))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_is_stable_matches_the_oracle(seed):
    # budget 16 puts choice nodes and general atoms inside conjunctions that
    # the check splits; the cap keeps the truth table of the oracle small
    f = random_formula(random.Random(seed), budget=7)
    assert is_stable(f) == oracle_stable(f)
    g = random_formula(random.Random(seed), budget=16)
    if len(tt_atom_keys(oracle_elementarize(g))) <= 12:
        assert is_stable(g) == oracle_stable(g)


def _stable_formulas(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = random_formula(rng, budget=rng.randint(2, 7))
        if is_stable(f):
            out.append(f)
    return out


def test_prefixing_a_fresh_dilemma_preserves_stability():
    # for stable pi and fresh q: q(c) \/ (~q(c) /\ pi) stays stable
    for pi, c in itertools.product(_stable_formulas(60, seed=5), (0, 1)):
        q = LetterId(ELEMENTARY, "h", 1)
        assert q.name not in letter_names(pi)
        wrapped = ParOr((Atom(q, (Constant(c),)),
                         ParAnd((Atom(q, (Constant(c),), negated=True), pi))))
        assert is_stable(wrapped)


def test_constants_do_not_fool_validity():
    assert is_valid_classical(parse_formula("T"))
    assert not is_valid_classical(parse_formula("F"))
    assert is_valid_classical(parse_formula("p /\\ q \\/ ~p \\/ ~q"))
