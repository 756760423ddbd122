import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    deep_formula, random_formula, ref_surface_general_atoms, same_formula,
)
from clprover.formula import (
    Atom, BOT, ChoAll, ChoAnd, ChoEx, ChoOr, Constant, ELEMENTARY, FormulaError,
    GENERAL, LetterId, ParAnd, ParOr, ParseError, PathError, SubstitutionError,
    TOP, Variable, children, facts, free_variables, bound_variables,
    has_general, letter_table, parse_formula, render_formula, replace_at,
    subformulas, substitute_var, validate_formula,
)
from clprover.prover import _SurfaceIndex


def P(i):
    return Atom(LetterId(GENERAL, "P", 1), (Constant(i),))


def test_parse_top():
    assert parse_formula("T") is TOP
    assert parse_formula("F") is BOT


def test_parse_disjunction_of_literals():
    f = parse_formula("(p(0) \\/ ~p(0))")
    p = LetterId(ELEMENTARY, "p", 1)
    assert f == ParOr((Atom(p, (Constant(0),)),
                       Atom(p, (Constant(0),), negated=True)))


def test_parse_nested_choice_example():
    # quantifier bodies extend as far right as possible
    f = parse_formula("cex x: (P(0) cand P(1)) \\/ cex y: (~P(y) /\\ p)")
    inner = ChoEx("y", ParAnd((
        Atom(LetterId(GENERAL, "P", 1), (Variable("y"),), negated=True),
        Atom(LetterId(ELEMENTARY, "p", 0)))))
    assert f == ChoEx("x", ParOr((ChoAnd((P(0), P(1))), inner)))


def test_parse_unicode_aliases():
    assert parse_formula("p ∨ q") == parse_formula("p \\/ q")
    assert parse_formula("p ∧ q") == parse_formula("p /\\ q")
    assert parse_formula("p ⊓ q") == parse_formula("p cand q")
    assert parse_formula("p ⊔ q") == parse_formula("p cor q")
    assert parse_formula("¬p ∨ ⊤ ∨ ⊥") == parse_formula("~p \\/ T \\/ F")
    assert parse_formula("⊓x: p(x)") == parse_formula("call x: p(x)")


def test_parse_flattens_operator_chains():
    f = parse_formula("p \\/ q \\/ r(0) \\/ s(1, x)")
    assert isinstance(f, ParOr) and len(f.operands) == 4


def test_parse_precedence_conjunction_binds_tighter():
    assert parse_formula("p \\/ q /\\ r(0)") == parse_formula("p \\/ (q /\\ r(0))")


def test_render_examples():
    assert render_formula(TOP) == "T"
    assert render_formula(Atom(LetterId(ELEMENTARY, "p", 1),
                               (Variable("x"),), negated=True)) == "~p(x)"
    assert render_formula(ChoAll("y", Atom(LetterId(ELEMENTARY, "p", 1),
                                           (Variable("y"),)))) == "call y: p(y)"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_parse_render_round_trip(seed):
    f = random_formula(random.Random(seed), budget=7)
    assert parse_formula(render_formula(f)) == f


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_parse_render_round_trip_deep(seed):
    # several hundred levels: the parser keeps its frames on a list, not on
    # the Python stack, and same_formula compares without recursion
    rng = random.Random(seed)
    f = deep_formula(rng, rng.randint(200, 600))
    g = parse_formula(render_formula(f))
    assert same_formula(g, f)
    assert not same_formula(g, deep_formula(rng, 3))


def test_parse_deep_parentheses():
    p = Atom(LetterId(ELEMENTARY, "p", 0))
    assert parse_formula("(" * 100_000 + "p" + ")" * 100_000) == p
    with pytest.raises(ParseError, match="expected rpar, found 'end of input' "
                                         "at position 200000"):
        parse_formula("(" * 100_000 + "p" + ")" * 99_999)


# every parse error, with its exact message and position
_PARSE_ERRORS = {
    # chains mix choice and parallel connectives of one level
    "p cor q \\/ r":
        "cannot mix '\\\\/' into this chain without parentheses at position 8",
    "p cand q /\\ r":
        "cannot mix '/\\\\' into this chain without parentheses at position 9",
    "p \\/ q cor r":
        "cannot mix 'cor' into this chain without parentheses at position 7",
    "p /\\ q cand r":
        "cannot mix 'cand' into this chain without parentheses at position 7",
    # a missing operand, variable, colon or closing parenthesis
    "p \\/": "expected a formula, found 'end of input' at position 4",
    "": "expected a formula, found 'end of input' at position 0",
    "call x p(x)": "expected colon, found 'p' at position 7",
    "call : p": "expected var, found ':' at position 5",
    "cex T: p": "expected var, found 'T' at position 4",
    "(p \\/ q": "expected rpar, found 'end of input' at position 7",
    "p()": "expected a term, found ')' at position 2",
    "p(x,)": "expected a term, found ')' at position 4",
    # negation is for atoms only
    "~T": "negation applies only to atoms at position 1",
    "~(p \\/ q)": "negation applies only to atoms at position 1",
    "~ call x: p": "negation applies only to atoms at position 2",
    "¬⊥": "negation applies only to atoms at position 1",
    # bad characters, constants and atoms
    "p $ q": "unexpected character '$' at position 2",
    "p(01)": "leading zero in constant at position 2",
    "p(x, 007)": "leading zero in constant at position 5",
    "x \\/ p": "variable 'x' cannot be used as an atom at position 0",
    # trailing input at top level, inside parentheses, inside a quantifier
    "p q": "expected eof, found 'q' at position 2",
    "(p \\/ q) r": "expected eof, found 'r' at position 9",
    "(p q)": "expected rpar, found 'q' at position 3",
    "call x: p(x) q": "expected eof, found 'q' at position 13",
    "(call x: p(x) q)": "expected rpar, found 'q' at position 14",
    "cex x: (p)(": "expected eof, found '(' at position 10",
    # ⊓ before "x:" opens a quantifier; elsewhere it is the operator
    "⊓x:": "expected a formula, found 'end of input' at position 3",
    "p ⊓ x: q": "variable 'x' cannot be used as an atom at position 4",
}


@pytest.mark.parametrize("text", list(_PARSE_ERRORS))
def test_parse_rejects(text):
    with pytest.raises(ParseError) as info:
        parse_formula(text)
    assert type(info.value) is ParseError
    assert str(info.value) == _PARSE_ERRORS[text]


@pytest.mark.parametrize("text", [
    "p(0) /\\ p(0, 1)",                   # one letter, two arities
    "p(x) /\\ call x: q(x)",              # x free and bound
    "(call x: p(x)) \\/ (call x: q(x))",  # two binders share a name
])
def test_parse_rejects_invariant_violations(text):
    with pytest.raises(FormulaError):
        parse_formula(text)


def test_surface_occurrences_examples():
    p = Atom(LetterId(ELEMENTARY, "p", 0))
    q = Atom(LetterId(ELEMENTARY, "q", 0))
    r = Atom(LetterId(ELEMENTARY, "r", 0))
    f = ParOr((ChoAnd((p, q)), r))
    assert _SurfaceIndex(f).choices == [((0,), ChoAnd((p, q)))]
    g = ChoEx("x", f)
    assert _SurfaceIndex(g).choices == [((), g)]  # the cand under it is not surface

    P = LetterId(GENERAL, "P", 1)
    h = ParOr((Atom(P, (Constant(0),)), Atom(P, (Constant(1),), negated=True)))
    assert _SurfaceIndex(h).letters == [(P, [(0,)], [(1,)])]
    negs = [(path, a) for path, a in ref_surface_general_atoms(h) if a.negated]
    assert negs == [((1,), h.operands[1])]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_surface_paths_stay_out_of_choice_scopes(seed):
    f = random_formula(random.Random(seed), budget=7)
    index = _SurfaceIndex(f)
    paths = [path for path, _ in index.choices]
    for _, pos, neg in index.letters:
        paths += pos + neg
    for path in paths:
        node = f
        for i in path:
            assert isinstance(node, (ParAnd, ParOr))
            node = children(node)[i]
        assert isinstance(node, (ChoAnd, ChoOr, ChoAll, ChoEx)) \
            or node.letter.sort == GENERAL


def test_substitute_examples():
    f = parse_formula("p(x) \\/ q")
    assert substitute_var(f, "x", Constant(1)) == parse_formula("p(1) \\/ q")
    g = parse_formula("p(x) /\\ call y: q(y)")
    assert substitute_var(g, "x", Constant(0)) == parse_formula("p(0) /\\ call y: q(y)")
    h = parse_formula("p(x)")
    assert substitute_var(h, "x", Variable("y")) == parse_formula("p(y)")


def test_substitute_rejects_bound_targets():
    f = parse_formula("call x: p(x)")
    with pytest.raises(SubstitutionError):
        substitute_var(f, "x", Constant(0))
    g = parse_formula("p(x) /\\ call y: q(y)")
    with pytest.raises(SubstitutionError):
        substitute_var(g, "x", Variable("y"))


@pytest.mark.parametrize("text, var, term, message", [
    ("call x: p(x)", "x", Constant(0), "variable x is bound in the formula"),
    ("p(x) /\\ call y: q(y)", "x", Variable("y"),
     "term variable y is bound in the formula"),
    # both are bound: var is reported, wherever the walk meets its binder
    ("call x: (p(x) /\\ call y: q(y))", "x", Variable("y"),
     "variable x is bound in the formula"),
    ("(call y: q(y)) /\\ call x: p(x)", "x", Variable("y"),
     "variable x is bound in the formula"),
    ("call y: (q(y) \\/ cex x: p(x))", "x", Variable("y"),
     "variable x is bound in the formula"),
])
def test_substitute_reports_the_bound_variable_first(text, var, term, message):
    with pytest.raises(SubstitutionError) as err:
        substitute_var(parse_formula(text), var, term)
    assert str(err.value) == message


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_substitute_keeps_the_skeleton(seed):
    rng = random.Random(seed)
    f = random_formula(rng, budget=6)
    fv = sorted(free_variables(f))
    if not fv:
        return
    g = substitute_var(f, rng.choice(fv), Constant(7))

    def skel(n):
        return (type(n).__name__, tuple(skel(k) for k in children(n)))

    assert skel(f) == skel(g)


def test_substitute_shares_untouched_subtrees():
    f = parse_formula("p(x) \\/ (q /\\ call y: r(y)) \\/ cex z: s(z, x)")
    g = substitute_var(f, "x", Constant(0))
    assert g == parse_formula("p(0) \\/ (q /\\ call y: r(y)) \\/ cex z: s(z, 0)")
    assert g.operands[1] is f.operands[1]
    assert g.operands[2] is not f.operands[2]
    assert substitute_var(f, "w", Constant(0)) is f


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_substitute_shares_every_subtree_without_the_variable(seed):
    rng = random.Random(seed)
    f = random_formula(rng, budget=8)
    fv = sorted(free_variables(f))
    if not fv:
        return
    var = rng.choice(fv)
    g = substitute_var(f, var, Constant(7))
    stack = [(f, g)]
    while stack:
        a, b = stack.pop()
        assert (b is a) == (var not in free_variables(a))
        stack.extend(zip(children(a), children(b)))


def test_path_resolution_and_replacement():
    f = parse_formula("(p \\/ q) /\\ cex x: r(x)")
    at = dict(subformulas(f))
    assert at[()] == f
    assert at[(0, 1)] == parse_formula("q")
    assert at[(1, 0)] == parse_formula("r(x)")
    g = replace_at(f, (0,), TOP)
    assert g == parse_formula("T /\\ cex x: r(x)")
    with pytest.raises(PathError):
        replace_at(f, (2,), TOP)
    with pytest.raises(PathError):
        replace_at(f, (0, 0, 0), TOP)


def test_subformulas_preorder():
    f = parse_formula("p \\/ (q /\\ r)")
    paths = [path for path, _ in subformulas(f)]
    assert paths == [(), (0,), (1,), (1, 0), (1, 1)]


def test_letter_table_and_elementary_flag():
    f = parse_formula("p(0) /\\ (P cor q(x, y))")
    assert letter_table(f) == {(ELEMENTARY, "p"): 1, (GENERAL, "P"): 0,
                               (ELEMENTARY, "q"): 2}
    assert facts(f).choices and has_general(f)
    g = parse_formula("p(0) /\\ ~q")
    assert not facts(g).choices and not has_general(g)


def test_validate_catches_hand_built_breakage():
    with pytest.raises(FormulaError):
        validate_formula(ParOr((TOP,)))  # arity of the connective itself
    bad = ChoAll("x", Atom(LetterId(ELEMENTARY, "p", 1), (Variable("x"),)))
    validate_formula(bad)  # fine as built
    with pytest.raises(FormulaError):
        validate_formula(ParAnd((bad, Atom(LetterId(ELEMENTARY, "p", 1),
                                           (Variable("x"),)))))


def test_free_and_bound_variables():
    f = parse_formula("p(x) \\/ cex y: s(y, z)")
    assert free_variables(f) == {"x", "z"}
    assert bound_variables(f) == {"y"}
