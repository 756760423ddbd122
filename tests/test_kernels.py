"""The path kernels against plain recursive references.

substitute_var, the premises of wait_premises, the match of apply_move and
the render memo of the proof JSON walks each rebuild or render only what a
rule changes.  Here each is held to a reference in tests/conftest.py that
rebuilds or renders the whole formula, with the same errors and, wherever
nothing changed, the very subtree given.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from clprover.formula import (
    Atom, ChoAll, ChoAnd, Constant, FormulaError, Variable, children,
    render_formula, substitute_var,
)
from clprover.prover import apply_move, fresh_wait_variable, wait_premises

from conftest import (
    golden_proofs, random_formula, ref_free_variables, ref_match_moves,
    ref_replace_at, ref_substitute, ref_surface, ref_wait_premises,
)


def _outcome(fn, *args):
    """The result of fn, or the type and text of the FormulaError it raised."""
    try:
        return fn(*args)
    except FormulaError as e:
        return (type(e), str(e))


def _nodes(root):
    stack, out = [root], []
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.premises)
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_substitute_var_matches_the_reference(seed):
    rng = random.Random(seed)
    f = random_formula(rng, budget=rng.randint(1, 12))
    # free variables, binders (both errors) and a name that does not occur
    names = ("x", "y", "u0", "u1", "w")
    var = rng.choice(names)
    term = Variable(rng.choice(names)) if rng.random() < 0.5 \
        else Constant(rng.randint(0, 3))
    got = _outcome(substitute_var, f, var, term)
    assert got == _outcome(ref_substitute, f, var, term)
    if isinstance(got, tuple):
        return
    # every subtree where var is not free comes back as the very object
    stack = [(f, got)]
    while stack:
        a, b = stack.pop()
        assert (b is a) == (var not in ref_free_variables(a))
        stack.extend(zip(children(a), children(b)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_wait_premises_match_the_reference(seed):
    rng = random.Random(seed)
    f = random_formula(rng, budget=rng.randint(1, 14), closed=rng.random() < 0.3)
    # the path each premise rebuilds, and what it puts there: the first of
    # equal cand operands, or the call body on the wait variable
    spots = []
    for path, node in ref_surface(f, (ChoAnd, ChoAll)):
        if isinstance(node, ChoAnd):
            firsts = {}
            for op in node.operands:
                firsts.setdefault(render_formula(op), op)
            spots.extend((path, op) for op in firsts.values())
        else:
            w = Variable(fresh_wait_variable(f))
            spots.append((path, ref_substitute(node.body, node.var, w)))
    got = wait_premises(f)
    assert got == ref_wait_premises(f)
    assert len(got) == len(spots)
    for g, (path, sub) in zip(got, spots):
        # only the nodes on the path are new
        a, b = f, g
        for i in path:
            ka, kb = children(a), children(b)
            assert b is not a and len(ka) == len(kb)
            assert all(x is y for j, (x, y) in enumerate(zip(ka, kb)) if j != i)
            a, b = ka[i], kb[i]
        assert b is sub if isinstance(a, ChoAnd) else b == sub


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_match_equals_two_reference_replacements(seed):
    rng = random.Random(seed)
    f = random_formula(rng, budget=rng.randint(2, 14))
    at = dict(ref_surface(f, Atom))
    for m in ref_match_moves(f):
        pos, neg = at[m.pos_path], at[m.neg_path]
        want = ref_replace_at(f, m.pos_path, Atom(m.fresh, pos.args))
        want = ref_replace_at(want, m.neg_path, Atom(m.fresh, neg.args, negated=True))
        g = apply_move(f, m)
        assert g == want
        assert render_formula(g) == render_formula(want)
        # one rebuilt spine: every subtree off both paths is shared
        stack = [((), f, g)]
        while stack:
            path, a, b = stack.pop()
            on_a_path = m.pos_path[:len(path)] == path or m.neg_path[:len(path)] == path
            assert (b is a) != on_a_path
            if on_a_path and len(path) < max(len(m.pos_path), len(m.neg_path)):
                stack.extend((path + (i,), x, y)
                             for i, (x, y) in enumerate(zip(children(a), children(b))))


def test_render_memo_matches_a_plain_render_on_the_golden_proofs():
    texts: dict = {}
    for _, _, proof in golden_proofs():
        for node in _nodes(proof):
            assert render_formula(node.conclusion, texts) == \
                render_formula(node.conclusion)
    assert texts  # the compound nodes were memoized


def test_render_memo_holds_its_nodes():
    # each formula is dropped once rendered, and CPython hands its address
    # to the next nodes built: a memo keyed by id alone would give a new
    # node an old node's text
    rng = random.Random(28)
    texts: dict = {}
    for _ in range(10_000):
        f = random_formula(rng, budget=rng.randint(2, 5))
        assert render_formula(f, texts) == render_formula(f)
