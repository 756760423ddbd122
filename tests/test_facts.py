"""The cached whole-formula summaries and the surface index against the
walks they replaced.

Every query that reads Facts or a _SurfaceIndex must answer exactly what its
reference walk in conftest.py answers, on random formulas and on the states
the search and the substitution derive from them.  Facts that a rule hands
to its result must equal a fresh walk of the result, and the endgame's
matches must be those of one reference match at a time.
"""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    random_formula, ref_bound_variables, ref_constants, ref_first_match_move,
    ref_forced_batch, ref_free_variables, ref_has_choice, ref_has_general,
    ref_letter_table, ref_match_all, ref_match_moves, ref_measure,
    ref_replace_at, ref_surface, ref_surface_general_atoms, ref_wait_premises,
)
from clprover.elementary import is_stable, is_stable_matched
from clprover.formula import (
    Atom, ChoAll, ChoAnd, ChoEx, ChoOr, Constant, ELEMENTARY, Facts,
    FormulaError, GENERAL, LetterId, ParAnd, ParOr, SubstitutionError,
    Variable, bound_variables, constants, facts, free_variables, has_general,
    known_facts, known_valid, letter_names, letter_table, parse_formula,
    render_formula, subformulas, substitute_var, validate_formula,
)
from clprover.prover import (
    ChooseTerm, MatchPair, MoveError, _Search, _SurfaceIndex, _forced,
    _surface_spine, apply_move, canonical_matches, enumerate_moves, measure,
    wait_premises,
)


def assert_surface_matches(f):
    index = _SurfaceIndex(f)
    assert index.choices == ref_surface(f, (ChoAnd, ChoOr, ChoAll, ChoEx))
    # the search tells choiceless states by the surface alone
    assert bool(index.choices) == (facts(f).choices > 0) == ref_has_choice(f)
    gens = ref_surface_general_atoms(f)
    letters = []
    for _, a in gens:
        if a.letter.name not in [L.name for L in letters]:
            letters.append(a.letter)
    assert [L for L, _, _ in index.letters] == letters
    for L, pos, neg in index.letters:
        assert pos == [p for p, a in gens if a.letter.name == L.name and not a.negated]
        assert neg == [p for p, a in gens if a.letter.name == L.name and a.negated]
    try:
        want = ref_wait_premises(f)
    except SubstitutionError as e:  # ref_replace_at nested a binder in its namesake
        with pytest.raises(SubstitutionError, match=re.escape(str(e))):
            wait_premises(f, index)
        return
    assert wait_premises(f) == want
    assert wait_premises(f, index) == want


def assert_queries_match(f):
    assert_surface_matches(f)
    assert free_variables(f) == ref_free_variables(f)
    assert bound_variables(f) == ref_bound_variables(f)
    assert constants(f) == ref_constants(f)
    assert (facts(f).choices > 0) == ref_has_choice(f)
    assert has_general(f) == ref_has_general(f)
    assert measure(f) == ref_measure(f)
    try:
        table = ref_letter_table(f)
    except FormulaError as e:
        for query in (letter_table, letter_names):
            with pytest.raises(FormulaError, match=re.escape(str(e))):
                query(f)
        return
    assert letter_table(f) == table
    assert list(letter_table(f)) == list(table)  # first-occurrence order
    assert letter_names(f) == {name for _, name in table}
    assert [m for m in enumerate_moves(f)
            if isinstance(m, MatchPair)] == ref_match_moves(f)
    assert_endgame_matches(f)
    assert canonical_matches(f, _forced(f, _SurfaceIndex(f))) == ref_forced_batch(f)


def assert_endgame_matches(f):
    """canonical_matches plays the same matches as ref_first_match_move one
    step at a time, and reaches the same formula; returns the letters it
    matched."""
    moves = canonical_matches(f, _SurfaceIndex(f).letters)
    final, ref_moves = ref_match_all(f)
    assert moves == ref_moves
    assert (moves[0] if moves else None) == ref_first_match_move(f)
    g = f
    for move in moves:
        g = apply_move(g, move)
    assert g == final
    return [_surface_spine(f, m.pos_path)[-1].letter.name for m in moves]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_queries_match_the_reference_walks(seed):
    rng = random.Random(seed)
    f = random_formula(rng, budget=rng.randint(1, 12))
    assert_queries_match(f)
    assert_queries_match(f)  # answered from the cache this time


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_queries_match_after_replace_at(seed):
    rng = random.Random(seed)
    f = random_formula(rng, budget=8)
    g = random_formula(rng, budget=4)
    facts(f), facts(g)  # derived states share these summarized subtrees
    paths = [p for p, _ in subformulas(f)]
    h = ref_replace_at(f, rng.choice(paths), g)  # may clash: arities, binders
    assert_queries_match(h)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_queries_match_after_substitute_var(seed):
    rng = random.Random(seed)
    f = random_formula(rng, budget=8)
    assert_queries_match(f)
    term = rng.choice((Constant(rng.randint(0, 3)), Variable("y"), Variable("u0")))
    try:
        g = substitute_var(f, rng.choice(("x", "y", "u1")), term)
    except SubstitutionError:
        return
    assert_queries_match(g)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_queries_match_after_apply_move(seed):
    rng = random.Random(seed)
    f = random_formula(rng, budget=rng.randint(4, 10))
    for _ in range(4):
        assert_queries_match(f)
        moves = enumerate_moves(f)
        if not moves:
            return
        f = apply_move(f, rng.choice(moves))


@pytest.mark.parametrize("text, premises", [
    ("p cand q cand p", ["p", "q"]),
    ("r \\/ (p cand q cand p) \\/ ((s cand s) /\\ call x: P(x))",
     ["r \\/ p \\/ ((s cand s) /\\ call x: P(x))",
      "r \\/ q \\/ ((s cand s) /\\ call x: P(x))",
      "r \\/ (p cand q cand p) \\/ (s /\\ call x: P(x))",
      "r \\/ (p cand q cand p) \\/ ((s cand s) /\\ P(w0))"]),
])
def test_wait_premises_keep_the_first_of_repeated_operands(text, premises):
    # the repeated p operands are not adjacent
    f = parse_formula(text)
    assert_surface_matches(f)
    assert wait_premises(f) == [parse_formula(p) for p in premises]


P = LetterId(ELEMENTARY, "p", 1)


@pytest.mark.parametrize("broken", [
    ParAnd((Atom(P, (Constant(0),)),
            Atom(LetterId(ELEMENTARY, "p", 2), (Constant(0), Constant(1))))),
    ParOr((Atom(P, (Variable("x"),)), ChoAll("x", Atom(P, (Variable("x"),))))),
    ParOr((ChoAll("x", Atom(P, (Variable("x"),))),
           ChoAll("x", Atom(P, (Variable("x"),))))),
    ParOr((Atom(P, (Constant(0),)), Atom(LetterId(GENERAL, "p", 1), (Constant(1),)))),
    ParAnd((Atom(P, (Constant(0),)),)),
])
def test_validate_raises_the_same_message_again(broken):
    with pytest.raises(FormulaError) as first:
        validate_formula(broken)
    facts(broken)  # a summary exists now, but records no success
    with pytest.raises(FormulaError) as second:
        validate_formula(broken)
    assert str(second.value) == str(first.value)


def test_validate_records_a_success():
    f = random_formula(random.Random(7), budget=8)
    validate_formula(f)
    assert known_valid(f)
    validate_formula(f)


def test_summary_takes_no_part_in_equality():
    f = random_formula(random.Random(3), budget=8)
    g = random_formula(random.Random(3), budget=8)
    facts(f)
    assert f == g and hash(f) == hash(g)
    assert render_formula(f) == render_formula(g)


_GEN = (("P", 0), ("Q", 1), ("R", 1))
_ELEM = (("p", 0), ("q", 1))


def random_choiceless(rng: random.Random, budget: int):
    """A formula over /\\ and \\/ only, with general atoms from a small pool
    so that letters often meet in both polarities."""
    if budget <= 1:
        name, arity = rng.choice(_GEN if rng.random() < 0.6 else _ELEM)
        args = tuple(Constant(rng.randint(0, 1)) for _ in range(arity))
        return Atom(LetterId.from_name(name, arity), args, rng.random() < 0.5)
    left = rng.randint(1, budget - 1)
    cls = rng.choice((ParAnd, ParOr, ParOr, ParOr))
    return cls((random_choiceless(rng, left), random_choiceless(rng, budget - left)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_choiceless_verdict_matches_stability_after_matching(seed):
    rng = random.Random(seed)
    f = random_choiceless(rng, rng.randint(2, 9))
    verdict = _Search()._choiceless_verdict(f, _SurfaceIndex(f))
    occurrences = [(a.letter.name, a.negated) for _, a in subformulas(f)
                   if isinstance(a, Atom) and a.letter.sort == GENERAL]
    assert (verdict is not None) == (len(occurrences) == len(set(occurrences)))
    if verdict is not None:
        assert verdict == is_stable(ref_match_all(f)[0])
        pairs = {n for n, neg in occurrences if neg} & {n for n, neg in occurrences if not neg}
        assert is_stable_matched(f, pairs) == verdict


@pytest.mark.parametrize("text, letters", [
    # P keeps a pair after its first match, and its first remaining
    # occurrence then lies past Q's, so Q goes next
    ("P /\\ Q /\\ ~P /\\ ~Q /\\ P /\\ ~P", ["P", "Q", "P"]),
    ("~R(0) \\/ (P \\/ R(1)) \\/ (~P /\\ P) \\/ ~P \\/ q", ["R", "P", "P"]),
    ("(P cor Q) \\/ Q \\/ ~Q \\/ ~Q", ["Q"]),
])
def test_endgame_matches_in_canonical_order(text, letters):
    f = parse_formula(text)
    assert assert_endgame_matches(f) == letters


def test_endgame_matches_one_step_at_a_time():
    kept = moved = 0
    for seed in range(400):
        rng = random.Random(seed)
        f = random_choiceless(rng, rng.randint(2, 12)) if seed % 2 else \
            random_formula(rng, budget=rng.randint(4, 12))
        names = assert_endgame_matches(f)
        kept += len(names) != len(set(names))
        # a letter matched again after another letter that first occurred
        # later in f: its first remaining occurrence moved past the other's
        first = {}
        for path, node in subformulas(f):
            if isinstance(node, Atom) and node.letter.sort == GENERAL:
                first.setdefault(node.letter.name, path)
        moved += any(first[a] < first[b] for i, a in enumerate(names)
                     for b in names[:i] if a != b and a in names[:i])
    assert kept and moved


# ---------------------------------------------------------------------------
# facts a rule derives

ODD_TERMS = (Variable("X1"), Variable("v7"), Constant(9), Constant(0))


def _general_count(f, name):
    return sum(1 for _, n in subformulas(f)
               if isinstance(n, Atom) and n.letter.sort == GENERAL and n.letter.name == name)


def assert_derived_facts(g, parent_valid):
    """The validity flag and the summary a rule left on g, before anything
    walked g: validity is claimed only for a formula that validates, and
    derived fields equal a fresh walk.  Returns whether g received a
    summary."""
    if parent_valid:
        assert known_valid(g)  # the rule kept the knowledge that g is valid
    if known_valid(g):
        validate_formula(parse_formula(render_formula(g)))
    s = known_facts(g)
    if s is None:
        return False
    walked = Facts(g)
    assert s.letters == walked.letters  # first-occurrence order
    assert s.counts == walked.counts
    assert s.clash == walked.clash
    for name in ("bound", "free", "consts"):
        have, want = getattr(s, name), getattr(walked, name)
        assert len(have) == len(set(have)) and set(have) == set(want), name
    assert s.choices == walked.choices
    assert s.generals == walked.generals
    return True


def test_derived_facts_equal_a_fresh_walk():
    seen = dict.fromkeys(("chosen", "chosen unused", "odd term used", "matched",
                          "match kept occurrences", "premise", "premise chosen"), 0)
    for seed in range(600):
        rng = random.Random(seed)
        f = random_formula(rng, budget=rng.randint(5, 12), closed=seed % 3 == 0)
        for _ in range(8):
            valid = known_valid(f)
            steps = [(m, True) for m in enumerate_moves(f)]
            steps += [(ChooseTerm(p, t), False) for p, n in _SurfaceIndex(f).choices
                      if isinstance(n, ChoEx) for t in ODD_TERMS]
            prems = wait_premises(f)
            if prems and (not steps or rng.random() < 0.3):
                for p in prems:
                    assert_derived_facts(p, valid)
                    # a choose-term on a premise nothing has walked yet
                    for path, n in _SurfaceIndex(p).choices:
                        if isinstance(n, ChoEx):
                            g = apply_move(p, ChooseTerm(path, Constant(0)))
                            assert_derived_facts(g, valid)
                            seen["premise chosen"] += 1
                            break
                seen["premise"] += 1
                f = rng.choice(prems)
                continue
            if not steps:
                break
            move, pooled = rng.choice(steps)
            try:
                g = apply_move(f, move)
            except MoveError:  # an odd term bound in f
                continue
            derived = assert_derived_facts(g, valid and pooled)
            if isinstance(move, ChooseTerm):
                q = _surface_spine(f, move.path)[-1]
                occurs = q.var in free_variables(q.body)
                seen["chosen"] += derived
                seen["chosen unused"] += derived and not occurs
                seen["odd term used"] += occurs and move.term == Variable("X1")
            elif isinstance(move, MatchPair):
                total = _general_count(f, _surface_spine(f, move.pos_path)[-1].letter.name)
                seen["matched"] += derived
                seen["match kept occurrences"] += total > 2
                assert derived == (valid and total == 2)
            f = g
    assert all(seen.values()), seen
