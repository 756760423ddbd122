import itertools
import random

import pytest

from conftest import all_strategy_trees, table_qbf_value
from clprover.qbf import (
    EXISTS, FORALL, Lit, Qbf, QbfError, QbfParseError, StrategyFormatError,
    StrategyNode, check_strategy_tree, eval_qbf, exhaustive_unary_corpus,
    normalize_qbf, parse_qbf, play_path, random_corpus, render_qbf,
    render_qdimacs, strategy_from_json, strategy_to_json, validate_qbf,
    winning_strategy_tree,
)

WORKED_PHI = "exists x forall y exists z : (-x | y | x) & (z | x | -z)"


def lit(s):
    return Lit(s.lstrip("-"), not s.startswith("-"))


def clause(*ls):
    return tuple(lit(s) for s in ls)


# ---------------------------------------------------------------------------
# parsing

def test_parse_qdimacs_lines():
    q = parse_qbf("e 1 0\n1 1 1 0\n", fmt="qdimacs")
    assert q == Qbf(((EXISTS, "x1"),), (clause("x1", "x1", "x1"),))


def test_parse_qdimacs_full_document():
    text = "c a comment\np cnf 3 2\ne 1 0\na 2 0\ne 3 0\n-1 2 1 0\n3 1 -3 0\n"
    q = parse_qbf(text, fmt="qdimacs")
    assert [v for _, v in q.prefix] == ["x1", "x2", "x3"]
    assert q.matrix == (clause("-x1", "x2", "x1"), clause("x3", "x1", "-x3"))


def test_parse_textual_worked_example():
    q = parse_qbf(WORKED_PHI)
    assert q.prefix == ((EXISTS, "x"), (FORALL, "y"), (EXISTS, "z"))
    assert q.matrix == (clause("-x", "y", "x"), clause("z", "x", "-z"))


def test_parse_textual_rejects_short_clause():
    with pytest.raises(QbfParseError, match="width"):
        parse_qbf("exists x : (x | -x)")


def test_parse_textual_repair_pads_short_clause():
    q = parse_qbf("exists x : (x | -x)", repair=True)
    assert q.matrix == (clause("x", "-x", "-x"),)


@pytest.mark.parametrize("text", [
    "exists x (x | x | x)",            # missing colon
    "exists x : (x | x | x",
    "exists x : x | x | x",
    "exists 1x : (1x | 1x | 1x)",
    "e 1 0\n1 1 1 0",                  # qdimacs text in textual mode
])
def test_parse_textual_rejects(text):
    with pytest.raises(QbfParseError):
        parse_qbf(text)


def test_parse_rejects_shape_violations_without_repair():
    # two existentials in a row
    with pytest.raises(QbfError):
        parse_qbf("exists x exists y : (x | y | y)")
    # universal endpoints
    with pytest.raises(QbfError):
        parse_qbf("forall x : (x | x | x)")
    with pytest.raises(QbfError):
        parse_qbf("exists x : (x | y | y)")  # y unquantified


def test_validate_qbf_direct():
    validate_qbf(parse_qbf(WORKED_PHI))
    with pytest.raises(QbfError):
        validate_qbf(Qbf(((EXISTS, "x"), (EXISTS, "y"), (EXISTS, "z")),
                         (clause("x", "y", "z"),)))
    with pytest.raises(QbfError):
        validate_qbf(Qbf(((EXISTS, "x"),), (clause("x", "x"),)))


# ---------------------------------------------------------------------------
# normalization

def test_normalize_inserts_dummy_universal():
    q = normalize_qbf([(EXISTS, "x"), (EXISTS, "y")],
                      [clause("x", "y", "y")])
    assert [(k.value, v) for k, v in q.prefix] == \
        [("exists", "x"), ("forall", "w"), ("exists", "y")]


def test_normalize_wraps_a_lone_universal():
    q = normalize_qbf([(FORALL, "y")], [clause("y", "-y", "-y")])
    assert [(k.value, v) for k, v in q.prefix] == \
        [("exists", "u"), ("forall", "y"), ("exists", "w")]


def test_normalize_pads_by_repeating_the_last_literal():
    q = normalize_qbf([(EXISTS, "x"), (FORALL, "y"), (EXISTS, "w")],
                      [(lit("x"), lit("-y"))])
    assert q.matrix == (clause("x", "-y", "-y"),)


def test_normalize_avoids_captured_dummy_names():
    q = normalize_qbf([(EXISTS, "u"), (EXISTS, "w")], [clause("u", "w", "w")])
    names = [v for _, v in q.prefix]
    assert len(set(names)) == 3 and "u" in names and "w" in names


def test_normalize_preserves_truth():
    rng = random.Random(11)
    for _ in range(80):
        n = rng.choice((1, 2, 3))
        vs = ("x", "y", "z")[:n]
        prefix = [(rng.choice((EXISTS, FORALL)), v) for v in vs]
        matrix = [tuple(Lit(rng.choice(vs), rng.random() < 0.5)
                        for _ in range(rng.randint(1, 3)))
                  for _ in range(rng.randint(0, 3))]
        q = normalize_qbf(prefix, matrix)
        validate_qbf(q)
        # fold the original directly for comparison
        def val(i, env):
            if i == len(prefix):
                return all(any(env[l.var] == l.positive for l in c)
                           for c in matrix)
            quant, var = prefix[i]
            pick = any if quant is EXISTS else all
            return pick(val(i + 1, {**env, var: b}) for b in (False, True))
        assert eval_qbf(q) == val(0, {})


def test_normalize_rejects_wide_and_empty_clauses():
    with pytest.raises(QbfError):
        normalize_qbf([(EXISTS, "x")], [(lit("x"),) * 4])
    with pytest.raises(QbfError):
        normalize_qbf([(EXISTS, "x")], [()])


# ---------------------------------------------------------------------------
# evaluation and plays

def test_eval_examples():
    assert eval_qbf(parse_qbf("exists x : (x | x | x)"))
    assert not eval_qbf(parse_qbf("exists x : (x | x | x) & (-x | -x | -x)"))
    assert eval_qbf(parse_qbf("exists x forall y exists z : (x | y | z) & (-x | -y | -z)"))
    assert eval_qbf(parse_qbf("exists x :"))  # empty matrix is vacuously true


def test_play_path_examples():
    q = parse_qbf(WORKED_PHI)
    assert play_path(q, (1, 0, 1))
    one = parse_qbf("exists x : (x | x | x)")
    assert not play_path(one, (0,))
    assert play_path(one, (1,))
    with pytest.raises(QbfError):
        play_path(one, (1, 0))
    with pytest.raises(QbfError):
        play_path(one, (2,))


def test_eval_matches_the_table_oracle():
    rng = random.Random(23)
    for q in random_corpus(150, seed=31) + exhaustive_unary_corpus(2):
        assert eval_qbf(q) == table_qbf_value(q), render_qbf(q)
    del rng


# ---------------------------------------------------------------------------
# strategy trees

def test_tree_for_the_worked_example():
    q = parse_qbf(WORKED_PHI)
    tree = winning_strategy_tree(q)
    assert tree is not None
    assert check_strategy_tree(q, tree)
    # both clauses are tautologous, so even the 0,0,0 play wins
    assert all(play_path(q, bits) for bits in itertools.product((0, 1), repeat=3))


def test_tree_single_node():
    q = parse_qbf("exists x : (x | x | x)")
    assert winning_strategy_tree(q) == StrategyNode(1)
    q0 = parse_qbf("exists x : (-x | -x | -x)")
    assert winning_strategy_tree(q0) == StrategyNode(0)  # smaller bit preferred


def test_tree_absent_for_false_sentence():
    q = parse_qbf("exists x : (x | x | x) & (-x | -x | -x)")
    assert winning_strategy_tree(q) is None


def test_check_tree_rejects_label_alternation_violation():
    q = parse_qbf(WORKED_PHI)
    left = StrategyNode(0, (StrategyNode(1),))
    bad = StrategyNode(1, (left, left))  # second child labeled 0 again
    res = check_strategy_tree(q, bad)
    assert not res.ok
    assert any("alternate" in d for d in res.diagnostics)


def test_check_tree_rejects_losing_play():
    q = parse_qbf("exists x : (x | x | x)")
    res = check_strategy_tree(q, StrategyNode(0))
    assert not res.ok
    assert any("losing play [0]" in d for d in res.diagnostics)


def test_check_tree_rejects_bad_shapes():
    q = parse_qbf(WORKED_PHI)
    res = check_strategy_tree(q, StrategyNode(1))  # leaf above the prefix depth
    assert not res.ok
    deep = StrategyNode(1, (StrategyNode(0, (StrategyNode(1, (StrategyNode(1),)),)),
                            StrategyNode(1, (StrategyNode(1),))))
    assert not check_strategy_tree(q, deep).ok


def _plays(node, labels=()):
    """Every complete play of a tree, in the order check_strategy_tree
    visits the leaves."""
    labels += (node.label,)
    if not node.children:
        yield labels
    for kid in node.children:
        yield from _plays(kid, labels)


def test_check_tree_reports_exactly_the_plays_play_path_loses():
    for q in random_corpus(30, seed=13, prefix_lengths=(3, 5), min_clauses=1):
        for tree in all_strategy_trees(len(q.prefix)):
            want = [f"losing play {list(p)}" for p in _plays(tree)
                    if not play_path(q, p)]
            got = [d.split(": ", 1)[1] for d in check_strategy_tree(q, tree).diagnostics]
            assert got == want, render_qbf(q)


def test_tree_existence_equals_truth_small():
    # prefix lengths 1 and 3: compare against brute enumeration of all trees
    corpus = exhaustive_unary_corpus(2) + random_corpus(60, seed=7,
                                                        prefix_lengths=(3,))
    for q in corpus:
        n = len(q.prefix)
        any_tree = any(check_strategy_tree(q, t) for t in all_strategy_trees(n))
        assert any_tree == eval_qbf(q), render_qbf(q)
        tree = winning_strategy_tree(q)
        assert (tree is not None) == any_tree
        if tree is not None:
            assert check_strategy_tree(q, tree)


def test_strategy_json_round_trip():
    q = parse_qbf(WORKED_PHI)
    tree = winning_strategy_tree(q)
    assert strategy_from_json(strategy_to_json(tree)) == tree


@pytest.mark.parametrize("doc", [
    '{"label": 1}',
    '{"label": true, "children": []}',
    '{"label": 1, "children": {}}',
    '{"label": 1, "children": [], "extra": 0}',
    '[1]',
])
def test_strategy_json_rejects_malformed(doc):
    with pytest.raises(StrategyFormatError):
        strategy_from_json(doc)


# ---------------------------------------------------------------------------
# rendering and corpora

def test_render_round_trips():
    q = parse_qbf(WORKED_PHI)
    assert parse_qbf(render_qbf(q)) == q
    back = parse_qbf(render_qdimacs(q), fmt="qdimacs")
    # renumbering renames variables but preserves structure and value
    assert [k for k, _ in back.prefix] == [k for k, _ in q.prefix]
    assert eval_qbf(back) == eval_qbf(q)


def test_render_empty_matrix():
    q = parse_qbf("exists x :")
    assert render_qbf(q) == "exists x :"


def test_exhaustive_unary_corpus_counts():
    # 8 ordered clauses over {x, -x}; multisets of size <= 3
    corpus = exhaustive_unary_corpus(3)
    assert len(corpus) == 1 + 8 + 36 + 120
    for q in corpus:
        validate_qbf(q)
    assert len({render_qbf(q) for q in corpus}) == len(corpus)


def test_random_corpus_is_reproducible_and_bounded():
    a = random_corpus(40, seed=99, prefix_lengths=(3,), max_clauses=4,
                      min_clauses=2)
    b = random_corpus(40, seed=99, prefix_lengths=(3,), max_clauses=4,
                      min_clauses=2)
    assert a == b
    for q in a:
        validate_qbf(q)
        assert len(q.prefix) == 3
        assert 2 <= len(q.matrix) <= 4
    for q in random_corpus(10, seed=99, prefix_lengths=(7,)):
        validate_qbf(q)
        assert len(q.prefix) == 7
    with pytest.raises(QbfError):
        random_corpus(1, seed=1, prefix_lengths=(2,))
