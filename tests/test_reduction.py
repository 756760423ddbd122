import pytest

from conftest import (
    equal_mod_general_letters, ref_surface_general_atoms, table_qbf_value,
)
from clprover.elementary import is_stable
from clprover.formula import (
    Atom, GENERAL, LetterId, parse_formula, render_formula, letter_table,
    subformulas,
)
from clprover.prover import Logic, ProverConfig, prove
from clprover.qbf import exhaustive_unary_corpus, parse_qbf, random_corpus, render_qbf
from clprover.reduction import qm, reduce_to_cl3, reduce_to_cl4

WORKED_PHI = parse_qbf("exists x forall y exists z : (-x | y | x) & (z | x | -z)")


# ---------------------------------------------------------------------------
# qm

def test_qm_strips_the_leftmost_quantifier():
    f = parse_formula("cex x: (p(x) \\/ q) /\\ r")
    assert qm(f, 0) == parse_formula("(p(0) \\/ q) /\\ r")
    g = parse_formula("call y: p(y)")
    assert qm(g, 1) == parse_formula("p(1)")


def test_qm_gadget_step():
    f = parse_formula("G(0) \\/ cex x: (~G(x) /\\ p)")
    assert qm(f, 0) == parse_formula("G(0) \\/ (~G(0) /\\ p)")


def test_qm_reaches_nested_quantifiers():
    f = parse_formula("p cor cex x: q(x)")
    assert qm(f, 1) == parse_formula("p cor q(1)")


def test_qm_errors():
    with pytest.raises(ValueError):
        qm(parse_formula("p \\/ q"), 0)
    with pytest.raises(ValueError):
        qm(parse_formula("cex x: p(x)"), -1)


# ---------------------------------------------------------------------------
# the mapping

def test_reduce_single_clause_sentence():
    q = parse_qbf("exists x : (x | x | x)")
    want = parse_formula(
        "cex x: (L1(x) \\/ ~L1(1)) \\/ (L2(x) \\/ ~L2(1)) \\/ (L3(x) \\/ ~L3(1))")
    assert reduce_to_cl4(q) == want
    want3 = parse_formula(
        "cex x: (l1(x) \\/ ~l1(1)) \\/ (l2(x) \\/ ~l2(1)) \\/ (l3(x) \\/ ~l3(1))")
    assert reduce_to_cl3(q) == want3


def test_reduce_negative_literal_uses_zero():
    q = parse_qbf("exists x : (-x | x | -x)")
    want = parse_formula(
        "cex x: (L1(x) \\/ ~L1(0)) \\/ (L2(x) \\/ ~L2(1)) \\/ (L3(x) \\/ ~L3(0))")
    assert reduce_to_cl4(q) == want


def test_reduce_worked_example_structure():
    f = reduce_to_cl4(WORKED_PHI)
    want = parse_formula(
        "cex x: (P1(0) cand P1(1)) \\/ (cex y: ~P1(y) /\\ "
        "(cex z: ((L1(x) \\/ ~L1(0)) \\/ (L2(y) \\/ ~L2(1)) \\/ (L3(x) \\/ ~L3(1)))"
        " /\\ ((L4(z) \\/ ~L4(1)) \\/ (L5(x) \\/ ~L5(1)) \\/ (L6(z) \\/ ~L6(0)))))")
    assert f == want
    # the same sentence with any other valid letter naming is the same formula
    assert equal_mod_general_letters(f, want)


def test_reduce_empty_matrix():
    q = parse_qbf("exists x :")
    assert render_formula(reduce_to_cl4(q)) == "cex x: T"


def test_letter_census():
    f = reduce_to_cl4(WORKED_PHI)

    counts: dict[tuple[str, bool], int] = {}
    for _, node in subformulas(f):
        if isinstance(node, Atom):
            key = (node.letter.name, node.negated)
            counts[key] = counts.get(key, 0) + 1

    # literal letters: one positive and one negative occurrence each
    for j in range(1, 7):
        assert counts[(f"L{j}", False)] == 1
        assert counts[(f"L{j}", True)] == 1
    # the universal-step letter: two positive (the split pair) and one negative
    assert counts[("P1", False)] == 2
    assert counts[("P1", True)] == 1


def test_outputs_are_general_base_or_general_free():
    for q in exhaustive_unary_corpus(2) + [WORKED_PHI]:
        f4 = reduce_to_cl4(q)
        assert all(sort == GENERAL for sort, _ in letter_table(f4))
        f3 = reduce_to_cl3(q)
        assert all(sort != GENERAL for sort, _ in letter_table(f3))


def test_cl3_image_is_the_lowercase_rendering():
    for q in (parse_qbf("exists x : (x | -x | x)"), WORKED_PHI):
        assert render_formula(reduce_to_cl3(q)) == \
            render_formula(reduce_to_cl4(q)).lower().replace("cex", "cex") \
                                            .replace("cand", "cand")


def test_size_is_polynomial():
    corpus = exhaustive_unary_corpus(3) + random_corpus(60, seed=3,
                                                        prefix_lengths=(1, 3, 5))
    for q in corpus:
        nq = len(render_qbf(q))
        assert len(render_formula(reduce_to_cl4(q))) <= nq * nq


def test_truth_equals_provability_spot_checks():
    corpus = exhaustive_unary_corpus(1) + random_corpus(
        25, seed=17, prefix_lengths=(3,), max_clauses=3)
    for q in corpus:
        value = table_qbf_value(q)
        assert (prove(reduce_to_cl4(q)) is not None) == value, render_qbf(q)
        got3 = prove(reduce_to_cl3(q), ProverConfig(logic=Logic.CL3))
        assert (got3 is not None) == value, render_qbf(q)


def test_gadget_images_are_stable_until_the_choices_start():
    # the image of any sentence whose prefix starts universally would be
    # unstable; with the required exists-first shape the root is never stable
    # when a surface choice quantifier waits at the top
    f = reduce_to_cl4(WORKED_PHI)
    assert not is_stable(f)
    assert ref_surface_general_atoms(f) == []
