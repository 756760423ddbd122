import random

import pytest

from conftest import golden_proofs, random_formula, ref_canonical
from clprover.bridge import (
    BridgeError, _dec_tree, canonicalize_proof, proof_to_strategy,
    strategy_to_proof,
)
from clprover.elementary import is_stable
from clprover.formula import (
    TOP, Atom, ChoAll, Constant, LetterId, ParOr, Variable, is_elementary,
    parse_formula, render_formula,
)
from clprover.prover import (
    ChooseTerm, Logic, ProofNode, ProverConfig, WAIT, Wait, apply_move,
    check_proof, proof_from_dict, proof_from_json, proof_to_dict,
    proof_to_json, prove,
)
from clprover.qbf import (
    StrategyNode, check_strategy_tree, eval_qbf, exhaustive_unary_corpus,
    parse_qbf, random_corpus, render_qbf, winning_strategy_tree,
)
from clprover.reduction import reduce_to_cl3, reduce_to_cl4

WORKED_PHI = parse_qbf("exists x forall y exists z : (-x | y | x) & (z | x | -z)")


def proof_nodes(node):
    yield node
    for p in node.premises:
        yield from proof_nodes(p)


def leaf_paths(node, acc=()):
    if not node.premises:
        yield acc + (node,)
    for p in node.premises:
        yield from leaf_paths(p, acc + (node,))


# ---------------------------------------------------------------------------
# strategy -> proof

def test_single_level_proof_shape():
    q = parse_qbf("exists x : (x | x | x)")
    proof = strategy_to_proof(q, StrategyNode(1))
    assert proof.conclusion == reduce_to_cl4(q)
    assert proof.rule == ChooseTerm((), Constant(1))
    rules = [n.rule for n in proof_nodes(proof)]
    assert [type(r).__name__ for r in rules] == \
        ["ChooseTerm", "MatchPair", "MatchPair", "MatchPair", "Wait"]
    leaf = list(proof_nodes(proof))[-1]
    assert is_elementary(leaf.conclusion) and is_stable(leaf.conclusion)
    assert check_proof(proof)


def test_worked_example_proof_from_tree():
    tree = winning_strategy_tree(WORKED_PHI)
    proof = strategy_to_proof(WORKED_PHI, tree)
    assert proof.conclusion == reduce_to_cl4(WORKED_PHI)
    assert check_proof(proof)


def test_losing_tree_is_rejected():
    q = parse_qbf("exists x : (x | x | x)")
    with pytest.raises(BridgeError, match="not winning"):
        strategy_to_proof(q, StrategyNode(0))


def test_malformed_tree_is_rejected():
    with pytest.raises(BridgeError):
        strategy_to_proof(WORKED_PHI, StrategyNode(1))  # leaf at level 1 of 3


def test_choice_and_split_counts_per_path():
    tree = winning_strategy_tree(WORKED_PHI)
    proof = strategy_to_proof(WORKED_PHI, tree)
    n = len(WORKED_PHI.prefix)
    for path in leaf_paths(proof):
        chooses = sum(isinstance(x.rule, ChooseTerm) for x in path)
        splits = sum(isinstance(x.rule, Wait) and len(x.premises) == 2
                     for x in path)
        assert chooses == n
        assert splits == n // 2


def test_every_wait_leaf_is_a_stable_leaf_form():
    tree = winning_strategy_tree(WORKED_PHI)
    proof = strategy_to_proof(WORKED_PHI, tree)
    for node in proof_nodes(proof):
        if node.rule is WAIT and not node.premises:
            assert is_elementary(node.conclusion)
            assert is_stable(node.conclusion)


# ---------------------------------------------------------------------------
# proof -> strategy

def test_round_trip_reproduces_trees():
    corpus = (exhaustive_unary_corpus(2)
              + random_corpus(40, seed=5, prefix_lengths=(3,))
              + random_corpus(6, seed=1, prefix_lengths=(5,), min_clauses=2)
              + random_corpus(3, seed=1, prefix_lengths=(7,), min_clauses=2))
    for q in corpus:
        tree = winning_strategy_tree(q)
        if tree is None:
            continue
        proof = strategy_to_proof(q, tree)
        assert proof_to_strategy(q, proof) == tree, render_qbf(q)


def test_extracting_from_the_prover_requires_canonicalizing():
    proof = prove(reduce_to_cl4(WORKED_PHI))
    assert proof is not None
    # the raw search output interleaves choices and matches its own way
    with pytest.raises(BridgeError, match="not canonical"):
        proof_to_strategy(WORKED_PHI, proof)
    tree = proof_to_strategy(WORKED_PHI, canonicalize_proof(proof))
    assert check_strategy_tree(WORKED_PHI, tree)


def test_swapped_wait_premises_are_not_canonical():
    def swap_first_split(node):
        if isinstance(node.rule, Wait) and len(node.premises) == 2:
            return ProofNode(node.conclusion, node.rule, node.premises[::-1])
        return ProofNode(node.conclusion, node.rule,
                         (swap_first_split(node.premises[0]),) + node.premises[1:])

    proof = strategy_to_proof(WORKED_PHI, winning_strategy_tree(WORKED_PHI))
    swapped = swap_first_split(proof)
    assert swapped != proof
    # the checker compares wait premises as a set, so the swap still checks
    assert check_proof(swapped)
    assert canonicalize_proof(swapped) == proof
    with pytest.raises(BridgeError, match="not canonical"):
        proof_to_strategy(WORKED_PHI, swapped)


def test_root_mismatch_is_rejected():
    q1 = parse_qbf("exists x : (x | x | x)")
    q2 = parse_qbf("exists x : (-x | -x | -x)")
    proof = strategy_to_proof(q1, StrategyNode(1))
    with pytest.raises(BridgeError, match="image"):
        proof_to_strategy(q2, proof)


def test_unchecked_proof_is_rejected():
    q = parse_qbf("exists x : (x | x | x)")
    good = strategy_to_proof(q, StrategyNode(1))
    bad = ProofNode(good.conclusion, WAIT, ())
    with pytest.raises(BridgeError, match="check"):
        proof_to_strategy(q, bad)


# ---------------------------------------------------------------------------
# canonicalization

def test_canonicalize_is_identity_on_bridge_output():
    tree = winning_strategy_tree(WORKED_PHI)
    proof = strategy_to_proof(WORKED_PHI, tree)
    assert canonicalize_proof(proof) == proof


def test_canonicalize_is_idempotent_on_search_output():
    for text in ("exists x : (x | x | x)",
                 "exists x forall y exists z : (-x | y | x) & (z | x | -z)",
                 "exists x forall y exists z : (x | y | z) & (-x | -y | -z)"):
        q = parse_qbf(text)
        proof = prove(reduce_to_cl4(q))
        once = canonicalize_proof(proof)
        assert once.conclusion == proof.conclusion
        assert check_proof(once)
        assert canonicalize_proof(once) == once


def _contract_cases():
    """(source, logic, proof): search proofs of random goals in cl4 and cl3,
    and cl3 proofs of reduced sentences."""
    rng = random.Random(23)
    while True:
        general = rng.random() < 0.7
        f = random_formula(rng, budget=rng.randint(1, 12), allow_general=general)
        logic = Logic.CL4 if general or rng.random() < 0.5 else Logic.CL3
        proof = prove(f, ProverConfig(logic=logic))
        if proof is not None:
            yield "goal", logic, proof
        q = random_corpus(1, seed=rng.randrange(10**6), prefix_lengths=(1, 3, 5))[0]
        proof = prove(reduce_to_cl3(q), ProverConfig(logic=Logic.CL3))
        if proof is not None:
            yield "cl3 image", Logic.CL3, proof


def test_canonicalize_raises_or_returns_a_checked_fixed_point():
    outcomes = set()
    cases = _contract_cases()
    for _ in range(400):
        source, logic, proof = next(cases)
        try:
            out = canonicalize_proof(proof)
        except BridgeError:
            # the cl3 proofs of reduced sentences are all taken
            assert source == "goal", render_formula(proof.conclusion)
            outcomes.add("raised")
            continue
        outcomes.add(source)
        assert out.conclusion == proof.conclusion
        assert check_proof(out, ProverConfig(logic=logic)), render_formula(out.conclusion)
        assert canonicalize_proof(out) is out
    assert outcomes == {"raised", "goal", "cl3 image"}


def test_canonical_term_choices_are_binary():
    # x occurs only in a clause that z satisfies, so a proof may choose 2
    # for x; the canonical proof chooses 0 in its place
    q = parse_qbf("exists x forall y exists z : (x | z | z)")
    f = reduce_to_cl4(q)
    pick = ChooseTerm((), Constant(2))
    proof = ProofNode(f, pick, (prove(apply_move(f, pick)),))
    assert check_proof(proof)
    canon = canonicalize_proof(proof)
    assert canon.rule == ChooseTerm((), Constant(0))
    assert proof_to_strategy(q, canon).label == 0


def test_canonicalize_rejects_broken_input():
    bad = ProofNode(parse_formula("p cand q"), WAIT, ())
    with pytest.raises(BridgeError, match="does not check"):
        canonicalize_proof(bad)


def test_canonical_proofs_agree_with_the_original_choices():
    # same verifier labels whether extracted from the bridge's own proof or
    # from the canonicalized search proof
    for q in random_corpus(25, seed=41, prefix_lengths=(3,), max_clauses=3):
        if not eval_qbf(q):
            continue
        proof = prove(reduce_to_cl4(q))
        tree = proof_to_strategy(q, canonicalize_proof(proof))
        assert check_strategy_tree(q, tree), render_qbf(q)


# ---------------------------------------------------------------------------
# the canonical pass against the one that checks first

def _outcome(fn, *args):
    try:
        return fn(*args)
    except BridgeError as e:
        return str(e)


def _ref_proof_to_strategy(q, proof):
    if proof.conclusion != reduce_to_cl4(q):
        raise BridgeError("proof does not conclude the sentence's cl4 image")
    dec, out = ref_canonical(proof)
    if out is not proof:
        raise BridgeError("proof is not canonical: it differs from its "
                          "canonical replay (see canonicalize_proof)")
    return _dec_tree(dec)


def _edit_at(node, rng, edit):
    """node with one node on a random branch replaced by edit(that node);
    None when edit declines every node on the branch."""
    spine = [node]
    while spine[-1].premises:
        spine.append(rng.choice(spine[-1].premises))
    for k in rng.sample(range(len(spine)), len(spine)):
        new = edit(spine[k])
        if new is not None:
            break
    else:
        return None
    for parent in reversed(spine[:k]):
        prems = tuple(new if p is spine[k] else p for p in parent.premises)
        new = ProofNode(parent.conclusion, parent.rule, prems)
        k -= 1
    return new


def _term_to_2(n):
    if isinstance(n.rule, ChooseTerm):
        return ProofNode(n.conclusion, ChooseTerm(n.rule.path, Constant(2)), n.premises)
    return None


def _drop_premise(n):
    return ProofNode(n.conclusion, n.rule, n.premises[1:]) if n.premises else None


def _tamper_conclusion(n):
    # a stable, valid formula in place of the node's own
    return ProofNode(parse_formula("p \\/ ~p"), n.rule, n.premises)


def _swap_split(n):
    if isinstance(n.rule, Wait) and len(n.premises) == 2:
        return ProofNode(n.conclusion, n.rule, n.premises[::-1])
    return None


def _edit_leaf_text(proof, rng):
    """proof read back from JSON, with the text of one leaf, a premise whose
    parent's rule is kept, edited to another valid and stable formula: the
    replay must compare before it takes the input's premise over."""
    doc = proof_to_dict(proof)
    node = doc
    while node["premises"]:
        node = rng.choice(node["premises"])
    node["formula"] = "p \\/ ~p"
    return proof_from_dict(doc)


def test_canonical_pass_agrees_with_checking_first():
    rng = random.Random(17)
    cases = []
    for q, kind, proof in golden_proofs():
        # a cl3 proof is not over the sentence's cl4 image
        cases.append((None if kind == "cl3" else q, proof))
        if kind == "bridge":
            cases.append((q, proof_from_json(proof_to_json(proof))))
            for edit in (_swap_split, _term_to_2, _drop_premise, _tamper_conclusion):
                bad = _edit_at(proof, rng, edit)
                if bad is not None:
                    cases.append((q, bad))
            cases.append((q, _edit_leaf_text(proof, rng)))
    for text in ("p cand q", "T \\/ (p cand q)", "(p cand q) \\/ cex x: r(x)"):
        cases.append((WORKED_PHI, ProofNode(parse_formula(text), WAIT, ())))
    # a term choice on a state that has a cand beside its cex
    f = parse_formula("(p cand q) \\/ cex x: r(x)")
    pick = ChooseTerm((1,), Constant(0))
    cases.append((None, ProofNode(f, pick, (ProofNode(apply_move(f, pick), WAIT, ()),))))
    cases.append((None, ProofNode(ParOr((TOP,)), WAIT, ())))  # not a valid formula
    # a conclusion whose wait premises cannot be formed: x is bound twice
    p_x = Atom(LetterId.from_name("p", 1), (Variable("x"),), False)
    twice = ChoAll("x", ChoAll("x", p_x))
    leaf = ProofNode(TOP, WAIT, ())
    cases.append((None, ProofNode(twice, WAIT, (leaf, leaf))))
    kinds, kept = set(), set()
    for q, proof in cases:
        want = _outcome(lambda p: ref_canonical(p)[1], proof)
        kinds.add(type(want).__name__)
        got = _outcome(canonicalize_proof, proof)
        assert got == want, render_formula(proof.conclusion)
        if isinstance(got, ProofNode):
            # a proof equal to its canonical form is handed back itself
            assert (got is proof) == (got == proof)
            kept.add(got is proof)
        if q is not None:
            assert _outcome(proof_to_strategy, q, proof) == \
                _outcome(_ref_proof_to_strategy, q, proof)
    assert kinds == {"ProofNode", "str"}
    assert kept == {True, False}
