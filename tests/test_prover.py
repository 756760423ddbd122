import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    golden_proofs, naive_provable, random_formula, ref_first_success_proof,
    ref_proof_from_json,
)
import clprover.prover
from clprover.bridge import strategy_to_proof
from clprover.formula import (
    Constant, ELEMENTARY, LetterId, Variable, children, has_general,
    parse_formula, render_formula,
)
from clprover.prover import (
    ChooseDisjunct, ChooseTerm, GoalError, Logic, MatchPair, ProofFormatError,
    ProofNode, ProverConfig, WAIT, _SurfaceIndex, _forced,
    apply_move, check_proof, enumerate_moves, json_text, measure,
    proof_from_dict, proof_from_json, proof_to_dict, proof_to_json, prove,
    prove_with_stats, term_pool, wait_premises,
)
from clprover.qbf import (
    eval_qbf, parse_qbf, random_corpus, strategy_to_dict, strategy_to_json,
    winning_strategy_tree,
)
from clprover.reduction import reduce_to_cl3, reduce_to_cl4


CL3 = ProverConfig(logic=Logic.CL3)


def proof_nodes(node):
    yield node
    for p in node.premises:
        yield from proof_nodes(p)


# ---------------------------------------------------------------------------
# wait premises

def test_wait_premises_choice_conjunction():
    f = parse_formula("(p cand q) \\/ r")
    assert wait_premises(f) == [parse_formula("p \\/ r"), parse_formula("q \\/ r")]


def test_wait_premises_quantifier_uses_first_free_w():
    assert wait_premises(parse_formula("call x: p(x)")) == [parse_formula("p(w0)")]
    f = parse_formula("(call x: p(x)) \\/ q(w0)")
    assert wait_premises(f) == [parse_formula("p(w1) \\/ q(w0)")]


def test_wait_premises_empty_without_surface_occurrences():
    assert wait_premises(parse_formula("p \\/ q")) == []
    # inside a choice disjunction is not surface
    assert wait_premises(parse_formula("p cor (q cand r)")) == []


def test_wait_premises_deduplicates():
    f = parse_formula("(p cand p) \\/ (p cand p)")
    assert wait_premises(f) == [parse_formula("p \\/ (p cand p)"),
                                parse_formula("(p cand p) \\/ p")]


# ---------------------------------------------------------------------------
# move enumeration

def test_enumerate_choice_disjuncts():
    moves = enumerate_moves(parse_formula("p cor q"))
    assert moves == [ChooseDisjunct((), 0), ChooseDisjunct((), 1)]


def test_enumerate_single_match_pair():
    moves = enumerate_moves(parse_formula("P(0) \\/ ~P(0)"))
    assert moves == [MatchPair((0,), (1,), LetterId(ELEMENTARY, "p0", 1))]


def test_enumerate_terms_from_the_pool():
    # one fresh constant, the least natural that does not occur, and it is
    # listed even where a term occurs and the search skips it
    f = parse_formula("cex x: p(x)")
    assert enumerate_moves(f) == [ChooseTerm((), Constant(0))]
    g = parse_formula("(cex x: p(x)) \\/ ~p(0) \\/ ~p(2)")
    assert enumerate_moves(g) == [ChooseTerm((0,), Constant(c))
                                  for c in (0, 2, 1)]


def test_term_pool_order_constants_then_variables_then_fresh():
    f = parse_formula("cex x: s(x, 2) \\/ p(y)")
    assert term_pool(f) == [Constant(2), Variable("y"), Constant(0)]


def test_term_pool_orders_variables_by_number_then_name():
    # x01 and x1 share a number; the name breaks the tie, so the order does
    # not follow set iteration
    f = parse_formula("cex z: q(z) \\/ ~q(x10) \\/ ~q(x1) \\/ ~q(x2) \\/ ~q(x01)")
    assert term_pool(f) == [Variable("x01"), Variable("x1"), Variable("x2"),
                            Variable("x10"), Constant(0)]


@pytest.mark.parametrize("logic", [Logic.CL4, Logic.CL3], ids=lambda l: l.value)
@pytest.mark.parametrize("text", ["cex x: T", "cex x: (p(x) \\/ ~p(x))"])
def test_a_closed_choice_ex_needs_the_fresh_constant(text, logic):
    # no term occurs, so the fresh constant is the only candidate, and
    # each goal is provable only through it
    f = parse_formula(text)
    proof = prove(f, ProverConfig(logic=logic))
    assert proof is not None and check_proof(proof, ProverConfig(logic=logic))
    assert proof.rule == ChooseTerm((), Constant(0))


def test_enumerate_skips_match_without_both_polarities():
    moves = enumerate_moves(parse_formula("P(0) \\/ P(1)"))
    assert moves == []


def test_apply_move_validates_everything():
    f = parse_formula("P(0) \\/ ~P(1)")
    from clprover.prover import MoveError
    with pytest.raises(MoveError):
        apply_move(f, ChooseDisjunct((), 0))  # root is not a choice disjunction
    with pytest.raises(MoveError):
        apply_move(f, MatchPair((1,), (0,), LetterId(ELEMENTARY, "p0", 1)))
    with pytest.raises(MoveError):
        apply_move(f, MatchPair((0,), (1,), LetterId(ELEMENTARY, "P0", 1)))
    g = parse_formula("cex x: p(x) \\/ q(y)")
    with pytest.raises(MoveError):
        apply_move(g, ChooseTerm((), Variable("x")))  # bound in the formula


# ---------------------------------------------------------------------------
# proving

def test_prove_top_is_a_wait_axiom():
    proof = prove(parse_formula("T"))
    assert proof is not None and proof.rule is WAIT and proof.premises == ()


def test_prove_excluded_middle_general():
    proof = prove(parse_formula("P \\/ ~P"))
    assert proof is not None
    assert isinstance(proof.rule, MatchPair)
    assert proof.premises[0].rule is WAIT
    assert proof.premises[0].conclusion == parse_formula("p0 \\/ ~p0")


def test_prove_choice_middle_fails():
    assert prove(parse_formula("call x: (p(x) cor ~p(x))")) is None


def test_prove_stable_elementary_is_single_wait():
    proof = prove(parse_formula("p \\/ ~p"))
    assert proof is not None and proof.rule is WAIT and proof.premises == ()


def test_cl3_rejects_general_goals():
    with pytest.raises(GoalError):
        prove(parse_formula("P \\/ ~P"), CL3)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_prove_agrees_with_the_naive_search_cl4(seed):
    f = random_formula(random.Random(seed), budget=6)
    assert (prove(f) is not None) == naive_provable(f)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_prove_agrees_with_the_naive_search_cl3(seed):
    f = random_formula(random.Random(seed), budget=6, allow_general=False)
    assert not has_general(f)
    assert (prove(f, CL3) is not None) == naive_provable(f, Logic.CL3)


# The search skips choose-term moves on a dominated fresh constant; these
# tests hold it to the proof of the unpruned first-success search, whose
# pool has one fresh constant, as the search's does, or two.

CUT_CONFIGS = [(logic, fresh) for logic in (Logic.CL4, Logic.CL3)
               for fresh in (1, 2)]
CUT_IDS = [f"{logic.value}-occurring-plus-{'fresh' if fresh == 1 else 'two-fresh'}"
           for logic, fresh in CUT_CONFIGS]


def cut_goal(seed, logic):
    """A random goal, three times in ten a closed one: no term occurs."""
    rng = random.Random(seed)
    closed = rng.random() < 0.3
    f = random_formula(rng, budget=7, allow_general=logic is Logic.CL4,
                       closed=closed)
    return f, closed


def pruned_terms_of_first_success(f, logic, fresh):
    proof, stats = prove_with_stats(f, ProverConfig(logic=logic))
    assert proof == ref_first_success_proof(f, logic, fresh)
    return stats.pruned_terms


@pytest.mark.parametrize("logic, fresh", CUT_CONFIGS, ids=CUT_IDS)
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_pruned_search_finds_the_first_success_proof(logic, fresh, seed):
    pruned_terms_of_first_success(cut_goal(seed, logic)[0], logic, fresh)


@pytest.mark.parametrize("logic, fresh", CUT_CONFIGS, ids=CUT_IDS)
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_search_depth_within_measure(logic, fresh, seed):
    # every rule lowers the measure, so no branch of either pass, on a
    # provable goal or not, is longer than the measure plus one.  The
    # search has one pool, so fresh only names the run: each draws goals
    # of its own
    f = cut_goal(seed, logic)[0]
    assert prove_with_stats(f, ProverConfig(logic=logic))[1].max_depth <= measure(f) + 1


@pytest.mark.parametrize("logic, fresh", CUT_CONFIGS, ids=CUT_IDS)
def test_first_success_proofs_on_goals_that_prune(logic, fresh):
    # fixed seeds, so the share of goals that exercise the cut is fixed too
    pruned = closed_pruned = 0
    for seed in range(300):
        f, closed = cut_goal(seed, logic)
        hit = pruned_terms_of_first_success(f, logic, fresh) > 0
        pruned += hit
        closed_pruned += hit and closed
    assert pruned >= 40 and closed_pruned >= 5


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_proofs_check_and_shrink_the_measure(seed):
    f = random_formula(random.Random(seed), budget=6)
    proof, stats = prove_with_stats(f)
    if proof is None:
        return
    assert check_proof(proof)
    for node in proof_nodes(proof):
        for p in node.premises:
            assert measure(p.conclusion) < measure(node.conclusion)
    assert stats.max_depth <= measure(f) + 1


@pytest.mark.parametrize("clauses", (8, 10))
def test_wide_one_variable_sentences(clauses):
    # the width ladder: one variable, many clauses, so almost all the work
    # is classical validity
    corpus = random_corpus(40, seed=clauses, prefix_lengths=(1,),
                           min_clauses=clauses, max_clauses=clauses)
    picked = {}
    for q in corpus:
        picked.setdefault(eval_qbf(q), q)
    assert set(picked) == {True, False}
    for truth, q in picked.items():
        proof = prove(reduce_to_cl4(q))
        assert (proof is not None) == truth
        assert (prove(reduce_to_cl3(q), CL3) is not None) == truth
        if proof is not None:
            assert check_proof(proof)


def test_determinism_on_repeat_runs():
    f = parse_formula("(P(0) cand P(1)) \\/ cex x: (~P(x) /\\ (p cor q))")
    assert prove(f) == prove(f)


WORKED_Q = parse_qbf("exists x forall y exists z : (-x | y | x) & (z | x | -z)")
STABILITY_GOALS = [
    (reduce_to_cl4(WORKED_Q), ProverConfig()),
    (reduce_to_cl3(WORKED_Q), CL3),
    (parse_formula("(P(0) cand P(1)) \\/ cex x: (~P(x) /\\ (p cor q))"), ProverConfig()),
    (parse_formula("(P \\/ ~P) /\\ (Q \\/ (Q cor ~Q))"), ProverConfig()),
    (parse_formula("call x: (p(x) \\/ (q cor ~p(x)))"), CL3),
    (parse_formula("p cand (q cor ~p)"), CL3),
]


@pytest.mark.parametrize("goal, config", STABILITY_GOALS)
def test_stable_checks_count_every_stability_check(monkeypatch, goal, config):
    # stableChecks counts each call of either stability check, in both passes
    calls = []
    for name in ("is_stable", "is_stable_matched"):
        def counting(*args, _check=getattr(clprover.prover, name)):
            calls.append(args[0])
            return _check(*args)
        monkeypatch.setattr(clprover.prover, name, counting)
    stats = prove_with_stats(goal, config)[1]
    assert calls and stats.stable_checks == len(calls)


def test_forced_batch_leaves_a_letter_with_a_third_occurrence():
    # ~P and the surface P are P's only surface pair, but a third P waits
    # inside the cor: matching the pair at once would lose the proof that
    # first chooses that P and matches ~P with it
    f = parse_formula("~P \\/ (P /\\ r) \\/ (P cor F)")
    assert _forced(f, _SurfaceIndex(f)) == []
    proof = prove(f)
    assert naive_provable(f) and proof is not None and check_proof(proof)


def test_deeply_nested_choice_is_decided():
    # the search recurses once per move; any() over the rule generator
    # would add a frame per level and fail here
    f = parse_formula("q \\/ " + "(p cor " * 200 + "~p" + ")" * 200)
    assert prove(f) is None
    # a provable goal twice as deep: the pass that decides it builds its proof
    f = parse_formula("q \\/ " + "(p cor " * 400 + "~q" + ")" * 400)
    assert check_proof(prove(f))


# ---------------------------------------------------------------------------
# proof checking

def test_check_rejects_unstable_wait():
    bad = ProofNode(parse_formula("P \\/ ~P"), WAIT, ())
    res = check_proof(bad)
    assert not res.ok and any("unstable" in d for d in res.diagnostics)


def test_check_rejects_wrong_polarity_match():
    f = parse_formula("P(0) \\/ P(1)")
    fresh = LetterId(ELEMENTARY, "p0", 1)
    prem = ProofNode(parse_formula("p0(0) \\/ p0(1)"), WAIT, ())
    bad = ProofNode(f, MatchPair((0,), (1,), fresh), (prem,))
    res = check_proof(bad)
    assert not res.ok and any("polarity" in d for d in res.diagnostics)


def test_check_rejects_incomplete_wait_premises():
    f = parse_formula("p cand q")
    half = ProofNode(f, WAIT, (ProofNode(parse_formula("p"), WAIT, ()),))
    res = check_proof(half)
    assert not res.ok and any("premises" in d for d in res.diagnostics)


def test_check_rejects_match_in_cl3():
    # the general-letter diagnostic alone would reject this proof too, so
    # the exact list pins the match clause
    proof = prove(parse_formula("P \\/ ~P"))
    assert isinstance(proof.rule, MatchPair)
    res = check_proof(proof, CL3)
    assert not res.ok
    assert res.diagnostics == ["root: general letter in a cl3 proof",
                               "root: match rule is not available in cl3"]


def test_check_rejects_tampered_premise():
    proof = prove(parse_formula("p cor T"))
    assert isinstance(proof.rule, ChooseDisjunct)
    swapped = ProofNode(proof.conclusion, ChooseDisjunct((), 0), proof.premises)
    res = check_proof(swapped)
    assert not res.ok and any("premise" in d for d in res.diagnostics)


def test_check_rejects_a_term_variable_that_is_no_variable():
    # apply_move admits the term, but its result is not a valid formula: the
    # facts the move carries to it must not claim that it is
    f = parse_formula("cex x: (p(x) \\/ ~p(x))")
    move = ChooseTerm((), Variable("X1"))
    proof = ProofNode(f, move, (ProofNode(apply_move(f, move), WAIT, ()),))
    res = check_proof(proof)
    assert res.diagnostics == ["root.0: bad conclusion: invalid variable name 'X1'"]


def test_check_diagnostics_locate_the_node():
    f = parse_formula("p cand (q cand q)")
    good = prove(parse_formula("p cand (T cand T)"))
    assert good is None or check_proof(good)
    inner_bad = ProofNode(parse_formula("q cand q"), WAIT, (
        ProofNode(parse_formula("q"), WAIT, ()),
        ProofNode(parse_formula("q"), WAIT, ())))
    root = ProofNode(f, WAIT, (
        ProofNode(parse_formula("p"), WAIT, ()), inner_bad))
    res = check_proof(root)
    assert not res.ok
    assert any(d.startswith("root.1") for d in res.diagnostics)


# ---------------------------------------------------------------------------
# proof serialization

def test_proof_json_round_trip():
    for text in ("P \\/ ~P", "p cor T", "cex x: p(x) \\/ ~p(1)",
                 "(p cand q) \\/ (q cor p) \\/ ~q"):
        proof = prove(parse_formula(text))
        if proof is None:
            continue
        assert proof_from_json(proof_to_json(proof)) == proof


def test_proof_json_key_order():
    proof = prove(parse_formula("P \\/ ~P"))
    d = proof_to_dict(proof)
    assert list(d) == ["formula", "rule", "posPath", "negPath", "fresh", "premises"]
    assert list(d["premises"][0]) == ["formula", "rule", "premises"]


def _stdlib_text(value) -> str:
    return json.dumps(value, ensure_ascii=False, indent=2)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.lists(st.integers() | st.booleans()),  # int lists, bools among them
    lambda kids: st.lists(kids) | st.dictionaries(st.text(), kids),
    max_leaves=20)


@settings(max_examples=100, deadline=None)
@given(_JSON)
@example([])
@example({"": {}, "a": [[], {}]})
@example({"\u00e9\u4e2d": "\x00\x1f\u2028\"\\\n\ud7ff\U0001f600"})
@example([True, False, None])
@example([1, True, 2])
@example([-(10**40), 10**40, 0])
@example([0.1, -0.0, 1e300, float("inf"), float("nan")])
@example((1, [2, (3,)]))
def test_json_text_is_the_standard_library_text(value):
    assert json_text(value) == _stdlib_text(value)


def test_json_text_on_golden_proofs_and_strategy_trees():
    from test_golden import DEEP_CORPUS
    proofs = [p for _, _, p in golden_proofs()]
    trees = [winning_strategy_tree(q) for q in DEEP_CORPUS]
    proofs += [strategy_to_proof(q, t) for q, t in zip(DEEP_CORPUS, trees) if t]
    assert len(proofs) > 40
    for p in proofs:
        assert proof_to_json(p) == _stdlib_text(proof_to_dict(p))
    for t in [t for t in trees if t][:3]:
        assert strategy_to_json(t) == _stdlib_text(strategy_to_dict(t))


def test_json_text_needs_no_recursion():
    # 5,000 levels: far past the interpreter's recursion limit
    depth = 5000
    value: list = []
    for _ in range(depth):
        value = [value]
    text = json_text(value)
    pos = 0
    for piece in ([f"[\n{'  ' * (i + 1)}" for i in range(depth)] + ["[]"]
                  + [f"\n{'  ' * i}]" for i in reversed(range(depth))]):
        assert text.startswith(piece, pos)
        pos += len(piece)
    assert pos == len(text)


@pytest.mark.parametrize("doc", [
    '{"rule": "wait", "premises": []}',                      # missing formula
    '{"formula": "T", "rule": "hope", "premises": []}',      # unknown rule
    '{"formula": "T", "rule": "wait", "premises": [], "x": 1}',
    '{"formula": "T", "rule": "wait"}',
    '{"formula": "p cor q", "rule": "choose-disjunct", "path": [0], '
    '"premises": []}',                                       # index missing
    '{"formula": "cex x: p(x)", "rule": "choose-term", "path": [], '
    '"term": -1, "premises": []}',
    '{"formula": "cex x: p(x)", "rule": "choose-term", "path": [], '
    '"term": true, "premises": []}',
    '{"formula": "T", "rule": "wait", "premises": [], "path": []}',
    '{"formula": "P \\\\/ ~P", "rule": "match", "posPath": [0], '
    '"negPath": [1], "fresh": {"name": "p0"}, "premises": []}',
    'not json at all',
])
def test_proof_json_rejects_malformed_documents(doc):
    with pytest.raises(ProofFormatError):
        proof_from_json(doc)


def test_emitted_artifacts_revalidate():
    proof = prove(parse_formula(
        "(P(0) cand P(1)) \\/ cex x: (~P(x) /\\ (p \\/ ~p))"))
    assert proof is not None
    again = proof_from_json(proof_to_json(proof))
    assert check_proof(again)


def _read(reader, text):
    try:
        return reader(text)
    except ProofFormatError as e:
        return type(e), str(e)


def _node_dicts(d):
    stack = [d]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node["premises"])


def _unicode(text):
    for ascii, uni in (("\\/", "∨"), ("/\\", "∧"), (" cand ", " ⊓ "), (" cor ", " ⊔ ")):
        text = text.replace(ascii, uni)
    return text


_EDITS = ("spaced", "unicode", "underivable", "malformed", "swap", "path", "term")


def _mutants(d, edits, rng):
    """Proof documents near d, one per edit: one premise's text respaced,
    in Unicode, replaced by a valid formula its parent does not derive, or
    malformed; a wait node's premises swapped; a move whose path or term
    changed."""
    for edit in edits:
        doc = json.loads(json.dumps(d))
        parents = [n for n in _node_dicts(doc) if n["premises"]]
        if not parents:
            continue
        node = rng.choice(parents)
        prem = rng.choice(node["premises"])
        if edit == "spaced":
            prem["formula"] = prem["formula"].replace(" ", "  ")
        elif edit == "unicode":
            prem["formula"] = _unicode(prem["formula"])
        elif edit == "underivable":
            prem["formula"] = rng.choice((node["formula"], "p \\/ ~p", "T"))
        elif edit == "malformed":
            prem["formula"] = prem["formula"] + " \\/"
        elif edit == "swap":
            waits = [n for n in parents if len(n["premises"]) > 1]
            if not waits:
                continue
            rng.choice(waits)["premises"].reverse()
        elif edit == "path":
            moves = [n for n in parents if "path" in n or "posPath" in n]
            if not moves:
                continue
            move = rng.choice(moves)
            move["path" if "path" in move else "posPath"] = [7, 7]
        else:
            terms = [n for n in parents if "term" in n]
            if not terms:
                continue
            rng.choice(terms)["term"] = 2
        yield json.dumps(doc)


def test_reading_by_derivation_agrees_with_parsing_every_conclusion():
    rng = random.Random(9)
    texts = dict.fromkeys(proof_to_json(p) for _, _, p in golden_proofs())
    for i, text in enumerate(texts):
        proof = proof_from_json(text)
        assert proof == ref_proof_from_json(text)
        assert proof_to_json(proof) == text
        # two edits per proof, in rotation, so every edit meets small and
        # large proofs alike
        edits = (_EDITS[i % len(_EDITS)], _EDITS[(i + 3) % len(_EDITS)])
        for doc in _mutants(json.loads(text), edits, rng):
            assert _read(proof_from_json, doc) == _read(ref_proof_from_json, doc)


@pytest.mark.parametrize("depth", [600, 900])
def test_deep_proof_reads_back(depth):
    # reading a proof dict takes no frame per level; ProofNode equality
    # still recurses, so the two proofs are compared through their JSON
    text = "q \\/ " + "(p cor " * depth + "~q" + ")" * depth
    proof = prove(parse_formula(text))
    back = proof_from_dict(proof_to_dict(proof))
    assert proof_to_json(back) == proof_to_json(proof)


def test_reading_a_bridge_proof_parses_only_the_root(monkeypatch):
    q = parse_qbf("exists x forall y exists z : (-x | y | x) & (z | x | -z)")
    proof = strategy_to_proof(q, winning_strategy_tree(q))
    text = proof_to_json(proof)
    calls = []

    def counting_parse(s):
        calls.append(s)
        return parse_formula(s)

    monkeypatch.setattr(clprover.prover, "parse_formula", counting_parse)
    assert proof_from_json(text) == proof
    assert len(list(proof_nodes(proof))) > 20
    assert calls == [render_formula(proof.conclusion)]
