"""Acceptance gate.

Ten independent criteria, each printing one PASS/FAIL line.  They pin the
package-level promise: the sentence game, the cl4 and cl3 provers, and the
strategy bridge all agree with each other and with brute-force recomputation
on every instance small enough to enumerate.
"""

import dataclasses
import itertools
import random
import time

import pytest

from conftest import (
    equal_mod_general_letters, flatten_parallel, oracle_elementarize,
    random_formula, ref_provable, tt_atom_keys, tt_valid,
)
from clprover.bridge import canonicalize_proof, proof_to_strategy, strategy_to_proof
from clprover.cli import bench_run
from clprover.elementary import is_stable
from clprover.formula import (
    Atom, Constant, ELEMENTARY, LetterId, ParAnd, ParOr, Variable,
    letter_names, parse_formula,
)
from clprover.prover import (
    ChooseDisjunct, ChooseTerm, Logic, MatchPair, ProofNode, ProverConfig,
    WAIT, Wait, check_proof, prove,
)
from clprover.qbf import (
    check_strategy_tree, eval_qbf, exhaustive_unary_corpus, parse_qbf,
    random_corpus, render_qbf, winning_strategy_tree,
)
from clprover.reduction import reduce_to_cl3, reduce_to_cl4

WORKED_QBF = "exists x forall y exists z : (-x | y | x) & (z | x | -z)"

# the published image of the sentence above, with its two misprints repaired:
# a dropped parenthesis restored and a stray negation in front of the last
# literal gadget removed.  The letter T is written W here because the grammar
# reserves T for the top constant; the comparison is modulo letter renaming.
WORKED_IMAGE = (
    "cex x: (P(0) cand P(1)) \\/ cex y: (~P(y) /\\ cex z: "
    "((Q(x) \\/ ~Q(0)) \\/ (R(y) \\/ ~R(1)) \\/ (S(x) \\/ ~S(1))) /\\ "
    "((W(z) \\/ ~W(1)) \\/ (U(x) \\/ ~U(1)) \\/ (V(z) \\/ ~V(0))))"
)


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def corpus1():
    return exhaustive_unary_corpus(3)


@pytest.fixture(scope="module")
def corpus2():
    return random_corpus(200, seed=2024, prefix_lengths=(3,),
                         max_clauses=4, min_clauses=2)


def _timed_bench(corpus, tag):
    t0 = time.perf_counter()
    rows = bench_run([(f"{tag}{i:03d}", q) for i, q in enumerate(corpus)])
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def bench1(corpus1):
    return _timed_bench(corpus1, "ex")


@pytest.fixture(scope="module")
def bench2(corpus2):
    return _timed_bench(corpus2, "rnd")


@pytest.fixture(scope="module")
def true_proofs(corpus2):
    """(sentence, cl4 proof) for the first 100 true random instances."""
    out = []
    for q in corpus2:
        if len(out) == 100:
            break
        if eval_qbf(q):
            proof = prove(reduce_to_cl4(q))
            assert proof is not None
            out.append((q, proof))
    assert len(out) == 100
    return out


# ---------------------------------------------------------------------------

def test_criterion_1_exhaustive_unary_agreement(corpus1, bench1):
    rows, secs = bench1
    ok = (len(rows) == 165 and all(r.agree for r in rows) and secs < 30)
    report(1, ok, f"{len(rows)} instances, eval == cl4 == cl3, {secs:.1f}s")


def test_criterion_2_random_three_level_agreement(corpus2, bench2):
    rows, secs = bench2
    ok = (len(rows) >= 200 and all(r.agree for r in rows) and secs < 600)
    report(2, ok, f"{len(rows)} instances, eval == cl4 == cl3, {secs:.1f}s")


def test_criterion_3_published_example(corpus1):
    q = parse_qbf(WORKED_QBF)
    image = reduce_to_cl4(q)
    same = equal_mod_general_letters(flatten_parallel(image),
                                     flatten_parallel(parse_formula(WORKED_IMAGE)))
    proof = prove(image)
    proved = proof is not None
    tree = proof_to_strategy(q, canonicalize_proof(proof)) if proved else None
    tree_ok = tree is not None and bool(check_strategy_tree(q, tree))
    value = eval_qbf(q)
    ok = same and proved and tree_ok and value
    report(3, ok, f"image matches the published formula: {same}, "
                  f"provable: {proved}, extracted strategy checks: {tree_ok}, "
                  f"eval: {value}")


def test_criterion_4_stability_survives_a_fresh_dilemma():
    rng = random.Random(77)
    fresh = LetterId(ELEMENTARY, "h", 1)
    checked = failures = 0
    while checked < 1000:
        pi = random_formula(rng, budget=rng.randint(2, 7))
        if not is_stable(pi) or fresh.name in letter_names(pi):
            continue
        c = Constant(rng.randint(0, 1))
        wrapped = ParOr((Atom(fresh, (c,)),
                         ParAnd((Atom(fresh, (c,), negated=True), pi))))
        checked += 1
        failures += not is_stable(wrapped)
    report(4, failures == 0, f"{checked} wrapped stable formulas, "
                             f"{failures} lost stability")


def test_criterion_5_truth_equals_tree_existence(corpus1, corpus2):
    bad = 0
    total = 0
    for q in corpus1 + corpus2:
        total += 1
        tree = winning_strategy_tree(q)
        if (tree is not None) != eval_qbf(q):
            bad += 1
        elif tree is not None and not check_strategy_tree(q, tree):
            bad += 1
    report(5, bad == 0, f"{total} instances, trees exist iff true, "
                        f"{bad} mismatches")


def _odd_labels(node, level=1):
    out = [node.label] if level % 2 == 1 else []
    for kid in node.children:
        out += _odd_labels(kid, level + 1)
    return out


def test_criterion_6_strategy_proof_round_trip(corpus1, corpus2):
    done = bad = 0
    for q in corpus1 + corpus2:
        if done == 50:
            break
        tree = winning_strategy_tree(q)
        if tree is None:
            continue
        done += 1
        proof = strategy_to_proof(q, tree)
        back = proof_to_strategy(q, canonicalize_proof(proof))
        if not check_proof(proof) or _odd_labels(back) != _odd_labels(tree):
            bad += 1
    report(6, done == 50 and bad == 0,
           f"{done} true instances, proofs check and verifier choices "
           f"survive the round trip, {bad} failures")


# proof mutations for criterion 7 --------------------------------------------

def _rebuild(node, pred, fix):
    """Apply fix at the first node satisfying pred, in preorder."""
    if pred(node):
        return fix(node), True
    prems = list(node.premises)
    for i, p in enumerate(prems):
        new, hit = _rebuild(p, pred, fix)
        if hit:
            prems[i] = new
            return dataclasses.replace(node, premises=tuple(prems)), True
    return node, False


def _mutants(proof):
    # wrong rule tag at the root
    yield dataclasses.replace(proof, rule=WAIT)
    # perturbed rule path
    def bump(n):
        path = n.rule.path + (0,) if not n.rule.path else \
            n.rule.path[:-1] + (n.rule.path[-1] + 1,)
        return dataclasses.replace(n, rule=dataclasses.replace(n.rule, path=path))
    out, hit = _rebuild(proof, lambda n: isinstance(n.rule, (ChooseDisjunct,
                                                             ChooseTerm)), bump)
    assert hit
    yield out
    # swapped match polarity
    def swap(n):
        r = n.rule
        return dataclasses.replace(n, rule=dataclasses.replace(
            r, pos_path=r.neg_path, neg_path=r.pos_path))
    out, hit = _rebuild(proof, lambda n: isinstance(n.rule, MatchPair), swap)
    assert hit
    yield out
    # dropped wait premise
    def drop(n):
        return dataclasses.replace(n, premises=n.premises[1:])
    out, hit = _rebuild(proof, lambda n: isinstance(n.rule, Wait)
                        and n.premises, drop)
    assert hit
    yield out
    # chosen term replaced by the quantifier's own bound variable
    def capture(n):
        var = Variable(n.conclusion.var) if hasattr(n.conclusion, "var") else \
            Variable("x")
        return dataclasses.replace(n, rule=dataclasses.replace(n.rule, term=var))
    out, hit = _rebuild(proof, lambda n: isinstance(n.rule, ChooseTerm)
                        and n.rule.path == (), capture)
    assert hit
    yield out


def _fixed_mutants():
    """Hand-built proofs that must be rejected, each with the diagnostic it
    must get."""
    # a match on the fresh letter q, which already occurs; the premise it
    # would give is stable, and the search refutes the conclusion
    f = parse_formula("(P /\\ q) \\/ ~P")
    premise = ProofNode(parse_formula("(q /\\ q) \\/ ~q"), WAIT, ())
    match = MatchPair((0, 0), (1,), LetterId(ELEMENTARY, "q", 0))
    yield ProofNode(f, match, (premise,)), "root: fresh letter q already occurs"
    # a wait that lists a required premise twice
    f = parse_formula("T cand (p \\/ ~p)")
    leaves = tuple(ProofNode(parse_formula(t), WAIT, ()) for t in ("T", "p \\/ ~p"))
    assert check_proof(ProofNode(f, WAIT, leaves))
    yield (ProofNode(f, WAIT, leaves + leaves[1:]),
           "root: wait premises do not match the required set")


def test_criterion_7_mutation_rejection(true_proofs):
    applied = accepted = 0
    for _, proof in true_proofs:
        for mutant in _mutants(proof):
            applied += 1
            accepted += bool(check_proof(mutant))
    for mutant, diagnostic in _fixed_mutants():
        applied += 1
        accepted += diagnostic not in check_proof(mutant).diagnostics
    report(7, len(true_proofs) == 100 and accepted == 0,
           f"{applied} mutations over {len(true_proofs)} proofs, "
           f"{accepted} wrongly accepted")


def test_criterion_8_search_depth_within_measure(bench1, bench2):
    rows = bench1[0] + bench2[0]
    bad = sum(not r.depth_ok for r in rows)
    worst = max((r.depth4 - r.mu4, r.depth3 - r.mu3) for r in rows)
    report(8, bad == 0, f"{len(rows)} instances, max depth <= measure + 1 "
                        f"everywhere (worst slack {max(worst)}), {bad} over")


def test_criterion_9_classical_validity_against_truth_tables(corpus1, bench1):
    # the elementarizations, where is_stable is classical validity, and
    # the conclusions themselves, where the search calls is_stable
    conclusions = {}

    def collect(f):
        el = oracle_elementarize(f)
        if len(tt_atom_keys(el)) <= 12:
            conclusions[f] = el

    cl3 = ProverConfig(logic=Logic.CL3)
    for q, row in zip(corpus1, bench1[0]):
        f4, f3 = reduce_to_cl4(q), reduce_to_cl3(q)
        collect(f4)
        collect(f3)
        if row.value:
            stack = [prove(f4), prove(f3, cl3)]
            while stack:
                node = stack.pop()
                collect(node.conclusion)
                stack.extend(node.premises)
    stack = [prove(reduce_to_cl4(parse_qbf(WORKED_QBF)))]
    while stack:
        node = stack.pop()
        collect(node.conclusion)
        stack.extend(node.premises)
    valid = {el: tt_valid(el) for el in conclusions.values()}
    bad = sum(is_stable(el) != v for el, v in valid.items())
    # valid[el] is oracle_stable(f), with one truth table per elementarization
    bad += sum(is_stable(f) != valid[el] for f, el in conclusions.items())
    report(9, len(valid) > 0 and bad == 0,
           f"{len(valid)} distinct elementarizations, validity matches the "
           f"truth table oracle, and so does stability on "
           f"{len(conclusions)} distinct conclusions, {bad} mismatches")


def test_criterion_10_verdicts_stable_under_a_larger_term_pool(corpus1, bench1):
    # the verdicts of the search, with its shortcuts and its pruning of
    # fresh constants, against a reference search that has neither and
    # tries an extra fresh constant
    bad = 0
    for q, row in zip(corpus1, bench1[0]):
        p4 = ref_provable(reduce_to_cl4(q), Logic.CL4, 2)
        p3 = ref_provable(reduce_to_cl3(q), Logic.CL3, 2)
        bad += (p4, p3) != (row.cl4, row.cl3)
    report(10, len(corpus1) == 165 and bad == 0,
           f"{len(corpus1)} instances, verdicts equal to an unpruned search "
           f"with no shortcuts and an extra fresh constant, {bad} drifted")
