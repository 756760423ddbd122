"""Golden digests of the proofs the library emits.

A fixed seeded corpus of sentences (prefixes 1, 3 and 5) is run through the
cl4 search, the cl3 search and strategy_to_proof; the SHA-256 of each
proof's JSON must equal the value stored in tests/data/golden_proofs.json.
A second corpus of prefix-7 and prefix-9 sentences pins the much larger
proofs strategy_to_proof builds there (tests/data/golden_bridge_deep.json).
A third, of prefix-7 sentences, pins the cl4 and cl3 search proofs there
(tests/data/golden_search_deep.json) and checks the paper's central fact on
it: a sentence is true exactly when its cl4 image is provable, and exactly
when its cl3 image is.
A refactor that changes any emitted proof, even by one byte, fails here.

Regenerate the data files (only when a proof change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from clprover.bridge import strategy_to_proof
from clprover.prover import Logic, ProverConfig, proof_to_json, prove
from clprover.qbf import eval_qbf, random_corpus, render_qbf, winning_strategy_tree
from clprover.reduction import reduce_to_cl3, reduce_to_cl4

DATA = Path(__file__).parent / "data" / "golden_proofs.json"
CORPUS = random_corpus(20, seed=2024, prefix_lengths=(1, 3, 5),
                       max_clauses=4, min_clauses=2)
DEEP_DATA = Path(__file__).parent / "data" / "golden_bridge_deep.json"
DEEP_CORPUS = random_corpus(7, seed=2025, prefix_lengths=(7, 9),
                            max_clauses=4, min_clauses=3)
SEARCH_DEEP_DATA = Path(__file__).parent / "data" / "golden_search_deep.json"
SEARCH_DEEP_CORPUS = random_corpus(8, seed=2029, prefix_lengths=(7,),
                                   max_clauses=3, min_clauses=2)


def _digest(proof) -> str | None:
    if proof is None:
        return None
    return hashlib.sha256(proof_to_json(proof).encode("utf-8")).hexdigest()


def digests(q) -> dict:
    tree = winning_strategy_tree(q)
    return {
        "sentence": render_qbf(q),
        "cl4": _digest(prove(reduce_to_cl4(q))),
        "cl3": _digest(prove(reduce_to_cl3(q), ProverConfig(logic=Logic.CL3))),
        "bridge": _digest(strategy_to_proof(q, tree) if tree else None),
    }


def deep_digests(q) -> dict:
    tree = winning_strategy_tree(q)
    return {
        "sentence": render_qbf(q),
        "bridge": _digest(strategy_to_proof(q, tree) if tree else None),
    }


@functools.cache
def search_deep_digests(i: int) -> dict:
    q = SEARCH_DEEP_CORPUS[i]
    return {
        "sentence": render_qbf(q),
        "cl4": _digest(prove(reduce_to_cl4(q))),
        "cl3": _digest(prove(reduce_to_cl3(q), ProverConfig(logic=Logic.CL3))),
    }


def test_golden_corpus_has_both_verdicts():
    golden = json.loads(DATA.read_text())
    assert len(golden) == len(CORPUS)
    assert {row["cl4"] is None for row in golden} == {False, True}


@pytest.mark.parametrize("i", range(len(CORPUS)))
def test_proof_digests_match_golden(i):
    golden = json.loads(DATA.read_text())[i]
    assert digests(CORPUS[i]) == golden


def test_deep_corpus_has_both_prefixes_and_verdicts():
    golden = json.loads(DEEP_DATA.read_text())
    assert len(golden) == len(DEEP_CORPUS)
    assert {len(q.prefix) for q in DEEP_CORPUS} == {7, 9}
    assert {row["bridge"] is None for row in golden} == {False, True}


@pytest.mark.parametrize("i", range(len(DEEP_CORPUS)))
def test_deep_bridge_digests_match_golden(i):
    golden = json.loads(DEEP_DATA.read_text())[i]
    assert deep_digests(DEEP_CORPUS[i]) == golden


def test_deep_search_corpus_has_prefix_seven_and_two_false_sentences():
    golden = json.loads(SEARCH_DEEP_DATA.read_text())
    assert len(golden) == len(SEARCH_DEEP_CORPUS)
    assert {len(q.prefix) for q in SEARCH_DEEP_CORPUS} == {7}
    assert sum(row["cl4"] is None for row in golden) >= 2
    assert any(row["cl4"] is not None for row in golden)


@pytest.mark.parametrize("i", range(len(SEARCH_DEEP_CORPUS)))
def test_deep_search_digests_match_golden(i):
    golden = json.loads(SEARCH_DEEP_DATA.read_text())[i]
    assert search_deep_digests(i) == golden


@pytest.mark.parametrize("i", range(len(SEARCH_DEEP_CORPUS)))
def test_deep_search_verdicts_agree_with_the_sentence(i):
    row = search_deep_digests(i)
    value = eval_qbf(SEARCH_DEEP_CORPUS[i])
    assert (row["cl4"] is not None) == value
    assert (row["cl3"] is not None) == value


if __name__ == "__main__":
    DATA.write_text(json.dumps([digests(q) for q in CORPUS], indent=1) + "\n")
    DEEP_DATA.write_text(
        json.dumps([deep_digests(q) for q in DEEP_CORPUS], indent=1) + "\n")
    SEARCH_DEEP_DATA.write_text(json.dumps(
        [search_deep_digests(i) for i in range(len(SEARCH_DEEP_CORPUS))],
        indent=1) + "\n")
