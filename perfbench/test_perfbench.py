"""Self-tests of the benchmark's corpus generator, truth-table evaluator and
span bookkeeping.

    python3 -m pytest perfbench
"""

import random

from clprover.qbf import eval_qbf, parse_qbf

from corpus import WORKLOADS, make_corpus, random_sentence, truth_table
from spans import Tracer


def test_same_seed_same_corpus_other_seed_other_corpus():
    for w in WORKLOADS.values():
        assert make_corpus(w, 5, size=12) == make_corpus(w, 5, size=12)
        assert make_corpus(w, 5, size=12) != make_corpus(w, 6, size=12)


def test_long_prefixes_really_come_out():
    corpus = make_corpus(WORKLOADS["artifacts"], 1, size=10)
    lengths = {len(parse_qbf(text).prefix) for text, _ in corpus}
    assert lengths == {7, 9}
    q = next(parse_qbf(t) for t, _ in corpus if len(parse_qbf(t).prefix) == 9)
    assert [v for _, v in q.prefix] == [f"x{i}" for i in range(9)]


def test_truth_values_follow_the_workload():
    for w in WORKLOADS.values():
        corpus = make_corpus(w, 2, size=2 * len(w.cycle))
        for (text, truth), (n, k, want) in zip(corpus, 2 * w.cycle):
            q = parse_qbf(text)
            assert (len(q.prefix), len(q.matrix), truth) == (n, k, want)
            assert truth_table(q) == truth


def test_truth_table_on_the_worked_example():
    q = parse_qbf("exists x forall y exists z : (-x | y | x) & (z | x | -z)")
    assert truth_table(q) is True


def test_truth_table_agrees_with_the_game_evaluator():
    rng = random.Random(0)
    seen = set()
    for _ in range(300):
        q = random_sentence(rng, rng.choice((1, 3, 5)), rng.randint(0, 5))
        seen.add(truth_table(q))
        assert truth_table(q) == eval_qbf(q)
    assert seen == {True, False}


def test_self_times_add_up_to_the_root_span():
    t = Tracer()
    with t.span("root"):
        with t.span("a", calls=3):
            with t.span("b"):
                sum(range(10_000))
        with t.span("b"):
            sum(range(10_000))
    own = t.self_times()
    root = t.spans[0]
    assert abs(sum(own) - (root[3] - root[2])) < 1e-9
    assert all(s >= 0 for s in own)
    assert t.totals()["a"][1] == 3 and t.totals()["b"][1] == 2
