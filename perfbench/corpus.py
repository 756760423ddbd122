"""Seeded sentence corpora and an independent truth-table evaluator.

The generator is the benchmark's own: it does not use `qbf.random_corpus`,
whose five-name variable pool cannot give prefixes longer than five.  Prefix
variables are named x0, x1, ... in order; each clause draws three literals
from the whole prefix with seeded variables and polarities.

Every workload is a fixed cycle of (prefix length, clause count, truth)
entries; sentence i fills entry i mod len(cycle), drawing candidates until
one has the wanted truth value under `truth_table`.  A run that stops after
any whole number of cycles therefore holds each entry in its fixed share,
whatever the seed.  The shares are chosen so that no median or tail
percentile falls on the boundary between two cost clusters, where it would
jump between them from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from clprover.qbf import EXISTS, FORALL, Lit, Qbf, render_qbf, validate_qbf

MAX_DRAWS = 10_000


@dataclass(frozen=True)
class Workload:
    name: str
    # (prefix length, clause count, truth) entries, visited round-robin
    cycle: tuple[tuple[int, int, bool], ...]
    # whether the round trip runs the cl4 and cl3 searches
    prove: bool
    # sentences always completed, whatever --seconds says; the proof digest
    # covers exactly these, so it is the same on every machine
    min_sentences: int
    # roundtrip_ms_tail percentile: min_sentences leaves ten samples above it
    tail_pct: int
    # a few times what one run uses; a run that exhausts it stops early
    corpus_size: int


T, F = True, False

WORKLOADS = {
    w.name: w for w in (
        # Search states grow with the prefix while the matrix stays narrow:
        # the prover and formula layers do most of the work, and refutation
        # (false sentences) runs beside prove-and-build (true ones).  Prefix
        # 5 holds a quarter of the sentences and most of the time, so the
        # median sits among prefix-3 sentences and the p90 tail among
        # prefix-5 ones.
        Workload("depth", ((3, 2, T), (5, 2, T), (3, 2, F), (3, 2, T)),
                 prove=True, min_sentences=100, tail_pct=90, corpus_size=800),
        # One variable, many clauses: at most a few dozen search states, so
        # the classical-validity kernel behind is_stable dominates.
        Workload("width", ((1, 5, T), (1, 6, F), (1, 5, T)),
                 prove=True, min_sentences=100, tail_pct=90, corpus_size=900),
        # True sentences with long prefixes and no search: strategy to proof,
        # proof check, proof JSON both ways, proof to strategy and
        # canonicalization.  One sentence in five has prefix 9; the median
        # and the p66 tail (the highest percentile with ten samples above it
        # at 30 sentences) both sit among the prefix-7 ones.
        Workload("artifacts", ((7, 4, T),) * 4 + ((9, 4, T),),
                 prove=False, min_sentences=30, tail_pct=66, corpus_size=200),
    )
}


def random_sentence(rng: random.Random, prefix_len: int, clauses: int) -> Qbf:
    names = [f"x{i}" for i in range(prefix_len)]
    prefix = tuple((EXISTS if i % 2 == 0 else FORALL, v)
                   for i, v in enumerate(names))
    matrix = tuple(
        tuple(Lit(rng.choice(names), rng.random() < 0.5) for _ in range(3))
        for _ in range(clauses))
    return Qbf(prefix, matrix)


def truth_table(q: Qbf) -> bool:
    """Truth by a full table over all 2^n assignments, kept as one bit per
    assignment in an integer, folded innermost quantifier first.  Shares no
    code with the package's game evaluator."""
    rows = 1 << len(q.prefix)
    full = (1 << rows) - 1
    # prefix variable i is bit i of the assignment number: its column repeats
    # 2^i zeros then 2^i ones
    col = {v: full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
           for i, (_, v) in enumerate(q.prefix)}
    table = full
    for clause in q.matrix:
        sat = 0
        for lit in clause:
            sat |= col[lit.var] if lit.positive else full ^ col[lit.var]
        table &= sat
    for quant, _ in reversed(q.prefix):
        rows >>= 1
        low, high = table & ((1 << rows) - 1), table >> rows
        table = low | high if quant is EXISTS else low & high
    return bool(table)


def make_corpus(workload: Workload, seed: int,
                size: int | None = None) -> list[tuple[str, bool]]:
    """The rendered sentences of a workload with their truth values."""
    rng = random.Random(f"{workload.name}:{seed}")
    out = []
    for i in range(workload.corpus_size if size is None else size):
        prefix_len, clauses, want = workload.cycle[i % len(workload.cycle)]
        for _ in range(MAX_DRAWS):
            q = random_sentence(rng, prefix_len, clauses)
            if truth_table(q) == want:
                break
        else:
            raise RuntimeError(f"no {want} sentence at prefix {prefix_len} "
                               f"with {clauses} clauses in {MAX_DRAWS} draws")
        validate_qbf(q)
        if len(q.prefix) != prefix_len:
            raise RuntimeError(f"asked for prefix {prefix_len}, "
                               f"got {len(q.prefix)}")
        out.append((render_qbf(q), want))
    return out
