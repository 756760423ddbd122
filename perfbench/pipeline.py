"""One sentence's round trip through the package's public API, the
independent checks on its answers, and the traced-only layer passes.

Every call into the package sits in a span named after the module it lands
in, so the traced run can charge time to layers.  With tracing off the
spans are no-ops and only the perf_counter stamps below are taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple, Optional

from clprover.bridge import (
    canonicalize_proof, proof_to_strategy, strategy_to_proof,
)
from clprover.elementary import is_stable
from clprover.formula import Formula, parse_formula, render_formula, subformulas
from clprover.prover import (
    Logic, ProofNode, ProverConfig, SearchStats, Wait, check_proof,
    proof_from_json, proof_to_json, prove_with_stats,
)
from clprover.qbf import (
    Qbf, StrategyNode, check_strategy_tree, eval_qbf, parse_qbf, render_qbf,
    winning_strategy_tree,
)
from clprover.reduction import reduce_to_cl3, reduce_to_cl4

CONFIGS = {"cl4": ProverConfig(), "cl3": ProverConfig(logic=Logic.CL3)}


class Search(NamedTuple):
    proof: Optional[ProofNode]
    stats: SearchStats
    seconds: float


@dataclass
class Trip:
    q: Qbf
    value: bool
    f4: Formula
    roundtrip_s: float = 0.0
    bridge_s: Optional[float] = None
    # cl4 then cl3; empty on a workload that does not prove
    searches: dict[str, Search] = field(default_factory=dict)
    tree: Optional[StrategyNode] = None
    proof: Optional[ProofNode] = None
    proof_ok: bool = False
    proof_json: str = ""
    back: Optional[ProofNode] = None
    tree_back: Optional[StrategyNode] = None
    canon: Optional[ProofNode] = None


class Timing(NamedTuple):
    """What a run keeps of a good round trip.  Proofs are dropped, so memory
    stays at one sentence's working set."""
    value: bool
    roundtrip_s: float
    bridge_s: Optional[float]
    searches: dict[str, tuple[float, SearchStats]]


def timing(trip: Trip) -> Timing:
    return Timing(trip.value, trip.roundtrip_s, trip.bridge_s,
                  {k: (s.seconds, s.stats) for k, s in trip.searches.items()})


def round_trip(text: str, prove: bool, tracer) -> Trip:
    """Parse, evaluate, reduce, prove in cl4 then cl3 (when `prove`), and for
    a true sentence: strategy, strategy to proof, check, proof JSON out and
    back in, proof to strategy, canonicalize."""
    span = tracer.span
    start = perf_counter()
    with span("roundtrip"):
        with span("qbf.parse"):
            q = parse_qbf(text)
        with span("qbf.eval"):
            value = eval_qbf(q)
        with span("reduction.cl4"):
            f4 = reduce_to_cl4(q)
        with span("reduction.cl3"):
            f3 = reduce_to_cl3(q)
        trip = Trip(q, value, f4)
        for logic, goal in (("cl4", f4), ("cl3", f3)) if prove else ():
            t0 = perf_counter()
            with span(f"prover.{logic}"):
                proof, stats = prove_with_stats(goal, CONFIGS[logic])
            trip.searches[logic] = Search(proof, stats, perf_counter() - t0)
        if value:
            t0 = perf_counter()
            with span("qbf.strategy"):
                trip.tree = winning_strategy_tree(q)
            with span("bridge.strategy_to_proof"):
                trip.proof = strategy_to_proof(q, trip.tree)
            with span("prover.check"):
                trip.proof_ok = check_proof(trip.proof).ok
            with span("prover.to_json"):
                trip.proof_json = proof_to_json(trip.proof)
            with span("prover.from_json"):
                trip.back = proof_from_json(trip.proof_json)
            with span("bridge.proof_to_strategy"):
                trip.tree_back = proof_to_strategy(q, trip.back)
            with span("bridge.canonicalize"):
                trip.canon = canonicalize_proof(trip.back)
            trip.bridge_s = perf_counter() - t0
    trip.roundtrip_s = perf_counter() - start
    return trip


def check_trip(trip: Trip, text: str, truth: bool, tracer) -> list[str]:
    """What is wrong with a round trip's answers, judged against the
    benchmark's own truth table; empty when everything holds."""
    span = tracer.span
    bad = []
    if render_qbf(trip.q) != text:
        bad.append("parse_qbf does not give back the generated sentence")
    if trip.value != truth:
        bad.append(f"eval_qbf says {trip.value}, truth table says {truth}")
    for logic, search in trip.searches.items():
        if (search.proof is not None) != truth:
            bad.append(f"{logic} verdict disagrees with the truth table")
        if search.proof is not None:
            with span(f"check.{logic}"):
                ok = check_proof(search.proof, CONFIGS[logic]).ok
            if not ok:
                bad.append(f"{logic} search proof does not check")
    if truth:
        if not trip.proof_ok:
            bad.append("bridge proof does not check")
        with span("qbf.check_strategy"):
            ok = check_strategy_tree(trip.q, trip.tree).ok
        if not ok:
            bad.append("extracted strategy tree does not check")
        if trip.back != trip.proof:
            bad.append("proof JSON does not read back to the same proof")
        if trip.tree_back != trip.tree:
            bad.append("proof_to_strategy does not return the extracted tree")
        if trip.canon != trip.proof:
            bad.append("canonicalize_proof changed the bridge proof")
    return bad


def proof_texts(trip: Trip) -> list[bytes]:
    """The JSON of every proof the round trip emitted, for the digest: cl4
    search, cl3 search, bridge, with an empty entry for a missing one."""
    out = []
    for logic in CONFIGS:
        p = trip.searches[logic].proof if logic in trip.searches else None
        out.append(b"" if p is None else proof_to_json(p).encode())
    out.append(trip.proof_json.encode())
    return out


def _nodes(root: ProofNode) -> list[ProofNode]:
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(node.premises))
    return out


def layer_passes(trip: Trip, tracer, counts: dict) -> list[str]:
    """Traced run only: render and re-parse every proof conclusion, test
    stability on every wait node, and count goal and proof sizes."""
    span = tracer.span
    bad = []
    counts["formula.goal_nodes"] += sum(1 for _ in subformulas(trip.f4))
    proofs = [s.proof for s in trip.searches.values()] + [trip.proof]
    nodes = [n for p in proofs if p is not None for n in _nodes(p)]
    conclusions = [n.conclusion for n in nodes]
    with span("formula.render", calls=len(conclusions)):
        texts = [render_formula(c) for c in conclusions]
    with span("formula.parse", calls=len(texts)):
        parsed = [parse_formula(t) for t in texts]
    if parsed != conclusions:
        bad.append("parse_formula does not invert render_formula")
    waits = [n.conclusion for n in nodes if isinstance(n.rule, Wait)]
    with span("elementary.stable", calls=len(waits)):
        stable = [is_stable(c) for c in waits]
    if not all(stable):
        bad.append("a wait node's conclusion is not stable")
    if trip.proof is not None:
        counts["prover.proof_nodes"] += len(_nodes(trip.proof))
        counts["prover.json_bytes"] += len(trip.proof_json.encode())
    return bad
