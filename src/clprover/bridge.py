"""Bridging strategy trees and proofs of reduced sentences.

_replay is the only walker that builds proofs.  It reads each state through
the prover's _SurfaceIndex alone and takes the term choices and the wait
splits from a _Dec:

- every state first plays canonical_matches, every surface match in
  canonical order;
- a state whose only surface choice is a cex takes the next term choice,
  with any term other than 0 or 1 made 0;
- a state whose surface choices are a cand and then a cex, where the
  decisions split, is a universal gadget: it waits, its two wait premises
  the 0 and the 1 branch;
- any other state ends the branch and waits with no premises.

On a reduced sentence the branch below a gadget wait commits the universal
bit on the premise's cex, and canonical_matches then matches the gadget
pair, the only surface pair the commit leaves.  Moves go through
apply_move, and waits happen only on stable states with exactly their
wait_premises, so every node the replay returns passes check_proof.

strategy_to_proof reads the _Dec off a winning strategy tree.
canonicalize_proof and proof_to_strategy extract it from a proof; a proof is
canonical exactly when it equals its replay, and proof_to_strategy accepts
only canonical proofs.  These two replay with the proof in hand: each state
the replay derives is compared with the proof's own conclusion at that
place, and where they agree the replay goes on from the proof's objects.
The two sides then share every subtree a rule leaves alone, so a comparison
walks only what the rule rebuilt, and a canonical proof comes back as the
very object given.  It costs one replay, with no separate check and no
comparison walk.  canonicalize_proof takes any proof: it raises BridgeError or
returns a checked canonical proof of the same conclusion, which is its own
canonical form.  Besides cl4 proofs of reduced sentences it takes their cl3
proofs, whose replay makes no match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .elementary import is_stable
from .formula import (
    ChoAnd, ChoEx, Constant, Formula, FormulaError, render_formula,
    validate_formula,
)
from .prover import (
    ChooseTerm, MatchPair, Move, ProofNode, WAIT, Wait, _SurfaceIndex,
    apply_move, canonical_matches, check_proof, wait_premises,
)
from .qbf import Qbf, StrategyNode, check_strategy_tree
from .reduction import reduce_to_cl4


class BridgeError(Exception):
    pass


# ---------------------------------------------------------------------------
# the canonical replay

@dataclass
class _Dec:
    """The decisions along one branch of a canonical proof: its term choices
    outside in (below a wait split the first is the committed universal bit)
    and, where it splits, the decisions of the 0 and the 1 branch."""
    choices: list[int]
    split: Optional[tuple["_Dec", "_Dec"]]


def _follow(given: Optional[ProofNode], j: int, f: Formula
            ) -> Optional[ProofNode]:
    """The input's premise j when it concludes f, else None."""
    if given is not None and j < len(given.premises) \
            and given.premises[j].conclusion == f:
        return given.premises[j]
    return None


def _node(given: Optional[ProofNode], f: Formula, rule: Union[Wait, Move],
          premises: tuple[ProofNode, ...]) -> ProofNode:
    """The input node given when it is this node, else a new one."""
    if given is not None and given.rule == rule \
            and len(given.premises) == len(premises) \
            and all(a is b for a, b in zip(given.premises, premises)):
        return given
    return ProofNode(f, rule, premises)


def _replay(f: Formula, dec: _Dec, given: Optional[ProofNode] = None,
            level: int = 0) -> ProofNode:
    """The canonical proof of f that makes the term choices in dec and splits
    where dec does, state by state as the module docstring lists.

    given is the input node that concludes f itself, or None.  Each move's
    result and each wait premise is compared with the input's premise at
    the same place; where they are equal, the replay goes on from the
    input's own conclusion, so the next comparison shares every subtree
    the rule left alone, and a subtree equal to the input's comes back as
    the input's own node.  level counts the term choices made above f; at
    level 0, the root, f must be a valid formula.  Each branch is walked in
    a loop, and only a wait split recurses.  _canonical relies on every
    node passing check_proof."""
    if level == 0:
        try:
            validate_formula(f)
        except FormulaError as e:
            raise BridgeError(f"bad conclusion: {e}") from None
    # the branch above its wait: each state, its move and the input's node
    steps: list[tuple[Formula, Move, Optional[ProofNode]]] = []
    i = 0
    while True:
        index = _SurfaceIndex(f)
        moves: list[Move] = canonical_matches(f, index.letters)
        kinds = [type(node) for _, node in index.choices]
        choose = kinds == [ChoEx] and i < len(dec.choices)
        if choose:
            c = dec.choices[i]
            if c not in (0, 1):
                c = 0  # the gadget letters only ever meet 0 and 1; anything else
                # left every literal over this variable unsatisfied, and 0 keeps
                # at least that much true
            # matching leaves every path in place
            moves.append(ChooseTerm(index.choices[0][0], Constant(c)))
        for move in moves:
            steps.append((f, move, given))
            f = apply_move(f, move)
            given = _follow(given, 0, f)
            if given is not None:
                f = given.conclusion
        if choose:
            i += 1
            level += 1
            continue
        split = kinds == [ChoAnd, ChoEx] and dec.split is not None \
            and i == len(dec.choices)
        where = f"level {level + 1 if split else max(level, 1)}"
        if not split and (dec.split is not None or i != len(dec.choices)):
            raise BridgeError(f"{where}: proof branches where the sentence "
                              f"does not")
        if not is_stable(f):
            raise BridgeError(f"{where}: wait state is unstable: "
                              f"{render_formula(f)}")
        # matching leaves the surface choices in place, so index still holds them
        prems = wait_premises(f, index)
        kids = dec.split if split else ()
        if len(prems) != len(kids):
            raise BridgeError(f"{where}: wait state has {len(prems)} premises, "
                              f"not {len(kids)}: {render_formula(f)}")
        subs = []
        for j, (p, d) in enumerate(zip(prems, kids)):
            g = _follow(given, j, p)
            subs.append(_replay(p if g is None else g.conclusion, d, g, level))
        node = _node(given, f, WAIT, tuple(subs))
        for g, move, at in reversed(steps):
            node = _node(at, g, move, (node,))
        return node


# ---------------------------------------------------------------------------
# strategy tree -> proof

def _tree_dec(node: StrategyNode, bit: Optional[int] = None) -> _Dec:
    """The decisions for the strategy subtree at a verifier node; bit is the
    falsifier's bit just above it, None at the root."""
    choices = [node.label] if bit is None else [bit, node.label]
    split = tuple(_tree_dec(kid.children[0], kid.label) for kid in node.children)
    return _Dec(choices, split or None)


def strategy_to_proof(q: Qbf, tree: StrategyNode) -> ProofNode:
    """Turn a winning strategy tree into a proof of the cl4 image."""
    f = reduce_to_cl4(q)
    res = check_strategy_tree(q, tree)
    if not res:
        raise BridgeError(f"strategy tree is not winning: {res.diagnostics[0]}")
    return _replay(f, _tree_dec(tree))


# ---------------------------------------------------------------------------
# proof -> strategy tree, canonicalization

def _extract(node: ProofNode) -> _Dec:
    """Collect the term choices along each branch (they always fire outside
    in) and where the proof wait-splits.  Matches carry no information.
    The proof need not have been checked: a node the replay cannot take
    raises BridgeError or, on a bad conclusion, FormulaError, and _canonical
    compares the rest."""
    choices: list[int] = []
    cur = node
    while True:
        rule = cur.rule
        if isinstance(rule, Wait):
            if not cur.premises:
                return _Dec(choices, None)
            want = wait_premises(cur.conclusion)
            if len(cur.premises) != 2 or len(want) != 2:
                raise BridgeError("proof is not over a reduced sentence: "
                                  "unexpected wait arity")
            # only the order of the premises is read here
            lo, hi = cur.premises
            if lo.conclusion != want[0]:
                lo, hi = hi, lo
            return _Dec(choices, (_extract(lo), _extract(hi)))
        if isinstance(rule, ChooseTerm):
            if not isinstance(rule.term, Constant):
                raise BridgeError("proof is not over a reduced sentence: "
                                  "a term choice is not a constant")
            choices.append(rule.term.value)
        elif not isinstance(rule, MatchPair):
            raise BridgeError("proof is not over a reduced sentence: "
                              "choose-disjunct cannot occur")
        if len(cur.premises) != 1:
            raise BridgeError("proof is not over a reduced sentence: "
                              "a move takes one premise")
        cur = cur.premises[0]


def _check_input(proof: ProofNode) -> None:
    res = check_proof(proof)
    if not res:
        raise BridgeError(f"input proof does not check: {res.diagnostics[0]}")


def _canonical(proof: ProofNode) -> tuple[_Dec, ProofNode]:
    """Read a proof's decisions and replay them against it.  A proof equal
    to its replay is what the replay hands back, and it comes back
    unchecked: every replay node passes check_proof.  Any other proof, and
    one the walk fails on, must check before its replay or the failure is
    reported."""
    try:
        dec = _extract(proof)
        out = _replay(proof.conclusion, dec, proof)
    except (BridgeError, FormulaError):
        _check_input(proof)
        raise
    if out is proof:
        return dec, proof
    _check_input(proof)
    res = check_proof(out)
    if not res:
        raise BridgeError(f"canonical replay does not check: {res.diagnostics[0]}")
    return dec, out


def _dec_tree(dec: _Dec) -> StrategyNode:
    """The strategy subtree a canonical branch's decisions spell out: its
    last choice is the verifier's bit."""
    kids = tuple(StrategyNode(a, (_dec_tree(d),))
                 for a, d in enumerate(dec.split or ()))
    return StrategyNode(dec.choices[-1], kids)


def proof_to_strategy(q: Qbf, proof: ProofNode) -> StrategyNode:
    """Read the verifier's strategy off a canonical proof of the cl4 image:
    one that canonicalize_proof returns unchanged."""
    if proof.conclusion != reduce_to_cl4(q):
        raise BridgeError("proof does not conclude the sentence's cl4 image")
    dec, out = _canonical(proof)
    if out is not proof:
        raise BridgeError("proof is not canonical: it differs from its "
                          "canonical replay (see canonicalize_proof)")
    return _dec_tree(dec)


def canonicalize_proof(proof: ProofNode) -> ProofNode:
    """Rebuild a valid proof in the canonical order: matches happen as early
    as possible, wait premises keep their derivation order, and term choices
    are binary.  Raises BridgeError, or returns a checked proof of the same
    conclusion that comes back unchanged when given again.  Proofs of
    reduced sentences are taken in cl3 as well as in cl4."""
    return _canonical(proof)[1]
