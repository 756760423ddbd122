"""Bridging strategy trees and proofs of reduced sentences.

Every state a proof of a reduced sentence passes through has a rigid shape:
a stack of elementary wrappers  q(c) \\/ (~q(c) /\\ _)  left behind by
earlier matches, around a core that is either the next choice-ex
quantifier, a universal gadget before or after its wait split, a general
pair ready to match, or the quantifier-free endgame.

_replay is the only walker that builds proofs.  It follows that shape from
the cl4 image, takes the term choices and the wait splits from a _Dec, and
forces the rest: a gadget wait splits into its 0 and 1 branches, each
branch commits its bit and matches the gadget pair at once, and the endgame
matches every surviving pair from one surface walk and waits.
strategy_to_proof reads the _Dec off a winning strategy tree.
canonicalize_proof and proof_to_strategy extract it from a proof; a proof is
canonical exactly when it equals its replay, and proof_to_strategy accepts
only canonical proofs.  Every node the replay builds passes check_proof, so
a canonical proof costs one replay and no separate check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .elementary import is_stable
from .formula import (
    Atom, ChoAnd, ChoEx, Constant, ELEMENTARY, Formula, FormulaError, GENERAL,
    LetterId, ParAnd, ParOr, Path, Variable, is_elementary, render_formula,
    validate_formula,
)
from .prover import (
    ChooseTerm, MatchPair, ProofNode, WAIT, Wait, _SurfaceIndex, apply_move,
    canonical_matches, check_proof, fresh_match_letter, wait_premises,
)
from .qbf import Qbf, StrategyNode, check_strategy_tree
from .reduction import reduce_to_cl4


class BridgeError(Exception):
    pass


class ShapeClass(Enum):
    EXISTS_CHOICE = "exists-choice"
    FORALL_GADGET = "forall-gadget"
    PICKED_GADGET = "picked-gadget"
    MATCH_PENDING = "match-pending"
    ELEMENTARY_LEAF = "elementary-leaf"
    OTHER = "other"


@dataclass(frozen=True)
class LevelLabel:
    """A strategy-tree level, optionally tagged with the stage an even level
    is in: t after the wait split, m after the committed choice, b after the
    gadget match."""
    number: int
    sub: Optional[str] = None

    def __post_init__(self):
        if self.number < 1:
            raise ValueError("levels start at 1")
        if self.sub not in (None, "t", "m", "b"):
            raise ValueError(f"bad level stage {self.sub!r}")
        if self.sub is not None and self.number % 2 == 1:
            raise ValueError("staged labels belong to even levels")

    def __str__(self) -> str:
        return f"{self.number}{self.sub or ''}"


@dataclass(frozen=True)
class _Shape:
    cls: ShapeClass
    quant_path: Optional[Path] = None
    pos_path: Optional[Path] = None
    neg_path: Optional[Path] = None
    letter: Optional[LetterId] = None
    const: Optional[int] = None


def _wrapper_step(f: Formula, sort: str):
    """Match  X(c) \\/ (~X(c) /\\ theta)  with X of the given sort and c a
    binary constant; return (letter, c, theta) or None."""
    if not (isinstance(f, ParOr) and len(f.operands) == 2):
        return None
    head, rest = f.operands
    if not (isinstance(head, Atom) and not head.negated
            and head.letter.sort == sort and len(head.args) == 1
            and isinstance(head.args[0], Constant) and head.args[0].value in (0, 1)):
        return None
    if not (isinstance(rest, ParAnd) and len(rest.operands) == 2):
        return None
    dual, theta = rest.operands
    if not (isinstance(dual, Atom) and dual.negated
            and dual.letter == head.letter and dual.args == head.args):
        return None
    return head.letter, head.args[0].value, theta


def _quant_tail(f: Formula, letter: LetterId):
    """Match  cex y: (~G(y) /\\ theta)  for the given gadget letter."""
    if not isinstance(f, ChoEx):
        return None
    body = f.body
    if not (isinstance(body, ParAnd) and len(body.operands) == 2):
        return None
    dual, _ = body.operands
    if not (isinstance(dual, Atom) and dual.negated and dual.letter == letter
            and dual.args == (Variable(f.var),)):
        return None
    return f


def _gadget_step(f: Formula):
    if not (isinstance(f, ParOr) and len(f.operands) == 2):
        return None
    cho, tail = f.operands
    if not (isinstance(cho, ChoAnd) and len(cho.operands) == 2):
        return None
    lo, hi = cho.operands
    if not (isinstance(lo, Atom) and not lo.negated and lo.letter.sort == GENERAL
            and lo.args == (Constant(0),)):
        return None
    if not (isinstance(hi, Atom) and not hi.negated and hi.letter == lo.letter
            and hi.args == (Constant(1),)):
        return None
    if _quant_tail(tail, lo.letter) is None:
        return None
    return lo.letter


def _picked_step(f: Formula):
    if not (isinstance(f, ParOr) and len(f.operands) == 2):
        return None
    head, tail = f.operands
    if not (isinstance(head, Atom) and not head.negated
            and head.letter.sort == GENERAL and len(head.args) == 1
            and isinstance(head.args[0], Constant) and head.args[0].value in (0, 1)):
        return None
    if _quant_tail(tail, head.letter) is None:
        return None
    return head.letter, head.args[0].value


def _analyze(f: Formula) -> _Shape:
    path: Path = ()
    cur = f
    while True:
        step = _wrapper_step(cur, ELEMENTARY)
        if step is None:
            break
        path += (1, 1)
        cur = step[2]
    if isinstance(cur, ChoEx):
        return _Shape(ShapeClass.EXISTS_CHOICE, quant_path=path)
    pend = _wrapper_step(cur, GENERAL)
    if pend is not None:
        return _Shape(ShapeClass.MATCH_PENDING,
                      pos_path=path + (0,), neg_path=path + (1, 0),
                      letter=pend[0], const=pend[1])
    gad = _gadget_step(cur)
    if gad is not None:
        return _Shape(ShapeClass.FORALL_GADGET, quant_path=path + (1,),
                      letter=gad)
    pick = _picked_step(cur)
    if pick is not None:
        return _Shape(ShapeClass.PICKED_GADGET, quant_path=path + (1,),
                      letter=pick[0], const=pick[1])
    return _Shape(ShapeClass.OTHER)  # the endgame, elementary or not


def classify_shape(f: Formula) -> ShapeClass:
    cls = _analyze(f).cls
    # the wrappers are elementary, so f is elementary exactly when its core is
    if cls is ShapeClass.OTHER and is_elementary(f):
        return ShapeClass.ELEMENTARY_LEAF
    return cls


# ---------------------------------------------------------------------------
# the canonical replay

@dataclass
class _Dec:
    """The decisions along one branch of a canonical proof: its term choices
    outside in (below a wait split the first is the committed universal bit)
    and, where it splits, the decisions of the 0 and the 1 branch."""
    choices: list[int]
    split: Optional[tuple["_Dec", "_Dec"]]


def _replay(f: Formula, dec: _Dec, i: int = 0,
            level: Optional[LevelLabel] = None) -> ProofNode:
    """The canonical proof of f that makes the term choices dec.choices[i:]
    and splits where dec does.  level is the strategy-tree level of the
    choice quantifier that f starts with or that was chosen last; None at
    the root, which must be a valid formula.

    Every node the replay builds passes check_proof: a valid root, premises
    that the moves derive, and waits on stable states whose premises are
    exactly wait_premises.  _canonical relies on it."""
    if level is None:
        try:
            validate_formula(f)
        except FormulaError as e:
            raise BridgeError(f"bad conclusion: {e}") from None
        level = LevelLabel(1)
    shape = _analyze(f)
    if shape.cls is ShapeClass.EXISTS_CHOICE:
        if i >= len(dec.choices):
            raise BridgeError(f"level {level}: proof is missing a term choice")
        c = dec.choices[i]
        if c not in (0, 1):
            c = 0  # the gadget letters only ever meet 0 and 1; anything else
            # left every literal over this variable unsatisfied, and 0 keeps
            # at least that much true
        move = ChooseTerm(shape.quant_path, Constant(c))
        return ProofNode(f, move,
                         (_replay(apply_move(f, move), dec, i + 1, level),))
    if shape.cls is ShapeClass.FORALL_GADGET:
        glevel = LevelLabel(level.number + 1, "t")
        if dec.split is None or i != len(dec.choices):
            raise BridgeError(f"level {glevel}: proof does not branch where "
                              f"the sentence does")
        if not is_stable(f):
            raise BridgeError(f"level {glevel}: gadget state is unstable")
        # the shape leaves two surface choices: the cand, whose two operands
        # differ, and the cex, which waiting leaves alone.  So the 0 and 1
        # branches are all of wait_premises(f)
        prems = wait_premises(f)
        kids = tuple(_replay_commit(prems[a], dec.split[a], a, glevel)
                     for a in (0, 1))
        return ProofNode(f, WAIT, kids)
    if shape.cls in (ShapeClass.PICKED_GADGET, ShapeClass.MATCH_PENDING):
        raise BridgeError(f"level {level}: unexpected {shape.cls.value} state "
                          f"during replay")
    # endgame: match every surviving pair in canonical order, then wait
    if dec.split is not None or i != len(dec.choices):
        raise BridgeError(f"level {level}: proof branches where the sentence "
                          f"does not")
    index = _SurfaceIndex(f)
    moves, states = canonical_matches(f, index)
    chain = [f] + states
    if not is_stable(chain[-1]):
        raise BridgeError(f"level {level}: endgame state is unstable: "
                          f"{render_formula(chain[-1])}")
    # matching leaves the surface choices in place, so index still holds them
    if wait_premises(chain[-1], index):
        raise BridgeError(f"level {level}: endgame state waits on premises: "
                          f"{render_formula(chain[-1])}")
    node = ProofNode(chain[-1], WAIT, ())
    for k in range(len(moves) - 1, -1, -1):
        node = ProofNode(chain[k], moves[k], (node,))
    return node


def _replay_commit(f: Formula, dec: _Dec, bit: int,
                   level: LevelLabel) -> ProofNode:
    """The bit branch of a gadget wait at level (an even level, stage t):
    commit the universal bit, match the gadget pair, and replay the rest."""
    shape = _analyze(f)
    if shape.cls is not ShapeClass.PICKED_GADGET or shape.const != bit:
        raise BridgeError(f"level {level}: wait premise is not the {bit} branch")
    if not dec.choices or dec.choices[0] != bit:
        raise BridgeError(f"level {LevelLabel(level.number, 'm')}: branch does "
                          f"not commit the universal bit {bit}")
    move = ChooseTerm(shape.quant_path, Constant(bit))
    g = apply_move(f, move)
    mshape = _analyze(g)
    if mshape.cls is not ShapeClass.MATCH_PENDING:
        raise BridgeError(f"level {LevelLabel(level.number, 'b')}: committed "
                          f"gadget did not leave a matchable pair")
    mmove = MatchPair(mshape.pos_path, mshape.neg_path,
                      fresh_match_letter(g, mshape.letter))
    inner = _replay(apply_move(g, mmove), dec, 1, LevelLabel(level.number + 1))
    return ProofNode(f, move, (ProofNode(g, mmove, (inner,)),))


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
    The proof need not have been checked: a node of a shape the replay
    cannot take raises BridgeError, and _canonical compares the rest."""
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
    """Read a proof's decisions and replay them.  A proof equal to its
    replay comes back as itself, unchecked: every replay node passes
    check_proof.  Any other proof, and one the walk fails on, must check
    before its replay or the failure is reported."""
    try:
        dec = _extract(proof)
        out = _replay(proof.conclusion, dec)
    except BridgeError:
        _check_input(proof)
        raise
    if out == proof:
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
    """Rebuild a valid proof of a reduced sentence in the canonical order:
    matches happen as early as possible, wait premises keep their derivation
    order, the endgame matches every pair, and term choices are binary.
    Canonical proofs come back unchanged."""
    return _canonical(proof)[1]
