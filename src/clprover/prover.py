"""Proof search and proof checking.

Four rules.  Wait: from a stable formula, with one premise for every operand
of every surface choice conjunction and one premise per surface choice-all
quantifier (its body on a fresh variable).  Choose-disjunct: replace a
surface choice disjunction by one operand.  Choose-term: replace a surface
choice-ex quantifier by its body on a chosen term.  Match: replace one
positive and one negative surface occurrence of a general letter by a fresh
elementary letter.  The cl3 logic drops match and requires general-free
goals.

Search is one memoized pass, _Search.solve, over one rule order, _tries.
It returns exactly the proof a naive first-success depth-first search over
that order would find; the order skips the choose-term moves that search
never picks.  Each state is solved once, and the _SurfaceIndex built there
is handed to every rule that reads the surface.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

from .elementary import is_stable, is_stable_matched
from .formula import (
    Atom, ChoAll, ChoAnd, ChoEx, ChoOr, Constant, Formula, FormulaError,
    GENERAL, ELEMENTARY, LetterId, ParAnd, ParOr, Path, Term, Variable,
    bound_variables, carry_facts, carry_validity, constants, facts,
    free_variables, has_general, is_letter_name, is_variable_name,
    known_facts, known_valid, letter_names, parse_formula, rebuild_spine,
    render_formula, substitute_var, validate_formula,
)


class ProverError(Exception):
    pass


class MoveError(ProverError):
    """A rule application that the current formula does not admit."""


class GoalError(ProverError):
    """Goal outside the logic (cl3 with general letters)."""


class ProofFormatError(ProverError):
    """Proof JSON that does not follow the documented shape."""


class Logic(str, Enum):
    CL4 = "cl4"
    CL3 = "cl3"


@dataclass(frozen=True, slots=True)
class Wait:
    pass


WAIT = Wait()


@dataclass(frozen=True, slots=True)
class ChooseDisjunct:
    path: Path
    index: int


@dataclass(frozen=True, slots=True)
class ChooseTerm:
    path: Path
    term: Term


@dataclass(frozen=True, slots=True)
class MatchPair:
    pos_path: Path
    neg_path: Path
    fresh: LetterId


Move = Union[ChooseDisjunct, ChooseTerm, MatchPair]


@dataclass(frozen=True)
class ProofNode:
    conclusion: Formula
    rule: Union[Wait, Move]
    premises: tuple["ProofNode", ...] = ()


@dataclass(frozen=True)
class ProverConfig:
    logic: Logic = Logic.CL4


@dataclass
class SearchStats:
    states: int = 0
    shortcut_states: int = 0
    max_depth: int = 0
    stable_checks: int = 0  # calls of is_stable and is_stable_matched
    memo_hits: int = 0  # solve calls answered from the memo
    forced_matches: int = 0  # matches played in forced batches
    forced_walks: int = 0  # states whose forced batch solved, then walked
    pruned_terms: int = 0  # choose-term moves skipped on dominated constants


# ---------------------------------------------------------------------------
# measure and fresh names

def measure(f: Formula) -> int:
    """Choice operators plus general-atom occurrences; every rule strictly
    lowers it, so it bounds the proof height."""
    s = facts(f)
    return s.choices + s.generals


def fresh_wait_variable(f: Formula) -> str:
    s = facts(f)
    used = {*s.free, *s.bound}
    k = 0
    while f"w{k}" in used:
        k += 1
    return f"w{k}"


def _fresh_letter(letter: LetterId, used: set[str]) -> LetterId:
    """Deterministic fresh elementary letter for matching `letter`: the
    lowercased name (guarded against the variable lexeme class and reserved
    words) with the first numeric suffix not in used."""
    base = letter.name.lower()
    if not is_letter_name(base):
        base += "q"
    k = 0
    while f"{base}{k}" in used:
        k += 1
    return LetterId(ELEMENTARY, f"{base}{k}", letter.arity)


# ---------------------------------------------------------------------------
# rule machinery

class _SurfaceIndex:
    """The surface of a formula, read by one pre-order walk through the
    parallel connectives.  choices holds the choice occurrences with their
    paths; they never nest, since the walk stops at each.  letters holds,
    for each general letter in first-occurrence order, the letter with the
    paths of its positive and of its negative atoms."""

    __slots__ = ("choices", "letters")

    def __init__(self, f: Formula):
        self.choices: list[tuple[Path, Formula]] = []
        letters: dict[str, tuple[LetterId, list[Path], list[Path]]] = {}
        stack: list[tuple[Path, Formula]] = [((), f)]
        while stack:
            path, node = stack.pop()
            if isinstance(node, (ParAnd, ParOr)):
                ops = node.operands
                for i in range(len(ops) - 1, -1, -1):
                    stack.append((path + (i,), ops[i]))
            elif isinstance(node, (ChoAnd, ChoOr, ChoAll, ChoEx)):
                self.choices.append((path, node))
            elif isinstance(node, Atom) and node.letter.sort == GENERAL:
                entry = letters.setdefault(node.letter.name, (node.letter, [], []))
                entry[2 if node.negated else 1].append(path)
        self.letters = list(letters.values())


def wait_premises(f: Formula, index: Optional[_SurfaceIndex] = None
                  ) -> list[Formula]:
    """Premises the wait rule requires for f, deduplicated, in pre-order of
    the surface choice occurrences they resolve.  Surface choice occurrences
    never nest, so only equal operands of one cand give equal premises.
    Each premise rebuilds only its occurrence's path, read once, and is
    marked valid when f is known to be; its Facts wait for a query."""
    prems: list[Formula] = []
    for path, node in (index or _SurfaceIndex(f)).choices:
        if isinstance(node, ChoAnd):
            firsts: dict[str, Formula] = {}  # operand text -> first operand
            for op in node.operands:
                firsts.setdefault(render_formula(op), op)
            subs = firsts.values()
        elif isinstance(node, ChoAll):
            w = Variable(fresh_wait_variable(f))
            subs = [substitute_var(node.body, node.var, w)]
        else:
            continue
        nodes = _surface_spine(f, path)
        prems.extend(rebuild_spine(nodes, path, sub, len(path)) for sub in subs)
    for p in prems:
        carry_validity(f, p)
    return prems


def _surface_spine(f: Formula, path: Path,
                   nodes: Optional[list[Formula]] = None) -> list[Formula]:
    """The nodes on a surface path, f first and the occurrence it addresses
    last; raises MoveError when the path leaves the parallel connectives.
    nodes, when given, holds the first nodes of that list, read off a path
    with the same first steps, and the walk goes on from its last."""
    nodes = [f] if nodes is None else nodes
    node = nodes[-1]
    for i in path[len(nodes) - 1:]:
        if not isinstance(node, (ParAnd, ParOr)):
            raise MoveError(f"path {list(path)} is not a surface occurrence")
        if not 0 <= i < len(node.operands):
            raise MoveError(f"path {list(path)} does not address a subformula")
        node = node.operands[i]
        nodes.append(node)
    return nodes


def apply_move(f: Formula, move: Move) -> Formula:
    """Result of a single move on f; raises MoveError when inapplicable.

    Only the nodes on the path the move changes are built anew; the result
    shares every other subtree with f.  When f is known to be valid, the
    result is marked valid too, unless a choose-term put in a term that is
    no variable name; and a choose-term on a walked f, or a match on a
    letter's only two occurrences, hands it the Facts derived from those of
    f instead of leaving them to a walk."""
    if isinstance(move, ChooseDisjunct):
        nodes = _surface_spine(f, move.path)
        node = nodes[-1]
        if not isinstance(node, ChoOr):
            raise MoveError(f"no surface choice disjunction at path {list(move.path)}")
        if not 0 <= move.index < len(node.operands):
            raise MoveError(f"disjunct index {move.index} out of range")
        g = rebuild_spine(nodes, move.path, node.operands[move.index], len(move.path))
        carry_validity(f, g)
        return g

    if isinstance(move, ChooseTerm):
        nodes = _surface_spine(f, move.path)
        node = nodes[-1]
        if not isinstance(node, ChoEx):
            raise MoveError(f"no surface choice-ex quantifier at path {list(move.path)}")
        t = move.term
        if isinstance(t, Constant):
            if t.value < 0:
                raise MoveError(f"term {t.value} is not a natural number")
        elif isinstance(t, Variable):
            if t.name in bound_variables(f):
                raise MoveError(f"term variable {t.name} occurs bound in the formula")
        else:
            raise MoveError(f"bad term {t!r}")
        body = substitute_var(node.body, node.var, t)
        g = rebuild_spine(nodes, move.path, body, len(move.path))
        known = known_facts(f)  # a variable term had f walked above
        if known is not None and known_valid(f):
            carry_facts(g, known.chosen(node.var, t, body is not node.body))
        if isinstance(t, Constant) or is_variable_name(t.name):
            carry_validity(f, g)
        return g

    if isinstance(move, MatchPair):
        pp, np = move.pos_path, move.neg_path
        pos_nodes = _surface_spine(f, pp)
        k = 0  # the two paths share their first k steps
        while k < len(pp) and k < len(np) and pp[k] == np[k]:
            k += 1
        neg_nodes = _surface_spine(f, np, pos_nodes[:k + 1])
        pos, neg = pos_nodes[-1], neg_nodes[-1]
        for occ, want_neg, which in ((pos, False, "positive"), (neg, True, "negative")):
            if not isinstance(occ, Atom) or occ.letter.sort != GENERAL:
                raise MoveError(f"{which} path does not address a general atom")
            if occ.negated != want_neg:
                raise MoveError(f"{which} occurrence has the wrong polarity")
        if pos.letter.name != neg.letter.name or pos.letter.arity != neg.letter.arity:
            raise MoveError("matched occurrences use different letters")
        fresh = move.fresh
        if fresh.sort != ELEMENTARY or not is_letter_name(fresh.name) \
                or fresh.name[:1].isupper():
            raise MoveError(f"fresh letter {fresh.name!r} is not elementary")
        if fresh.arity != pos.letter.arity:
            raise MoveError(f"fresh letter arity {fresh.arity} does not fit")
        known = facts(f)
        if known.clash:
            raise FormulaError(known.clash)
        for lid in known.letters:
            if lid.name == fresh.name:
                raise MoveError(f"fresh letter {fresh.name} already occurs")
        # two distinct atoms: neither path is a prefix of the other, so
        # they part below the parallel node at depth k, which takes both
        # new operands at once
        ops = list(pos_nodes[k].operands)
        ops[pp[k]] = rebuild_spine(pos_nodes, pp, Atom(fresh, pos.args, False),
                                   len(pp), k + 1)
        ops[np[k]] = rebuild_spine(neg_nodes, np, Atom(fresh, neg.args, True),
                                   len(np), k + 1)
        g = rebuild_spine(pos_nodes, pp, type(pos_nodes[k])(tuple(ops)), k)
        derived = known.matched(pos.letter, fresh) if known_valid(f) else None
        if derived is not None:
            carry_facts(g, derived)
        carry_validity(f, g)
        return g

    raise MoveError(f"not a move: {move!r}")


def term_pool(f: Formula) -> list[Term]:
    """Candidate terms for choose-term: occurring constants in ascending
    order, then free variables, then the least natural that does not occur.
    One fresh constant is enough: putting any term in place of a fresh
    constant maps a proof to a proof, so a second one never proves more."""
    consts = constants(f)
    out: list[Term] = [Constant(c) for c in sorted(consts)]
    out.extend(Variable(v) for v in sorted(free_variables(f), key=_var_key))
    fresh = next(c for c in range(len(consts) + 1) if c not in consts)
    return out + [Constant(fresh)]


def _var_key(name: str) -> tuple[str, int, str]:
    # the full name breaks ties such as x1 and x01, which would otherwise
    # keep the order of set iteration and so follow the hash seed
    return (name[0], int(name[1:]) if len(name) > 1 else -1, name)


def enumerate_moves(f: Formula, index: Optional[_SurfaceIndex] = None
                    ) -> list[Move]:
    """All applicable moves in the search order: choose-disjunct by
    occurrence then index, choose-term by occurrence then term_pool order,
    then match by letter first-occurrence order and occurrence pairs.  A
    cl3 goal has no general letter and no rule adds one, so no cl3 state
    lists a match.  Nothing is pruned: the fresh constant of term_pool is
    listed even where _tries skips it."""
    index = index or _SurfaceIndex(f)
    moves: list[Move] = []
    for path, node in index.choices:
        if isinstance(node, ChoOr):
            moves.extend(ChooseDisjunct(path, i) for i in range(len(node.operands)))
    exs = [path for path, node in index.choices if isinstance(node, ChoEx)]
    if exs:
        pool = term_pool(f)
        for path in exs:
            moves.extend(ChooseTerm(path, t) for t in pool)
    if index.letters:
        used = letter_names(f)
        for letter, pp, np in index.letters:
            if pp and np:
                fresh = _fresh_letter(letter, used)
                moves.extend(MatchPair(p, n, fresh) for p in pp for n in np)
    return moves


# ---------------------------------------------------------------------------
# search

def canonical_matches(f: Formula, letters: list) -> list[MatchPair]:
    """Every canonical match of f on the given entries of its surface index
    (all of them, or the forced ones), in the order they are played.  Each
    next match is on the letter whose first remaining surface occurrence
    comes first among the letters that still have both polarities, and
    pairs its first remaining positive and negative occurrences.  So one
    sort of the keys (first occurrence, letter's place in letters, pair
    index) gives that order: paths come in pre-order, so each letter's keys
    rise with its pair index.  Matching leaves every path in place and only
    adds fresh elementary names, so the surface index and the letter names
    of f serve every step, and each move applies to the formula the one
    before it leaves."""
    keys = sorted((min(pp[k], np[k]), i, k) for i, (_, pp, np) in enumerate(letters)
                  for k in range(min(len(pp), len(np))))
    if not keys:
        return []
    used = letter_names(f)
    moves: list[MatchPair] = []
    for _, i, k in keys:
        letter, pp, np = letters[i]
        fresh = _fresh_letter(letter, used)
        used.add(fresh.name)
        moves.append(MatchPair(pp[k], np[k], fresh))
    return moves


def _forced(f: Formula, index: _SurfaceIndex) -> list:
    """The entries of index whose letter occurs in f only as one positive and
    one negative surface atom.  Matching such a pair at once never loses a
    proof: the atoms sit outside every choice scope, so waiting and choosing
    leave them alone and commute with the match, no other partner for either
    can appear, and the elementarization only gains truth at the two spots.
    A match leaves every other atom and path in place, so these pairs are
    all forced at once: f is provable exactly when their batch's end is."""
    s = facts(f)
    total = dict(zip(s.letters, s.counts))
    return [e for e in index.letters if e[1] and e[2] and total[e[0]] == 2]


class _Search:
    def __init__(self):
        self.memo: dict[str, Optional[ProofNode]] = {}
        self.stats = SearchStats()

    def solve(self, f: Formula, depth: int) -> Optional[ProofNode]:
        """The first-success proof of f, or None.  It depends on f alone, so
        the memo hands it back wherever f is reached.  After a forced batch
        that solves, f still walks _tries: its first rule need not match."""
        stats = self.stats
        stats.max_depth = max(stats.max_depth, depth)
        key = render_formula(f)
        if key in self.memo:
            stats.memo_hits += 1
            return self.memo[key]
        stats.states += 1
        index = _SurfaceIndex(f)
        proof = verdict = None
        if not index.choices:  # the topmost choice on any path is on the surface
            verdict = self._choiceless_verdict(f, index)
        if verdict is not None:
            stats.shortcut_states += 1
            proof = self._match_chain(f, index) if verdict else None
        else:
            batch = canonical_matches(f, _forced(f, index))
            if batch:
                stats.forced_matches += len(batch)
                g = f
                for m in batch:
                    g = apply_move(g, m)
                verdict = self.solve(g, depth + len(batch)) is not None
                stats.forced_walks += verdict
            # plain loops: any() or all() would add a frame per search level
            if verdict is not False:  # no batch, or a batch that solves
                for rule, prems in self._tries(f, index):
                    nodes = []
                    for p in prems:
                        nodes.append(self.solve(p, depth + 1))
                        if nodes[-1] is None:
                            break
                    else:
                        proof = ProofNode(f, rule, tuple(nodes))
                        break
        self.memo[key] = proof
        return proof

    def _tries(self, f: Formula, index: _SurfaceIndex):
        """Each rule the search tries on f, in order, with its premises: wait
        when f is stable, then each move of enumerate_moves, its result built
        when reached, less the choose-term moves on the fresh constant when
        it is dominated.  Substituting a term t for a fresh constant c maps
        a proof of A(c) to a proof of A(t), and every occurring term
        precedes c in the pool, so a first-success search never picks c
        when a term occurs.  When none does, c is 0 and is kept.  Verdicts
        and proofs therefore do not change."""
        self.stats.stable_checks += 1
        if is_stable(f):
            yield WAIT, wait_premises(f, index)
        moves = enumerate_moves(f, index)
        s = facts(f)
        first = None if s.consts or s.free else Constant(0)
        kept = [m for m in moves
                if not isinstance(m, ChooseTerm) or isinstance(m.term, Variable)
                or m.term.value in s.consts or m.term == first]
        self.stats.pruned_terms += len(moves) - len(kept)
        for m in kept:
            yield m, (apply_move(f, m),)

    def _choiceless_verdict(self, f: Formula, index: _SurfaceIndex
                            ) -> Optional[bool]:
        # A choiceless formula whose general letters each have at most one
        # occurrence per polarity is provable exactly when matching every
        # positive/negative pair leaves a stable formula: every position is
        # monotone, so skipping or reordering matches can only lose.  With no
        # general letter, as in every cl3 goal, that is plain stability.
        # None when a letter occurs twice in one polarity.
        letters = index.letters
        if any(len(pp) > 1 or len(np) > 1 for _, pp, np in letters):
            return None
        self.stats.stable_checks += 1
        return is_stable_matched(f, {L.name for L, pp, np in letters if pp and np})

    def _match_chain(self, f: Formula, index: _SurfaceIndex) -> ProofNode:
        """The proof of a choiceless f that _choiceless_verdict proves: its
        canonical matches up to the first stable state, then a wait.  On an
        unstable state the naive search tries the first match, which keeps
        the verdict: matching the remaining pairs after it gives the formula
        the verdict tested, up to fresh names."""
        steps = []
        for m in canonical_matches(f, index.letters):
            self.stats.stable_checks += 1
            if is_stable(f):
                break
            steps.append((f, m))
            f = apply_move(f, m)
        proof = ProofNode(f, WAIT)
        for g, m in reversed(steps):
            proof = ProofNode(g, m, (proof,))
        return proof


def prove_with_stats(f: Formula, config: Optional[ProverConfig] = None
                     ) -> tuple[Optional[ProofNode], SearchStats]:
    config = config or ProverConfig()
    validate_formula(f)
    if config.logic is Logic.CL3 and has_general(f):
        raise GoalError("cl3 goals must not contain general letters")
    search = _Search()
    return search.solve(f, 1), search.stats


def prove(f: Formula, config: Optional[ProverConfig] = None) -> Optional[ProofNode]:
    return prove_with_stats(f, config)[0]


# ---------------------------------------------------------------------------
# proof checking

@dataclass
class CheckResult:
    ok: bool
    diagnostics: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def check_proof(root: ProofNode, config: Optional[ProverConfig] = None) -> CheckResult:
    """Re-derive every node of the proof; diagnostics name each violation by
    its position in the proof tree."""
    config = config or ProverConfig()
    diags: list[str] = []

    def visit(node: ProofNode, where: str) -> None:
        f = node.conclusion
        try:
            validate_formula(f)
        except FormulaError as e:
            diags.append(f"{where}: bad conclusion: {e}")
            return
        if config.logic is Logic.CL3 and has_general(f):
            diags.append(f"{where}: general letter in a cl3 proof")
        rule = node.rule
        if isinstance(rule, Wait):
            if not is_stable(f):
                diags.append(f"{where}: wait rule on an unstable conclusion")
            want = wait_premises(f)
            got = [p.conclusion for p in node.premises]
            # premises in derivation order compare by their rebuilt paths
            # alone; any other order is compared as a set of texts
            if want != got and \
                    sorted(map(render_formula, want)) != sorted(map(render_formula, got)):
                diags.append(f"{where}: wait premises do not match the required set")
        elif isinstance(rule, (ChooseDisjunct, ChooseTerm, MatchPair)):
            if isinstance(rule, MatchPair) and config.logic is Logic.CL3:
                diags.append(f"{where}: match rule is not available in cl3")
            if len(node.premises) != 1:
                diags.append(f"{where}: a move rule takes exactly one premise")
            else:
                try:
                    g = apply_move(f, rule)
                    if g != node.premises[0].conclusion:
                        diags.append(f"{where}: premise differs from the move result")
                except (MoveError, FormulaError) as e:
                    diags.append(f"{where}: {e}")
        else:
            diags.append(f"{where}: unknown rule {rule!r}")
        for i, p in enumerate(node.premises):
            visit(p, f"{where}.{i}")

    visit(root, "root")
    return CheckResult(not diags, diags)


# ---------------------------------------------------------------------------
# proof JSON

def _term_to_json(t: Term):
    return t.value if isinstance(t, Constant) else t.name


def _term_from_json(v) -> Term:
    if isinstance(v, bool):
        raise ProofFormatError(f"bad term {v!r}")
    if isinstance(v, int):
        if v < 0:
            raise ProofFormatError(f"bad term {v!r}")
        return Constant(v)
    if isinstance(v, str) and is_variable_name(v):
        return Variable(v)
    raise ProofFormatError(f"bad term {v!r}")


def _path_from_json(v, field_name: str) -> Path:
    if not isinstance(v, list) or \
            not all(isinstance(i, int) and not isinstance(i, bool) and i >= 0 for i in v):
        raise ProofFormatError(f"{field_name} must be a list of child indices")
    return tuple(v)


def proof_to_dict(node: ProofNode) -> dict:
    """The JSON object of a proof.  Each node's dict is filled when the node
    is popped from an explicit stack, in pre-order, with no recursion.  A
    conclusion shares most of its subtrees with its parent's, so one render
    memo serves the whole call and each shared subtree is rendered once."""
    texts: dict = {}
    root: dict = {}
    stack = [(node, root)]
    while stack:
        node, d = stack.pop()
        d["formula"] = render_formula(node.conclusion, texts)
        rule = node.rule
        if isinstance(rule, Wait):
            d["rule"] = "wait"
        elif isinstance(rule, ChooseDisjunct):
            d["rule"] = "choose-disjunct"
            d["path"] = list(rule.path)
            d["index"] = rule.index
        elif isinstance(rule, ChooseTerm):
            d["rule"] = "choose-term"
            d["path"] = list(rule.path)
            d["term"] = _term_to_json(rule.term)
        elif isinstance(rule, MatchPair):
            d["rule"] = "match"
            d["posPath"] = list(rule.pos_path)
            d["negPath"] = list(rule.neg_path)
            d["fresh"] = {"name": rule.fresh.name, "arity": rule.fresh.arity}
        else:
            raise ProofFormatError(f"unknown rule {rule!r}")
        d["premises"] = kids = [{} for _ in node.premises]
        stack.extend(reversed(list(zip(node.premises, kids))))
    return root


_RULE_KEYS = {
    "wait": set(),
    "choose-disjunct": {"path", "index"},
    "choose-term": {"path", "term"},
    "match": {"posPath", "negPath", "fresh"},
}


def proof_from_dict(d) -> ProofNode:
    """Read a proof.  Only the root's conclusion is always parsed: a premise
    whose text is the rendering of a conclusion its parent's rule derives
    takes that formula, and any other text is parsed.  Parsing inverts
    rendering, so both give the same node, and check_proof still re-derives
    every node.

    Each node's dict is checked when it is popped from an explicit stack, in
    pre-order, so the first fault in that order is the one reported; each
    ProofNode is built once its premises are.  The derived premises share
    subtrees with their parent, so one render memo serves the whole call."""
    texts: dict = {}
    read: list[list] = []  # per node in pre-order: conclusion, rule, premises
    stack = [(d, {}, None)]
    while stack:
        d, derived, parent = stack.pop()
        f, rule = _node_from_dict(d, derived)
        entry = [f, rule, []]
        read.append(entry)
        if parent is not None:
            parent[2].append(entry)
        if d["premises"]:
            known = _derived(f, rule, texts)
            for p in reversed(d["premises"]):
                stack.append((p, known, entry))
    for entry in reversed(read):  # every premise follows its node in pre-order
        entry.append(ProofNode(entry[0], entry[1], tuple([p[3] for p in entry[2]])))
    return read[0][3]


def _derived(f: Formula, rule: Union[Wait, Move], texts: dict) -> dict[str, Formula]:
    """The premise conclusions rule derives from f, keyed by their text."""
    try:
        prems = wait_premises(f) if isinstance(rule, Wait) else [apply_move(f, rule)]
    except (MoveError, FormulaError):  # the rule does not apply: parse instead
        return {}
    return {render_formula(p, texts): p for p in prems}


def _node_from_dict(d, derived: dict[str, Formula]) -> tuple[Formula, Union[Wait, Move]]:
    """The conclusion and rule of one proof node's dict, which is checked
    down to the type of its premise list."""
    if not isinstance(d, dict):
        raise ProofFormatError("proof node must be an object")
    missing = {"formula", "rule", "premises"} - d.keys()
    if missing:
        raise ProofFormatError(f"proof node is missing {sorted(missing)}")
    rule_name = d["rule"]
    if not isinstance(rule_name, str) or rule_name not in _RULE_KEYS:
        raise ProofFormatError(f"unknown rule {rule_name!r}")
    allowed = {"formula", "rule", "premises"} | _RULE_KEYS[rule_name]
    extra = d.keys() - allowed
    if extra:
        raise ProofFormatError(f"unexpected keys {sorted(extra)} on a {rule_name} node")
    lost = _RULE_KEYS[rule_name] - d.keys()
    if lost:
        raise ProofFormatError(f"{rule_name} node is missing {sorted(lost)}")
    if not isinstance(d["formula"], str):
        raise ProofFormatError("formula must be a string")
    f = derived.get(d["formula"])
    if f is None:
        try:
            f = parse_formula(d["formula"])
        except FormulaError as e:
            raise ProofFormatError(f"bad formula: {e}") from None

    if rule_name == "wait":
        rule: Union[Wait, Move] = WAIT
    elif rule_name == "choose-disjunct":
        if not isinstance(d["index"], int) or isinstance(d["index"], bool):
            raise ProofFormatError("index must be an integer")
        rule = ChooseDisjunct(_path_from_json(d["path"], "path"), d["index"])
    elif rule_name == "choose-term":
        rule = ChooseTerm(_path_from_json(d["path"], "path"),
                          _term_from_json(d["term"]))
    else:
        fr = d["fresh"]
        if not isinstance(fr, dict) or set(fr) != {"name", "arity"} \
                or not isinstance(fr.get("name"), str) \
                or not isinstance(fr.get("arity"), int) or isinstance(fr.get("arity"), bool) \
                or fr["arity"] < 0:
            raise ProofFormatError("fresh must be {name, arity}")
        rule = MatchPair(_path_from_json(d["posPath"], "posPath"),
                         _path_from_json(d["negPath"], "negPath"),
                         LetterId(ELEMENTARY, fr["name"], fr["arity"]))
    if not isinstance(d["premises"], list):
        raise ProofFormatError("premises must be a list")
    return f, rule


_scalar = json.JSONEncoder(ensure_ascii=False).encode


def json_text(value) -> str:
    """The text json.dumps writes for value with ensure_ascii off and an
    indent of 2, byte for byte, when every dict key is a string.  The
    standard library writes indented JSON with its pure-Python encoder,
    which hands every piece up through one generator per level; this walk
    keeps an explicit stack instead, and writes a list of plain ints with
    one join."""
    out: list[str] = []
    stack: list = [(value, "\n")]  # a bare str is text to write as it is
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        v, nl = item
        inner = nl + "  "
        if isinstance(v, dict) and v:
            stack.append(nl + "}")
            for k, x in reversed(v.items()):
                stack += ((x, inner), f",{inner}{_scalar(k)}: ")
            stack[-1] = "{" + stack[-1][1:]  # the first entry takes no comma
        elif isinstance(v, (list, tuple)) and v:
            if all(x.__class__ is int for x in v):  # a bool is not a plain int
                out.append(f"[{inner}{(',' + inner).join(map(str, v))}{nl}]")
                continue
            stack.append(nl + "]")
            for x in reversed(v):
                stack += ((x, inner), "," + inner)
            stack[-1] = "[" + inner
        else:
            out.append(str(v) if v.__class__ is int else _scalar(v))
    return "".join(out)


def proof_to_json(node: ProofNode) -> str:
    return json_text(proof_to_dict(node))


def proof_from_json(text: str) -> ProofNode:
    try:
        data = json.loads(text)
    except ValueError as e:
        raise ProofFormatError(f"not valid JSON: {e}") from None
    return proof_from_dict(data)
