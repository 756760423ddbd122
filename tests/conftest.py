"""Shared oracles and generators.

Everything here recomputes its answer from first principles, so the library
never gets to certify itself: classical validity comes from a plain truth
table, provability from an unmemoized search that tries every applicable rule
and every candidate term (or, on whole reduction images, from a memoized one
over the package's rules with none of its shortcuts), sentence values from
folding a full assignment table, and strategy-tree existence from
enumerating all shaped trees.
"""

from __future__ import annotations

import functools
import itertools
import json
import random

from clprover.bridge import BridgeError, _extract, _replay, strategy_to_proof
from clprover.elementary import is_stable
from clprover.formula import (
    Atom, Bot, ChoAll, ChoAnd, ChoEx, ChoOr, Constant, Formula, FormulaError,
    LetterId, ParAnd, ParOr, SubstitutionError, Top, Variable, BOT,
    ELEMENTARY, GENERAL, TOP, children, letter_names, parse_formula,
    render_formula, subformulas, validate_formula,
)
from clprover.prover import (
    _RULE_KEYS, WAIT, ChooseDisjunct, ChooseTerm, Logic, MatchPair,
    ProofFormatError, ProofNode, ProverConfig, apply_move, check_proof,
    enumerate_moves, fresh_wait_variable, prove, term_pool, _fresh_letter,
    _path_from_json, _term_from_json, wait_premises,
)
from clprover.qbf import (
    EXISTS, Qbf, StrategyNode, random_corpus, winning_strategy_tree,
)
from clprover.reduction import reduce_to_cl3, reduce_to_cl4


# ---------------------------------------------------------------------------
# truth tables for elementary formulas

def tt_atom_keys(f: Formula) -> list[tuple]:
    keys: list[tuple] = []

    def walk(g: Formula) -> None:
        if isinstance(g, Atom):
            key = (g.letter.name,) + tuple(
                t.name if isinstance(t, Variable) else t.value for t in g.args)
            if key not in keys:
                keys.append(key)
        for kid in children(g):
            walk(kid)

    walk(f)
    return keys


def tt_value(f: Formula, assignment: dict) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Atom):
        key = (f.letter.name,) + tuple(
            t.name if isinstance(t, Variable) else t.value for t in f.args)
        v = assignment[key]
        return not v if f.negated else v
    if isinstance(f, ParAnd):
        return all(tt_value(op, assignment) for op in f.operands)
    if isinstance(f, ParOr):
        return any(tt_value(op, assignment) for op in f.operands)
    raise ValueError(f"not elementary: {f!r}")


def tt_valid(f: Formula) -> bool:
    keys = tt_atom_keys(f)
    return all(tt_value(f, dict(zip(keys, bits)))
               for bits in itertools.product((False, True), repeat=len(keys)))


def oracle_elementarize(f: Formula) -> Formula:
    if isinstance(f, Atom):
        return BOT if f.letter.sort == GENERAL else f
    if isinstance(f, (ChoAnd, ChoAll)):
        return TOP
    if isinstance(f, (ChoOr, ChoEx)):
        return BOT
    if isinstance(f, (ParAnd, ParOr)):
        return with_children(f, tuple(oracle_elementarize(k) for k in f.operands))
    return f


def oracle_stable(f: Formula) -> bool:
    return tt_valid(oracle_elementarize(f))


# ---------------------------------------------------------------------------
# the surface, by a walk of its own

def ref_surface(f: Formula, types=object) -> list[tuple]:
    """(path, node) for every surface occurrence of one of types, in
    pre-order: the walk descends through /\\ and \\/ only."""
    out = []

    def walk(g, path):
        if isinstance(g, types):
            out.append((path, g))
        if isinstance(g, (ParAnd, ParOr)):
            for i, kid in enumerate(g.operands):
                walk(kid, path + (i,))

    walk(f, ())
    return out


def ref_surface_general_atoms(f: Formula) -> list[tuple]:
    return [(p, a) for p, a in ref_surface(f, Atom) if a.letter.sort == GENERAL]


# ---------------------------------------------------------------------------
# replacement and substitution by plain recursion

def with_children(f: Formula, new: tuple[Formula, ...]) -> Formula:
    """The compound node f with the children new."""
    if isinstance(f, (ChoAll, ChoEx)):
        (body,) = new
        return type(f)(f.var, body)
    return type(f)(tuple(new))


class RefPathError(FormulaError):
    """A path that ref_replace_at cannot follow."""


def ref_replace_at(f: Formula, path, sub: Formula, _depth: int = 0) -> Formula:
    """f with sub at path, every node on the path built anew."""
    if _depth == len(path):
        return sub
    kids = children(f)
    i = path[_depth]
    if not 0 <= i < len(kids):
        raise RefPathError(f"path {list(path)} does not address a subformula")
    return with_children(f, kids[:i] + (ref_replace_at(kids[i], path, sub, _depth + 1),)
                         + kids[i + 1:])


def ref_substitute(f: Formula, var: str, term) -> Formula:
    """f with term for every occurrence of var, after checking the binders
    first: var must not be bound in f, and a variable term must not be."""
    binders = _binders(f)
    if var in binders:
        raise SubstitutionError(f"variable {var} is bound in the formula")
    if isinstance(term, Variable) and term.name in binders:
        raise SubstitutionError(f"term variable {term.name} is bound in the formula")

    def walk(g):
        if isinstance(g, Atom):
            return Atom(g.letter, tuple(term if t == Variable(var) else t for t in g.args),
                        g.negated)
        kids = children(g)
        return with_children(g, tuple(walk(k) for k in kids)) if kids else g

    return walk(f)


# ---------------------------------------------------------------------------
# naive provability: every rule, every option, no memoization, no shortcuts

def _oracle_fresh_var(f: Formula) -> str:
    used = {t.name
            for _, g in _all_atoms(f)
            for t in g.args if isinstance(t, Variable)}
    used |= _binders(f)
    for i in itertools.count():
        name = f"w{i}"
        if name not in used:
            return name


def _all_atoms(f: Formula):
    out = []

    def walk(g, path):
        if isinstance(g, Atom):
            out.append((path, g))
        for i, kid in enumerate(children(g)):
            walk(kid, path + (i,))

    walk(f, ())
    return out


def _binders(f: Formula) -> set[str]:
    if isinstance(f, (ChoAll, ChoEx)):
        return {f.var} | _binders(f.body)
    return set().union(*(_binders(k) for k in children(f))) if children(f) else set()


def _oracle_fresh_letter(f: Formula, arity: int) -> LetterId:
    used = {g.letter.name for _, g in _all_atoms(f)}
    for i in itertools.count():
        name = f"m{i}"
        if name not in used:
            return LetterId(ELEMENTARY, name, arity)


def _oracle_wait_premises(f: Formula) -> list[Formula]:
    prems = []
    for path, occ in ref_surface(f, (ChoAnd, ChoAll)):
        if isinstance(occ, ChoAnd):
            prems.extend(ref_replace_at(f, path, op) for op in occ.operands)
        else:
            body = ref_substitute(occ.body, occ.var, Variable(_oracle_fresh_var(f)))
            prems.append(ref_replace_at(f, path, body))
    return prems


def _oracle_term_choices(f: Formula) -> list:
    consts = {t.value
              for _, g in _all_atoms(f)
              for t in g.args if isinstance(t, Constant)}
    free = {t.name
            for _, g in _all_atoms(f)
            for t in g.args if isinstance(t, Variable)} - _binders(f)
    fresh = list(itertools.islice(
        (c for c in itertools.count() if c not in consts), 2))
    return ([Constant(c) for c in sorted(consts) + fresh]
            + [Variable(v) for v in sorted(free)])


def _oracle_moves(f: Formula, logic: Logic) -> list[Formula]:
    """Every conclusion-to-premise step other than the waiting one."""
    out = []
    for path, occ in ref_surface(f, ChoOr):
        out.extend(ref_replace_at(f, path, op) for op in occ.operands)
    for path, occ in ref_surface(f, ChoEx):
        for t in _oracle_term_choices(f):
            out.append(ref_replace_at(f, path, ref_substitute(occ.body, occ.var, t)))
    if logic is Logic.CL4:
        gens = ref_surface_general_atoms(f)
        for (pp, pa), (np_, na) in itertools.product(gens, gens):
            if pa.negated or not na.negated or pa.letter != na.letter:
                continue
            fresh = _oracle_fresh_letter(f, pa.letter.arity)
            g = ref_replace_at(f, pp, Atom(fresh, pa.args))
            g = ref_replace_at(g, np_, Atom(fresh, na.args, negated=True))
            out.append(g)
    return out


def naive_provable(f: Formula, logic: Logic = Logic.CL4) -> bool:
    if oracle_stable(f) and all(naive_provable(p, logic)
                                for p in _oracle_wait_premises(f)):
        return True
    return any(naive_provable(g, logic) for g in _oracle_moves(f, logic))


def ref_moves(f: Formula, logic: Logic, fresh: int) -> list:
    """The unpruned moves of enumerate_moves in the logic, with a pool of
    `fresh` fresh constants, 1 or 2.  cl3 has no match rule, so its moves
    leave matches out.  With 2, each choose-term move on the pool's fresh
    constant is followed by one on the next natural that does not occur,
    where a pool of two fresh constants lists it."""
    assert fresh in (1, 2)
    moves = enumerate_moves(f)
    if logic is Logic.CL3:
        moves = [m for m in moves if not isinstance(m, MatchPair)]
    if fresh == 1:
        return moves
    pool = term_pool(f)
    first = pool[-1]
    taken = {t.value for t in pool if isinstance(t, Constant)}
    second = Constant(next(c for c in itertools.count() if c not in taken))
    out = []
    for m in moves:
        out.append(m)
        if isinstance(m, ChooseTerm) and m.term == first:
            out.append(ChooseTerm(m.path, second))
    return out


def ref_provable(f: Formula, logic: Logic, fresh: int) -> bool:
    """Provability by every rule of the package, with no shortcut and no
    pruning: f is provable when it is stable and all its wait premises are,
    or when the result of any move of ref_moves is.  Each state's verdict
    is memoized by its text, which keeps whole reduction images within
    reach; naive_provable, which has no memo, does not finish them."""
    memo: dict[str, bool] = {}

    def provable(g: Formula) -> bool:
        key = render_formula(g)
        verdict = memo.get(key)
        if verdict is None:
            verdict = (is_stable(g) and all(provable(p) for p in wait_premises(g))) \
                or any(provable(apply_move(g, m)) for m in ref_moves(g, logic, fresh))
            memo[key] = verdict
        return verdict

    return provable(f)


def ref_first_success_proof(f: Formula, logic: Logic, fresh: int):
    """The proof a first-success depth-first search finds: wait when f is
    stable and every wait premise is provable, or else the first move of the
    ref_moves order whose result is provable.  Verdicts come from
    naive_provable; there is no memo and no shortcut.  None when f is not
    provable."""

    def build(g: Formula) -> ProofNode:
        if oracle_stable(g):
            prems = wait_premises(g)
            if all(naive_provable(p, logic) for p in prems):
                return ProofNode(g, WAIT, tuple(build(p) for p in prems))
        for m in ref_moves(g, logic, fresh):
            h = apply_move(g, m)
            if naive_provable(h, logic):
                return ProofNode(g, m, (build(h),))
        raise AssertionError("a provable formula has no provable premise")

    return build(f) if naive_provable(f, logic) else None


# ---------------------------------------------------------------------------
# whole-tree walks that the cached formula summaries replaced

def ref_free_variables(f: Formula) -> set[str]:
    free: set[str] = set()

    def walk(node, bound):
        if isinstance(node, Atom):
            for t in node.args:
                if isinstance(t, Variable) and t.name not in bound:
                    free.add(t.name)
        elif isinstance(node, (ChoAll, ChoEx)):
            walk(node.body, bound | {node.var})
        else:
            for kid in children(node):
                walk(kid, bound)

    walk(f, frozenset())
    return free


def ref_bound_variables(f: Formula) -> set[str]:
    return {n.var for _, n in subformulas(f) if isinstance(n, (ChoAll, ChoEx))}


def ref_constants(f: Formula) -> set[int]:
    out: set[int] = set()
    for _, n in subformulas(f):
        if isinstance(n, Atom):
            out.update(t.value for t in n.args if isinstance(t, Constant))
    return out


def ref_letter_table(f: Formula) -> dict[tuple[str, str], int]:
    table: dict[tuple[str, str], int] = {}
    for _, n in subformulas(f):
        if isinstance(n, Atom):
            key = (n.letter.sort, n.letter.name)
            prev = table.setdefault(key, n.letter.arity)
            if prev != n.letter.arity:
                raise FormulaError(
                    f"letter {n.letter.name} used with arities {prev} and {n.letter.arity}")
    return table


def ref_has_choice(f: Formula) -> bool:
    return any(isinstance(n, (ChoAnd, ChoOr, ChoAll, ChoEx)) for _, n in subformulas(f))


def ref_has_general(f: Formula) -> bool:
    return any(isinstance(n, Atom) and n.letter.sort == GENERAL
               for _, n in subformulas(f))


def ref_measure(f: Formula) -> int:
    return sum(1 for _, n in subformulas(f)
               if isinstance(n, (ChoAnd, ChoOr, ChoAll, ChoEx))
               or (isinstance(n, Atom) and n.letter.sort == GENERAL))


def ref_match_moves(f: Formula) -> list[MatchPair]:
    """The match moves of f in search order, from a surface index of its own."""
    pos: dict[str, list] = {}
    neg: dict[str, list] = {}
    order: list[LetterId] = []
    seen: set[str] = set()
    for path, a in ref_surface_general_atoms(f):
        if a.letter.name not in seen:
            seen.add(a.letter.name)
            order.append(a.letter)
        (neg if a.negated else pos).setdefault(a.letter.name, []).append(path)
    moves = []
    for letter in order:
        pp = pos.get(letter.name, [])
        np_ = neg.get(letter.name, [])
        if pp and np_:
            fresh = _fresh_letter(letter, letter_names(f))
            moves.extend(MatchPair(p, n, fresh) for p in pp for n in np_)
    return moves


def ref_forced_match_move(f: Formula):
    total: dict[str, int] = {}
    for _, node in subformulas(f):
        if isinstance(node, Atom) and node.letter.sort == GENERAL:
            total[node.letter.name] = total.get(node.letter.name, 0) + 1
    pos: dict[str, tuple] = {}
    neg: dict[str, tuple] = {}
    order: list[LetterId] = []
    for path, a in ref_surface_general_atoms(f):
        if a.letter.name not in pos and a.letter.name not in neg:
            order.append(a.letter)
        (neg if a.negated else pos).setdefault(a.letter.name, path)
    for letter in order:
        if total[letter.name] == 2 and letter.name in pos and letter.name in neg:
            return MatchPair(pos[letter.name], neg[letter.name],
                             _fresh_letter(letter, letter_names(f)))
    return None


def ref_forced_batch(f: Formula) -> list[MatchPair]:
    """The forced matches of f, one reference forced match at a time."""
    moves = []
    move = ref_forced_match_move(f)
    while move is not None:
        moves.append(move)
        f = apply_move(f, move)
        move = ref_forced_match_move(f)
    return moves


def ref_first_match_move(f: Formula):
    pos: dict[str, tuple] = {}
    neg: dict[str, tuple] = {}
    order: list[LetterId] = []
    for path, a in ref_surface_general_atoms(f):
        if a.letter.name not in pos and a.letter.name not in neg:
            order.append(a.letter)
        (neg if a.negated else pos).setdefault(a.letter.name, path)
    target = next((L for L in order if L.name in pos and L.name in neg), None)
    if target is None:
        return None
    return MatchPair(pos[target.name], neg[target.name],
                     _fresh_letter(target, letter_names(f)))


def ref_match_all(f: Formula) -> tuple[Formula, list[MatchPair]]:
    """f after every canonical match, one move at a time, and the moves."""
    moves = []
    move = ref_first_match_move(f)
    while move is not None:
        moves.append(move)
        f = apply_move(f, move)
        move = ref_first_match_move(f)
    return f, moves


def ref_wait_premises(f: Formula) -> list[Formula]:
    """The wait premises of f, deduplicated by rendering each whole premise."""
    prems: list[Formula] = []
    seen: set[str] = set()

    def add(g: Formula) -> None:
        key = render_formula(g)
        if key not in seen:
            seen.add(key)
            prems.append(g)

    for path, node in ref_surface(f, (ChoAnd, ChoAll)):
        if isinstance(node, ChoAnd):
            for op in node.operands:
                add(ref_replace_at(f, path, op))
        else:
            w = Variable(fresh_wait_variable(f))
            add(ref_replace_at(f, path, ref_substitute(node.body, node.var, w)))
    return prems


# ---------------------------------------------------------------------------
# sentence values by folding a full assignment table

def table_qbf_value(q: Qbf) -> bool:
    names = [v for _, v in q.prefix]
    table = {}
    for bits in itertools.product((0, 1), repeat=len(names)):
        env = dict(zip(names, bits))
        table[bits] = all(
            any((env[lit.var] == 1) == lit.positive for lit in clause)
            for clause in q.matrix)

    def fold(prefix_bits: tuple) -> bool:
        i = len(prefix_bits)
        if i == len(names):
            return table[prefix_bits]
        a, b = fold(prefix_bits + (0,)), fold(prefix_bits + (1,))
        return (a or b) if q.prefix[i][0] is EXISTS else (a and b)

    return fold(())


def all_strategy_trees(n: int) -> list[StrategyNode]:
    """All Definition-shaped trees for an odd prefix length n (small n only)."""
    assert n % 2 == 1

    def at_level(level: int) -> list[StrategyNode]:
        if level == n:
            return [StrategyNode(0), StrategyNode(1)]
        out = []
        for label in (0, 1):
            for left in at_level(level + 2):
                for right in at_level(level + 2):
                    out.append(StrategyNode(label, (
                        StrategyNode(0, (left,)), StrategyNode(1, (right,)))))
        return out

    return at_level(1)


# ---------------------------------------------------------------------------
# random well-formed formulas

_ELEM_LETTERS = (("p", 0), ("q", 0), ("r", 1), ("s", 2), ("e", 1))
_GEN_LETTERS = (("P", 0), ("Q", 1), ("R", 1), ("S", 2))


def random_formula(rng: random.Random, budget: int = 6,
                   allow_general: bool = True, closed: bool = False) -> Formula:
    """A random valid formula.  A closed one has no free variable and no
    constant: its terms are bound variables, so atoms outside every
    quantifier are propositional."""
    binder_names = (f"u{i}" for i in itertools.count())

    def term(scope):
        if closed:
            return Variable(rng.choice(scope))
        r = rng.random()
        if scope and r < 0.55:
            return Variable(rng.choice(scope))
        if r < 0.7:
            return Variable(rng.choice(("x", "y")))
        return Constant(rng.randint(0, 2))

    def atom(scope):
        pick_general = allow_general and rng.random() < 0.45
        letters = _GEN_LETTERS if pick_general else _ELEM_LETTERS
        if closed and not scope:
            letters = tuple(L for L in letters if L[1] == 0)
        name, arity = rng.choice(letters)
        args = tuple(term(scope) for _ in range(arity))
        return Atom(LetterId.from_name(name, arity), args,
                    negated=rng.random() < 0.4)

    def build(b, scope):
        if b <= 1:
            r = rng.random()
            if r < 0.06:
                return TOP
            if r < 0.12:
                return BOT
            return atom(scope)
        kind = rng.choice(("par_and", "par_or", "par_or", "cho_and", "cho_or",
                           "cho_all", "cho_ex", "atom"))
        if kind == "atom":
            return atom(scope)
        if kind in ("cho_all", "cho_ex"):
            v = next(binder_names)
            node_cls = ChoAll if kind == "cho_all" else ChoEx
            return node_cls(v, build(b - 1, scope + (v,)))
        width = 2 if b < 5 else rng.choice((2, 2, 3))
        rem, parts = b - 1, []
        for i in range(width):
            share = max(1, rem // (width - i))
            parts.append(build(share, scope))
            rem -= share
        node_cls = {"par_and": ParAnd, "par_or": ParOr,
                    "cho_and": ChoAnd, "cho_or": ChoOr}[kind]
        return node_cls(tuple(parts))

    f = build(budget, ())
    validate_formula(f)
    return f


# ---------------------------------------------------------------------------
# deep formulas, built and compared without recursion

_DEEP_KINDS = {"par_and": ParAnd, "par_or": ParOr, "cho_and": ChoAnd,
               "cho_or": ChoOr, "cho_all": ChoAll, "cho_ex": ChoEx}


def _deep_leaf(rng: random.Random, scope: list[str]) -> Formula:
    r = rng.random()
    if r < 0.1:
        return TOP if r < 0.05 else BOT
    name, arity = rng.choice((("p", 0), ("q", 1), ("P", 1), ("Q", 2)))
    args = tuple(Variable(rng.choice(scope)) if scope and rng.random() < 0.6
                 else Constant(rng.randint(0, 2)) for _ in range(arity))
    return Atom(LetterId.from_name(name, arity), args, negated=rng.random() < 0.4)


def deep_formula(rng: random.Random, depth: int) -> Formula:
    """A valid formula with depth compound nodes on one spine: each wraps the
    next, beside one or two atoms.  The spine is drawn outside in, then
    assembled inside out."""
    scope: list[str] = []
    levels = []
    for i in range(depth):
        kind = rng.choice(tuple(_DEEP_KINDS))
        if kind in ("cho_all", "cho_ex"):
            scope.append(f"x{i}")
            levels.append((kind, scope[-1]))
        else:
            atoms = [_deep_leaf(rng, scope) for _ in range(rng.choice((1, 1, 2)))]
            levels.append((kind, atoms))
    f = _deep_leaf(rng, scope)
    for kind, extra in reversed(levels):
        if isinstance(extra, str):
            f = _DEEP_KINDS[kind](extra, f)
        else:
            at = rng.randint(0, len(extra))
            f = _DEEP_KINDS[kind](tuple(extra[:at] + [f] + extra[at:]))
    validate_formula(f)
    return f


def same_formula(f: Formula, g: Formula) -> bool:
    """Structural equality by an explicit stack, for formulas too deep for
    the recursive == of the nodes."""
    stack = [(f, g)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, Atom):
            if a != b:  # letter, arguments and sign: no nested formulas
                return False
        elif isinstance(a, (ChoAll, ChoEx)):
            if a.var != b.var:
                return False
            stack.append((a.body, b.body))
        else:
            ka, kb = children(a), children(b)
            if len(ka) != len(kb):
                return False
            stack.extend(zip(ka, kb))
    return True


# ---------------------------------------------------------------------------
# structural comparison up to general-letter names and associativity

def flatten_parallel(f: Formula) -> Formula:
    if isinstance(f, (ParAnd, ParOr)):
        ops = []
        for op in f.operands:
            op = flatten_parallel(op)
            if type(op) is type(f):
                ops.extend(op.operands)
            else:
                ops.append(op)
        return with_children(f, tuple(ops))
    kids = children(f)
    return with_children(f, tuple(flatten_parallel(k) for k in kids)) if kids else f


def equal_mod_general_letters(f: Formula, g: Formula, _map=None) -> bool:
    if _map is None:
        _map = {}
    if type(f) is not type(g):
        return False
    if isinstance(f, Atom):
        if f.negated != g.negated or f.args != g.args:
            return False
        if f.letter.sort == GENERAL:
            if g.letter.sort != GENERAL or f.letter.arity != g.letter.arity:
                return False
            if f.letter.name not in _map:
                if g.letter.name in _map.values():
                    return False
                _map[f.letter.name] = g.letter.name
            return _map[f.letter.name] == g.letter.name
        return f.letter == g.letter
    if isinstance(f, (ChoAll, ChoEx)):
        return f.var == g.var and equal_mod_general_letters(f.body, g.body, _map)
    fk, gk = children(f), children(g)
    return len(fk) == len(gk) and all(
        equal_mod_general_letters(a, b, _map) for a, b in zip(fk, gk))


# ---------------------------------------------------------------------------
# proof artifacts: the golden corpus, and the readers and the canonical pass
# as first written

@functools.lru_cache(maxsize=None)
def golden_proofs() -> tuple[tuple[Qbf, str, ProofNode], ...]:
    """(sentence, "cl4" | "cl3" | "bridge", proof) for the proofs of the
    corpus tests/test_golden.py pins, the missing ones left out."""
    out = []
    for q in random_corpus(20, seed=2024, prefix_lengths=(1, 3, 5),
                           max_clauses=4, min_clauses=2):
        tree = winning_strategy_tree(q)
        for kind, p in (
                ("cl4", prove(reduce_to_cl4(q))),
                ("cl3", prove(reduce_to_cl3(q), ProverConfig(logic=Logic.CL3))),
                ("bridge", strategy_to_proof(q, tree) if tree else None)):
            if p is not None:
                out.append((q, kind, p))
    return tuple(out)


def _ref_proof_from_dict(d) -> ProofNode:
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
    try:
        f = parse_formula(d["formula"])
    except FormulaError as e:
        raise ProofFormatError(f"bad formula: {e}") from None
    if rule_name == "wait":
        rule = WAIT
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
    return ProofNode(f, rule, tuple(_ref_proof_from_dict(p) for p in d["premises"]))


def ref_proof_from_json(text: str) -> ProofNode:
    """The proof JSON reader that parses every conclusion."""
    try:
        data = json.loads(text)
    except ValueError as e:
        raise ProofFormatError(f"not valid JSON: {e}") from None
    return _ref_proof_from_dict(data)


def ref_canonical(proof: ProofNode):
    """The canonical pass that checks first: check the input, read its
    decisions, replay them, and check a replay that differs.  Returns the
    decisions and the proof itself when it equals its replay, or else the
    replay."""
    res = check_proof(proof)
    if not res:
        raise BridgeError(f"input proof does not check: {res.diagnostics[0]}")
    dec = _extract(proof)
    out = _replay(proof.conclusion, dec)
    if out == proof:
        return dec, proof
    res = check_proof(out)
    if not res:
        raise BridgeError(f"canonical replay does not check: {res.diagnostics[0]}")
    return dec, out
