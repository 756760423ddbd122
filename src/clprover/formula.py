"""Formula language for the choice-connective fragment.

Atoms come in two sorts, elementary (lowercase letters) and general
(uppercase letters), applied to terms.  Negation is only ever attached to
atoms.  Above the literals sit the parallel connectives /\\ and \\/, the
choice connectives cand and cor, and the choice quantifiers call x: and
cex x:.  A subformula occurrence is "surface" when the path to it passes
through parallel connectives only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional, Union


class FormulaError(Exception):
    """Malformed formula (bad letter, arity clash, variable misuse...)."""


class ParseError(FormulaError):
    """Syntax error; message carries a character position."""


class SubstitutionError(FormulaError):
    """Substitution would touch or capture a bound variable."""


ELEMENTARY = "elementary"
GENERAL = "general"

Path = tuple[int, ...]

_VAR_RE = re.compile(r"[xyzuvw][0-9]*\Z")
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_KEYWORDS = frozenset({"call", "cex", "cand", "cor", "T", "F"})


def is_variable_name(name: str) -> bool:
    return bool(_VAR_RE.match(name))


def is_letter_name(name: str) -> bool:
    """Valid predicate-letter name: identifier, not a variable, not reserved."""
    return bool(_NAME_RE.match(name)) and not is_variable_name(name) and name not in _KEYWORDS


@dataclass(frozen=True, slots=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Constant:
    value: int

    def __str__(self) -> str:
        return str(self.value)


Term = Union[Variable, Constant]


@dataclass(frozen=True, slots=True)
class LetterId:
    sort: str  # ELEMENTARY or GENERAL
    name: str
    arity: int

    @staticmethod
    def from_name(name: str, arity: int) -> "LetterId":
        sort = GENERAL if name[:1].isupper() else ELEMENTARY
        return LetterId(sort, name, arity)


class Formula:
    """Base class; all nodes are immutable and compare structurally.

    Equality and hashing walk the tree without recursion, so formulas of any
    depth compare.  Two extra slots take no part in equality or hashing:
    _facts holds the node's Facts once a query or a rule has given them,
    and _valid is set once the node is known to pass validate_formula.
    """

    __slots__ = ("_facts", "_valid")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return _same(self, other)

    def __hash__(self) -> int:
        # equal formulas render alike
        return hash(render_formula(self))

    def __str__(self) -> str:
        return render_formula(self)

    def __repr__(self) -> str:
        return render_formula(self)


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class Top(Formula):
    pass


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class Bot(Formula):
    pass


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class Atom(Formula):
    letter: LetterId
    args: tuple[Term, ...] = ()
    negated: bool = False


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class ParAnd(Formula):
    operands: tuple[Formula, ...]


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class ParOr(Formula):
    operands: tuple[Formula, ...]


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class ChoAnd(Formula):
    operands: tuple[Formula, ...]


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class ChoOr(Formula):
    operands: tuple[Formula, ...]


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class ChoAll(Formula):
    var: str
    body: Formula


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class ChoEx(Formula):
    var: str
    body: Formula


TOP = Top()
BOT = Bot()

_NARY = (ParAnd, ParOr, ChoAnd, ChoOr)
_QUANT = (ChoAll, ChoEx)
_PARALLEL = (ParAnd, ParOr)


# ---------------------------------------------------------------------------
# structure walking

def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, _NARY):
        return f.operands
    if isinstance(f, _QUANT):
        return (f.body,)
    return ()


def _same(f: Formula, g: Formula) -> bool:
    """Structural equality by an explicit stack.  Identical subtrees, which a
    derived formula shares with the one it came from, are not walked."""
    stack = [(f, g)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        kind = type(a)
        if kind is not type(b):
            return False
        if kind is Atom:
            if a.negated != b.negated or a.letter != b.letter or a.args != b.args:
                return False
        elif kind in _NARY:
            if len(a.operands) != len(b.operands):
                return False
            stack.extend(zip(a.operands, b.operands))
        elif kind in _QUANT:
            if a.var != b.var:
                return False
            stack.append((a.body, b.body))
        elif kind is not Top and kind is not Bot:
            return False  # not a formula node, and not the same object
    return True


def subformulas(f: Formula) -> Iterator[tuple[Path, Formula]]:
    """All subformula occurrences, pre-order, with their paths."""
    stack = [((), f)]
    while stack:
        path, node = stack.pop()
        yield path, node
        kids = children(node)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((path + (i,), kids[i]))


def rebuild_spine(nodes: list[Formula], path: Path, sub: Formula, depth: int,
                  top: int = 0) -> Formula:
    """nodes[top] rebuilt with sub in place of nodes[depth], where each
    nodes[k + 1] is child path[k] of nodes[k].  Only the nodes between the
    two are new; every subtree off the path is shared."""
    for k in range(depth - 1, top - 1, -1):
        node, i = nodes[k], path[k]
        if isinstance(node, _QUANT):
            sub = type(node)(node.var, sub)
        else:
            ops = node.operands
            sub = type(node)(ops[:i] + (sub,) + ops[i + 1:])
    return sub


# ---------------------------------------------------------------------------
# queries

class Facts:
    """Whole-formula summary, filled by one pre-order walk on first use, or
    derived by a rule from the summary of the formula it came from.

    letters holds the first LetterId met for each (sort, name), in
    first-occurrence order, and counts the occurrences of each; clash is the
    message for the first arity clash, or None.  bound, free and consts are
    the bound variables, free variables and constants, as tuples without
    repeats.  choices counts choice operators and generals general-atom
    occurrences.  Every field is filled; validity is a flag of the node's
    own.  Nodes are immutable, so a summary never goes stale.
    """

    __slots__ = ("letters", "counts", "clash", "bound", "free", "consts",
                 "choices", "generals")

    def __init__(self, f: Formula):
        letters: dict[tuple[str, str], LetterId] = {}
        counts: dict[tuple[str, str], int] = {}
        clash = None
        bound: set[str] = set()
        free: set[str] = set()
        consts: set[int] = set()
        choices = generals = 0
        stack: list[tuple[Formula, frozenset]] = [(f, frozenset())]
        while stack:
            node, scope = stack.pop()
            if isinstance(node, Atom):
                lid = node.letter
                key = (lid.sort, lid.name)
                first = letters.setdefault(key, lid)
                counts[key] = counts.get(key, 0) + 1
                if first.arity != lid.arity and clash is None:
                    clash = (f"letter {lid.name} used with arities "
                             f"{first.arity} and {lid.arity}")
                if lid.sort == GENERAL:
                    generals += 1
                for t in node.args:
                    if isinstance(t, Variable):
                        if t.name not in scope:
                            free.add(t.name)
                    elif isinstance(t, Constant):
                        consts.add(t.value)
            elif isinstance(node, _NARY):
                if not isinstance(node, _PARALLEL):
                    choices += 1
                ops = node.operands
                for i in range(len(ops) - 1, -1, -1):
                    stack.append((ops[i], scope))
            elif isinstance(node, _QUANT):
                choices += 1
                bound.add(node.var)
                stack.append((node.body, scope | {node.var}))
        self.letters = tuple(letters.values())
        self.counts = tuple(counts.values())
        self.clash = clash
        self.bound = tuple(bound)
        self.free = tuple(free)
        self.consts = tuple(consts)
        self.choices = choices
        self.generals = generals

    def _copy(self) -> Facts:
        s = Facts.__new__(Facts)
        s.letters, s.counts, s.clash = self.letters, self.counts, self.clash
        s.bound, s.free, s.consts = self.bound, self.free, self.consts
        s.choices, s.generals = self.choices, self.generals
        return s

    def chosen(self, var: str, term: Term, occurs: bool) -> Facts:
        """The summary after a choice quantifier on var gives way to its body
        on term; occurs tells whether var occurred in the body.  Binders are
        unique in a valid formula, so var goes from bound and the term joins
        free or consts only where it replaced var.  The caller has checked
        that the term is a natural or a variable not bound in the formula."""
        s = self._copy()
        s.bound = tuple(v for v in self.bound if v != var)
        if occurs:
            if isinstance(term, Constant):
                if term.value not in self.consts:
                    s.consts = self.consts + (term.value,)
            elif term.name not in self.free:
                s.free = self.free + (term.name,)
        s.choices -= 1
        return s

    def matched(self, letter: LetterId, fresh: LetterId) -> Optional[Facts]:
        """The summary after the two occurrences of a general letter are
        matched into the fresh letter, which takes the letter's place in
        first-occurrence order.  None unless the letter occurs exactly
        twice: a letter that keeps occurrences may move in that order."""
        for i, lid in enumerate(self.letters):
            if lid.name == letter.name and lid.sort == GENERAL:
                if self.counts[i] != 2:
                    return None
                s = self._copy()
                s.letters = self.letters[:i] + (fresh,) + self.letters[i + 1:]
                s.generals -= 2
                return s
        return None


def facts(f: Formula) -> Facts:
    try:
        return f._facts
    except AttributeError:
        s = Facts(f)
        object.__setattr__(f, "_facts", s)
        return s


def known_facts(f: Formula) -> Optional[Facts]:
    """The summary f carries without a walk, walked or derived, or None."""
    return getattr(f, "_facts", None)


def known_valid(f: Formula) -> bool:
    """Whether f is known to pass validate_formula, by a check or a rule."""
    return getattr(f, "_valid", False)


def carry_facts(f: Formula, s: Facts) -> None:
    """Give f a summary derived by a rule, unless it already has one (a
    derived formula may be a subtree its parent shares)."""
    if not hasattr(f, "_facts"):
        object.__setattr__(f, "_facts", s)


def carry_validity(parent: Formula, f: Formula) -> None:
    """Mark f, which a rule derived from parent, valid when parent is known
    to be valid."""
    if known_valid(parent):
        object.__setattr__(f, "_valid", True)


def free_variables(f: Formula) -> set[str]:
    return set(facts(f).free)


def bound_variables(f: Formula) -> set[str]:
    return set(facts(f).bound)


def constants(f: Formula) -> set[int]:
    return set(facts(f).consts)


def letter_table(f: Formula) -> dict[tuple[str, str], int]:
    """Map (sort, name) -> arity for every letter occurring in f."""
    s = facts(f)
    if s.clash:
        raise FormulaError(s.clash)
    return {(lid.sort, lid.name): lid.arity for lid in s.letters}


def letter_names(f: Formula) -> set[str]:
    return {name for _, name in letter_table(f)}


def has_general(f: Formula) -> bool:
    return facts(f).generals > 0


# ---------------------------------------------------------------------------
# substitution

def substitute_var(f: Formula, var: str, term: Term) -> Formula:
    """Replace every free occurrence of var by term.

    Raises SubstitutionError if var is bound somewhere in f, or else if term
    is a variable that is bound somewhere in f (which would capture it).  The
    walk that substitutes reads the binders too.  It takes one frame per
    level and plain loops, and copies an operand tuple only when an operand
    changed, so every subtree where var does not occur comes back as the
    very object given.
    """
    captor = term.name if isinstance(term, Variable) else None
    captured = False

    def walk(node):
        nonlocal captured
        kind = type(node)
        if kind is Atom:
            args = node.args
            for t in args:
                if t.__class__ is Variable and t.name == var:
                    return Atom(node.letter, tuple([
                        term if a.__class__ is Variable and a.name == var else a
                        for a in args]), node.negated)
            return node
        if kind in _QUANT:
            if node.var == var:
                raise SubstitutionError(f"variable {var} is bound in the formula")
            if node.var == captor:
                captured = True  # reported once the walk has found no binder of var
            body = walk(node.body)
            return node if body is node.body else kind(node.var, body)
        if kind in _NARY:
            ops = node.operands
            new = None
            for i in range(len(ops)):
                op = walk(ops[i])
                if op is not ops[i]:
                    if new is None:
                        new = list(ops)
                    new[i] = op
            return node if new is None else kind(tuple(new))
        return node

    out = walk(f)
    if captured:
        raise SubstitutionError(f"term variable {captor} is bound in the formula")
    return out


# ---------------------------------------------------------------------------
# validation

def validate_formula(f: Formula) -> None:
    """Check the structural invariants; raise FormulaError on the first hit.

    Letters must have well-formed names whose case agrees with their sort and
    a consistent arity.  Constants are naturals.  N-ary connectives have at
    least two operands.  No variable is bound twice or both free and bound.
    A node that passed once is not walked again.
    """
    if known_valid(f):
        return
    binders: set[str] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, (Top, Bot)):
            continue
        if isinstance(node, Atom):
            lid = node.letter
            if not is_letter_name(lid.name):
                raise FormulaError(f"invalid letter name {lid.name!r}")
            expected = GENERAL if lid.name[:1].isupper() else ELEMENTARY
            if lid.sort != expected:
                raise FormulaError(f"letter {lid.name} has sort {lid.sort}")
            if lid.arity != len(node.args):
                raise FormulaError(f"letter {lid.name} arity {lid.arity} != {len(node.args)} args")
            for t in node.args:
                if isinstance(t, Constant):
                    if t.value < 0:
                        raise FormulaError(f"constant {t.value} is not a natural number")
                elif isinstance(t, Variable):
                    if not is_variable_name(t.name):
                        raise FormulaError(f"invalid variable name {t.name!r}")
                else:
                    raise FormulaError(f"bad term {t!r}")
        elif isinstance(node, _NARY):
            if len(node.operands) < 2:
                raise FormulaError(f"{type(node).__name__} needs at least two operands")
            stack.extend(reversed(node.operands))
        elif isinstance(node, _QUANT):
            if not is_variable_name(node.var):
                raise FormulaError(f"invalid variable name {node.var!r}")
            if node.var in binders:
                raise FormulaError(f"variable {node.var} is bound twice")
            binders.add(node.var)
            stack.append(node.body)
        else:
            raise FormulaError(f"not a formula node: {node!r}")
    s = facts(f)
    if s.clash:  # arity consistency across occurrences
        raise FormulaError(s.clash)
    clash = set(s.free).intersection(s.bound)
    if clash:
        raise FormulaError(f"variable {sorted(clash)[0]} is both free and bound")
    object.__setattr__(f, "_valid", True)


# ---------------------------------------------------------------------------
# rendering

class _Text(str):
    """Literal output queued by render_formula beside the nodes to render."""
    __slots__ = ()


_PAR_SEPS = {cls: _Text(sep) for cls, sep in (
    (ParAnd, " /\\ "), (ParOr, " \\/ "), (ChoAnd, " cand "), (ChoOr, " cor "))}
_QUANT_KW = {ChoAll: "call", ChoEx: "cex"}
_COMPOUND = frozenset(_NARY + _QUANT)
_OPEN, _CLOSE = _Text("("), _Text(")")


class _End(tuple):
    """(node, start) queued below a compound node's parts when render_formula
    memoizes: popped once out[start:] holds the node's whole text."""
    __slots__ = ()


def render_formula(f: Formula, texts: Optional[dict] = None) -> str:
    """Canonical ASCII text; parse_formula is its inverse.

    texts, when given, maps id(node) to (node, text) for compound nodes: a
    node found there is written from its text, and every compound node
    rendered here is added.  Each entry holds its node, so no other node can
    take its id while the dict lives.  A caller makes one dict for one walk
    over formulas that share subtrees, such as the conclusions of a proof,
    and drops it when the walk ends."""
    out: list[str] = []
    stack: list = [f]  # nodes still to render, and _Text to emit
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is _Text:
            out.append(node)
        elif kind is Atom:
            if node.negated:
                out.append("~")
            out.append(node.letter.name)
            if node.args:
                out.append("(" + ", ".join([str(t) for t in node.args]) + ")")
        elif kind in _COMPOUND:
            if texts is not None:
                hit = texts.get(id(node))
                if hit is not None:
                    out.append(hit[1])
                    continue
                stack.append(_End((node, len(out))))
            if kind in _QUANT_KW:
                out.append(f"{_QUANT_KW[kind]} {node.var}: ")
                stack.append(node.body)
                continue
            sep = _PAR_SEPS[kind]
            ops = node.operands
            for i in range(len(ops) - 1, -1, -1):
                # compound operands are parenthesized so chains never
                # re-associate and a quantifier body never swallows the rest
                # of the chain
                if type(ops[i]) in _COMPOUND:
                    stack.extend((_CLOSE, ops[i], _OPEN))
                else:
                    stack.append(ops[i])
                if i:
                    stack.append(sep)
        elif kind is _End:
            node, start = node
            text = "".join(out[start:])
            out[start:] = (text,)
            texts[id(node)] = (node, text)
        elif kind is Top:
            out.append("T")
        elif kind is Bot:
            out.append("F")
        else:
            raise FormulaError(f"not a formula node: {node!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<paror>\\/|∨)
      | (?P<parand>/\\|∧)
      | (?P<choor>⊔)
      | (?P<choand>⊓)
      | (?P<top>⊤)
      | (?P<bot>⊥)
      | (?P<tilde>~|¬)
      | (?P<lpar>\()
      | (?P<rpar>\))
      | (?P<colon>:)
      | (?P<comma>,)
      | (?P<nat>[0-9]+)
      | (?P<word>[A-Za-z][A-Za-z0-9_]*)
      | (?P<eof>\Z)
      | (?P<bad>.))
    """,
    re.VERBOSE | re.DOTALL,
)

_WORD_TOKENS = {"cand": "choand", "cor": "choor", "call": "call", "cex": "cex",
                "T": "top", "F": "bot"}
_CHAIN_LEVEL = {"parand": 2, "choand": 2, "paror": 1, "choor": 1}
_CHAIN_CLS = {"parand": ParAnd, "choand": ChoAnd, "paror": ParOr, "choor": ChoOr}
_QUANT_CLS = {"call": ChoAll, "cex": ChoEx, "choand": ChoAll, "choor": ChoEx}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):  # the last match is the empty eof
        kind = m.lastgroup
        value, pos = m.group(kind), m.start(kind)
        if kind == "word":
            kind = _WORD_TOKENS.get(value, "var" if is_variable_name(value) else "letter")
        elif kind == "bad":
            raise ParseError(f"unexpected character {value!r} at position {pos}")
        tokens.append((kind, value, pos))
    # enough end tokens that looking two past any token stays in the list
    tokens += tokens[-1:] * 2
    return tokens


def _expect(tok: tuple[str, str, int], kind: str) -> None:
    if tok[0] != kind:
        raise ParseError(f"expected {kind}, found {tok[1] or 'end of input'!r} "
                         f"at position {tok[2]}")


def parse_formula(text: str) -> Formula:
    """Parse the ASCII/Unicode surface syntax into a validated formula.

    One loop reads the units left to right.  The whole input, each open
    parenthesis and each quantifier body is a frame on an explicit stack
    holding a disjunction chain and a conjunction chain, each [operator
    kind or None, operands...], so nesting costs no recursion.  /\\ binds
    tighter than \\/, and one chain never mixes its choice and parallel
    operators.  A quantifier body extends as far right as possible: its
    frame closes where its parent's frame closes.
    """
    tokens = _tokenize(text)
    i = 0
    frames: list[list] = [[None, [None], [None]]]  # [head, disjunction, conjunction]
    while True:
        # read one unit, opening frames for parentheses and quantifiers
        kind, value, pos = tokens[i]
        i += 1
        if kind == "letter" or kind == "tilde":
            negated = kind == "tilde"
            if negated:
                kind, value, pos = tokens[i]
                if kind != "letter":
                    raise ParseError(f"negation applies only to atoms at position {pos}")
                i += 1
            args: list[Term] = []
            if tokens[i][0] == "lpar":
                while True:
                    tkind, tvalue, tpos = tokens[i + 1]
                    if tkind == "var":
                        args.append(Variable(tvalue))
                    elif tkind == "nat":
                        if len(tvalue) > 1 and tvalue[0] == "0":
                            raise ParseError(f"leading zero in constant at position {tpos}")
                        args.append(Constant(int(tvalue)))
                    else:
                        raise ParseError(f"expected a term, found "
                                         f"{tvalue or 'end of input'!r} at position {tpos}")
                    i += 2
                    if tokens[i][0] != "comma":
                        break
                _expect(tokens[i], "rpar")
                i += 1
            node = Atom(LetterId.from_name(value, len(args)), tuple(args), negated)
        elif kind == "top":
            node = TOP
        elif kind == "bot":
            node = BOT
        elif kind == "lpar":
            frames.append(["(", [None], [None]])
            continue
        elif kind == "call" or kind == "cex" or (
                kind in _QUANT_CLS and tokens[i][0] == "var" and tokens[i + 1][0] == "colon"):
            _expect(tokens[i], "var")
            _expect(tokens[i + 1], "colon")
            frames.append([(_QUANT_CLS[kind], tokens[i][1]), [None], [None]])
            i += 2
            continue
        elif kind == "var":
            raise ParseError(f"variable {value!r} cannot be used as an atom "
                             f"at position {pos}")
        else:
            raise ParseError(f"expected a formula, found {value or 'end of input'!r} "
                             f"at position {pos}")

        # add the unit to the innermost conjunction; close chains and frames
        # until an operator continues one
        while True:
            frame = frames[-1]
            kind, value, pos = tokens[i]
            for level in (2, 1):  # the conjunction chain, then the disjunction chain
                chain = frame[level]
                chain.append(node)
                if _CHAIN_LEVEL.get(kind) == level:
                    if chain[0] is None:
                        chain[0] = kind
                    elif chain[0] != kind:
                        raise ParseError(f"cannot mix {value!r} into this chain without "
                                         f"parentheses at position {pos}")
                    break
                node = chain[1] if len(chain) == 2 else _CHAIN_CLS[chain[0]](tuple(chain[1:]))
                frame[level] = [None]
            else:
                head = frame[0]
                if head is None:
                    _expect(tokens[i], "eof")
                    validate_formula(node)
                    return node
                frames.pop()
                if head == "(":
                    _expect(tokens[i], "rpar")
                    i += 1
                else:
                    node = head[0](head[1], node)
                continue
            i += 1
            break
