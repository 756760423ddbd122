"""Prenex 3-CNF sentences with strictly alternating quantifiers and their
game semantics.

A sentence here always starts and ends with an existential quantifier (so
the prefix length is odd) and every clause has exactly three literals,
repetition allowed.  Evaluation is the usual two-player reading: the
verifier picks existential values, the falsifier universal ones, moving
outside in.  A strategy tree records the verifier's play against every
falsifier line: nodes at odd levels carry the verifier's bit and have both
falsifier replies as children, nodes at even levels carry the falsifier's
bit and a single continuation.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .formula import is_variable_name
from .prover import CheckResult, json_text


class QbfError(Exception):
    pass


class QbfParseError(QbfError):
    pass


class StrategyFormatError(QbfError):
    pass


class Quantifier(str, Enum):
    EXISTS = "exists"
    FORALL = "forall"


EXISTS = Quantifier.EXISTS
FORALL = Quantifier.FORALL


@dataclass(frozen=True, slots=True)
class Lit:
    var: str
    positive: bool

    def __str__(self) -> str:
        return self.var if self.positive else "-" + self.var


Clause = tuple[Lit, Lit, Lit]


@dataclass(frozen=True, slots=True)
class Qbf:
    prefix: tuple[tuple[Quantifier, str], ...]
    matrix: tuple[Clause, ...]


@dataclass(frozen=True)
class StrategyNode:
    label: int
    children: tuple["StrategyNode", ...] = ()


def validate_qbf(q: Qbf) -> None:
    if not q.prefix:
        raise QbfError("prefix is empty")
    if len(q.prefix) % 2 == 0:
        raise QbfError("prefix length must be odd")
    seen: set[str] = set()
    for i, (quant, var) in enumerate(q.prefix):
        want = EXISTS if i % 2 == 0 else FORALL
        if quant is not want:
            raise QbfError(f"prefix position {i + 1} must be {want.value}")
        if not is_variable_name(var):
            raise QbfError(f"invalid variable name {var!r}")
        if var in seen:
            raise QbfError(f"variable {var} is quantified twice")
        seen.add(var)
    for ci, clause in enumerate(q.matrix):
        if len(clause) != 3:
            raise QbfError(f"clause {ci + 1} has {len(clause)} literals, not 3")
        for lit in clause:
            if lit.var not in seen:
                raise QbfError(f"clause {ci + 1} uses unquantified variable {lit.var}")


# ---------------------------------------------------------------------------
# evaluation and plays

def _matrix_value(q: Qbf, env: dict) -> bool:
    return all(any(env[lit.var] == lit.positive for lit in clause)
               for clause in q.matrix)


def eval_qbf(q: Qbf) -> bool:
    return winning_strategy_tree(q) is not None


def play_path(q: Qbf, labels: Sequence[int]) -> bool:
    """Outcome of one complete play: labels assign the prefix variables in
    order, and the verifier wins when the matrix comes out true."""
    validate_qbf(q)
    if len(labels) != len(q.prefix):
        raise QbfError(f"play has {len(labels)} moves for {len(q.prefix)} quantifiers")
    if any(v not in (0, 1) for v in labels):
        raise QbfError("play labels must be 0 or 1")
    env = {var: bool(v) for (_, var), v in zip(q.prefix, labels)}
    return _matrix_value(q, env)


# ---------------------------------------------------------------------------
# strategy trees

def winning_strategy_tree(q: Qbf) -> Optional[StrategyNode]:
    """A winning verifier strategy, or None when the sentence is false.  The
    verifier always plays the smaller winning bit."""
    validate_qbf(q)
    return _win(q, 0, {})


def _win(q: Qbf, i: int, env: dict) -> Optional[StrategyNode]:
    """The verifier's winning subtree from the existential at prefix
    position i, or None when the falsifier wins there.  Bit 0 is tried
    before bit 1, and a bit is dropped at the first falsifier reply that
    beats it, so no subgame is played twice."""
    var = q.prefix[i][1]
    for label in (0, 1):
        here = {**env, var: bool(label)}
        if i + 1 == len(q.prefix):
            if _matrix_value(q, here):
                return StrategyNode(label)
            continue
        fvar = q.prefix[i + 1][1]
        kids = []
        for a in (0, 1):
            sub = _win(q, i + 2, {**here, fvar: bool(a)})
            if sub is None:
                break
            kids.append(StrategyNode(a, (sub,)))
        else:
            return StrategyNode(label, tuple(kids))
    return None


def check_strategy_tree(q: Qbf, root: StrategyNode) -> CheckResult:
    """Shape and outcome check: leaves exactly at the prefix depth, odd
    levels branch in two, even levels in one, falsifier labels run 0 then 1
    under each node, and every complete play is won."""
    validate_qbf(q)
    n = len(q.prefix)
    diags: list[str] = []

    def visit(node: StrategyNode, level: int, where: str, labels: tuple) -> None:
        if not isinstance(node, StrategyNode):
            diags.append(f"{where}: not a strategy node")
            return
        if node.label not in (0, 1):
            diags.append(f"{where}: label {node.label!r} is not 0 or 1")
            return
        labels = labels + (node.label,)
        if level == n:
            if node.children:
                diags.append(f"{where}: node at level {n} must be a leaf")
            elif not _matrix_value(q, {v: b for (_, v), b in zip(q.prefix, labels)}):
                diags.append(f"{where}: losing play {list(labels)}")
            return
        if level % 2 == 1:
            if len(node.children) != 2:
                diags.append(f"{where}: odd level needs two children")
                return
            for a, kid in enumerate(node.children):
                if isinstance(kid, StrategyNode) and kid.label != a:
                    diags.append(f"{where}.{a}: falsifier labels must "
                                 f"alternate 0 then 1")
                visit(kid, level + 1, f"{where}.{a}", labels)
        else:
            if len(node.children) != 1:
                diags.append(f"{where}: even level needs one child")
                return
            visit(node.children[0], level + 1, f"{where}.0", labels)

    visit(root, 1, "root", ())
    return CheckResult(not diags, diags)


def strategy_to_dict(node: StrategyNode) -> dict:
    return {"label": node.label,
            "children": [strategy_to_dict(c) for c in node.children]}


def strategy_from_dict(d) -> StrategyNode:
    if not isinstance(d, dict) or set(d) != {"label", "children"}:
        raise StrategyFormatError("strategy node must be {label, children}")
    if not isinstance(d["label"], int) or isinstance(d["label"], bool):
        raise StrategyFormatError("label must be an integer")
    if not isinstance(d["children"], list):
        raise StrategyFormatError("children must be a list")
    return StrategyNode(d["label"],
                        tuple(strategy_from_dict(c) for c in d["children"]))


def strategy_to_json(node: StrategyNode) -> str:
    return json_text(strategy_to_dict(node))


def strategy_from_json(text: str) -> StrategyNode:
    try:
        data = json.loads(text)
    except ValueError as e:
        raise StrategyFormatError(f"not valid JSON: {e}") from None
    return strategy_from_dict(data)


# ---------------------------------------------------------------------------
# normalization

def _fresh_names(series: list[str], used: set[str]) -> Iterable[str]:
    for name in series:
        if name not in used:
            yield name
    for k in itertools.count():
        for head in series:
            name = f"{head}{k}"
            if name not in used:
                yield name


def normalize_qbf(prefix: Sequence[tuple[Quantifier, str]],
                  matrix: Sequence[Sequence[Lit]]) -> Qbf:
    """Repair a raw prefix/matrix pair into the required shape.

    Clauses of one or two literals are padded by repeating their last
    literal.  A prefix that starts universally gets a dummy existential in
    front; runs of equal quantifiers get dummies interleaved; a universal
    ending gets a dummy existential appended.  Dummy variables are unused,
    so truth is preserved.  Unquantified matrix variables, empty clauses and
    clauses beyond three literals are errors, not repairs.
    """
    names = [var for _, var in prefix]
    for var in names:
        if not is_variable_name(var):
            raise QbfError(f"invalid variable name {var!r}")
    if len(set(names)) != len(names):
        raise QbfError("a variable is quantified twice")
    declared = set(names)
    fixed_matrix: list[Clause] = []
    for ci, clause in enumerate(matrix):
        lits = tuple(clause)
        if not 1 <= len(lits) <= 3:
            raise QbfError(f"clause {ci + 1} has {len(lits)} literals")
        for lit in lits:
            if lit.var not in declared:
                raise QbfError(f"clause {ci + 1} uses unquantified variable {lit.var}")
        lits = lits + (lits[-1],) * (3 - len(lits))
        fixed_matrix.append(lits)

    used = set(declared)
    front = _fresh_names(["u"], used)
    rest = _fresh_names(["w"], used)
    out: list[tuple[Quantifier, str]] = []
    for quant, var in prefix:
        if not out:
            if quant is FORALL:
                name = next(front)
                used.add(name)
                out.append((EXISTS, name))
        elif out[-1][0] is quant:
            name = next(rest)
            used.add(name)
            out.append((FORALL if quant is EXISTS else EXISTS, name))
        out.append((quant, var))
    if not out or out[-1][0] is FORALL:
        series = front if not out else rest
        name = next(series)
        used.add(name)
        out.append((EXISTS, name))

    q = Qbf(tuple(out), tuple(fixed_matrix))
    validate_qbf(q)
    return q


# ---------------------------------------------------------------------------
# parsing and rendering

_TEXT_TOKEN_RE = re.compile(
    r"\s+|(?P<word>[A-Za-z][A-Za-z0-9_]*)|(?P<punct>[():&|])|(?P<neg>[-~])")


def _parse_textual(text: str) -> tuple[list, list]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TEXT_TOKEN_RE.match(text, pos)
        if not m:
            raise QbfParseError(f"unexpected character {text[pos]!r} at position {pos}")
        if m.lastgroup == "word":
            tokens.append(("word", m.group(), pos))
        elif m.lastgroup == "punct":
            tokens.append((m.group(), m.group(), pos))
        elif m.lastgroup == "neg":
            tokens.append(("-", m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))

    i = 0

    def take(kind):
        nonlocal i
        tok = tokens[i]
        if tok[0] != kind:
            raise QbfParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r} "
                                f"at position {tok[2]}")
        i += 1
        return tok

    prefix = []
    while tokens[i][0] == "word" and tokens[i][1] in ("exists", "forall"):
        quant = EXISTS if tokens[i][1] == "exists" else FORALL
        i += 1
        kind, var, p = take("word")
        if not is_variable_name(var):
            raise QbfParseError(f"invalid variable name {var!r} at position {p}")
        prefix.append((quant, var))
    take(":")

    matrix = []
    first = True
    while tokens[i][0] != "eof":
        if not first:
            take("&")
        first = False
        take("(")
        lits = []
        while True:
            positive = True
            if tokens[i][0] == "-":
                positive = False
                i += 1
            kind, var, p = take("word")
            if not is_variable_name(var):
                raise QbfParseError(f"invalid variable name {var!r} at position {p}")
            lits.append(Lit(var, positive))
            if tokens[i][0] == "|":
                i += 1
                continue
            break
        take(")")
        matrix.append(tuple(lits))
    return prefix, matrix


def _parse_qdimacs(text: str) -> tuple[list, list]:
    prefix = []
    matrix = []
    prefix_done = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if parts[:2] != ["p", "cnf"] or len(parts) != 4:
                raise QbfParseError(f"line {lineno}: bad problem line")
            continue
        parts = line.split()
        if parts[0] in ("e", "a"):
            if prefix_done:
                raise QbfParseError(f"line {lineno}: quantifier block after a clause")
            quant = EXISTS if parts[0] == "e" else FORALL
            nums = parts[1:]
            if not nums or nums[-1] != "0":
                raise QbfParseError(f"line {lineno}: quantifier line must end with 0")
            for s in nums[:-1]:
                if not s.isdigit() or s == "0":
                    raise QbfParseError(f"line {lineno}: bad variable {s!r}")
                prefix.append((quant, f"x{s}"))
            continue
        prefix_done = True
        try:
            nums = [int(s) for s in parts]
        except ValueError:
            raise QbfParseError(f"line {lineno}: bad clause literal") from None
        if not nums or nums[-1] != 0:
            raise QbfParseError(f"line {lineno}: clause must end with 0")
        if 0 in nums[:-1]:
            raise QbfParseError(f"line {lineno}: literal 0 inside a clause")
        matrix.append(tuple(Lit(f"x{abs(v)}", v > 0) for v in nums[:-1]))
    return prefix, matrix


def parse_qbf(text: str, fmt: str = "textual",
              repair: Optional[bool] = None) -> Qbf:
    """Parse a sentence.  fmt is "textual" or "qdimacs".  With repair on
    (the qdimacs default), the result is run through normalize_qbf; without
    it the input must already have the exact required shape."""
    if fmt == "textual":
        prefix, matrix = _parse_textual(text)
    elif fmt == "qdimacs":
        prefix, matrix = _parse_qdimacs(text)
    else:
        raise QbfParseError(f"unknown format {fmt!r}")
    if repair is None:
        repair = fmt == "qdimacs"
    if repair:
        return normalize_qbf(prefix, matrix)
    for ci, clause in enumerate(matrix):
        if len(clause) != 3:
            raise QbfParseError(f"clause {ci + 1} has width {len(clause)}, not 3")
    q = Qbf(tuple(prefix), tuple(matrix))
    validate_qbf(q)
    return q


def render_qbf(q: Qbf) -> str:
    head = " ".join(f"{quant.value} {var}" for quant, var in q.prefix)
    body = " & ".join("(" + " | ".join(str(l) for l in clause) + ")"
                      for clause in q.matrix)
    return f"{head} : {body}" if body else f"{head} :"


def render_qdimacs(q: Qbf) -> str:
    validate_qbf(q)
    num = {var: i + 1 for i, (_, var) in enumerate(q.prefix)}
    lines = [f"p cnf {len(q.prefix)} {len(q.matrix)}"]
    lines.extend(f"{'e' if quant is EXISTS else 'a'} {num[var]} 0"
                 for quant, var in q.prefix)
    lines.extend(" ".join(str(num[l.var] if l.positive else -num[l.var])
                          for l in clause) + " 0"
                 for clause in q.matrix)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# corpora

def exhaustive_unary_corpus(max_clauses: int = 3) -> list[Qbf]:
    """Every sentence with prefix `exists x` and up to max_clauses clauses
    over x, counted as clause multisets (order never matters for truth)."""
    lits = (Lit("x", True), Lit("x", False))
    clause_types = list(itertools.product(lits, repeat=3))
    out = []
    for size in range(max_clauses + 1):
        for combo in itertools.combinations_with_replacement(clause_types, size):
            out.append(Qbf(((EXISTS, "x"),), tuple(combo)))
    return out


def _corpus_vars(n: int) -> tuple[str, ...]:
    """x, y, z, u, v, then w0, w1, ...; the first five names are fixed, so a
    seed gives the same sentences of prefix at most 5 as it always did."""
    return ("x", "y", "z", "u", "v", *(f"w{k}" for k in range(n - 5)))[:n]


def random_corpus(count: int, seed: int, prefix_lengths: Sequence[int] = (1, 3, 5),
                  max_clauses: int = 4, min_clauses: int = 0) -> list[Qbf]:
    """Seeded random sentences in the required shape."""
    if not prefix_lengths:
        raise QbfError("no prefix length to draw from")
    if any(n % 2 == 0 or n < 1 for n in prefix_lengths):
        raise QbfError("prefix lengths must be odd and positive")
    if not 0 <= min_clauses <= max_clauses:
        raise QbfError("clause count bounds out of order")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice(list(prefix_lengths))
        vs = _corpus_vars(n)
        prefix = tuple((EXISTS if i % 2 == 0 else FORALL, v)
                       for i, v in enumerate(vs))
        clauses = tuple(
            tuple(Lit(rng.choice(vs), rng.random() < 0.5) for _ in range(3))
            for _ in range(rng.randint(min_clauses, max_clauses)))
        out.append(Qbf(prefix, clauses))
    return out
