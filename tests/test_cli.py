"""End-to-end runs of the command line front end via main(argv)."""

import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import clprover
from clprover.cli import main
from clprover.formula import parse_formula, render_formula
from clprover.prover import check_proof, proof_from_json, proof_to_json, prove
from clprover.qbf import (
    parse_qbf, render_qdimacs, strategy_to_dict, strategy_to_json,
    winning_strategy_tree,
)
from clprover.reduction import reduce_to_cl3, reduce_to_cl4

TRUE_Q = "exists x : (x | x | x)"
FALSE_Q = "exists x : (x | x | x) & (-x | -x | -x)"
TRIPLE_Q = "exists x forall y exists z : (-x | y | x) & (z | x | -z)"


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------------------
# prove / check

def test_prove_prints_verdict_and_proof(capsys):
    code, out, _ = run(capsys, "prove", "--formula", "T")
    assert code == 0
    assert out.startswith("provable in cl4")
    assert '"rule": "wait"' in out


def test_prove_unprovable_exits_one(capsys):
    code, out, _ = run(capsys, "prove", "--formula", "p cand q")
    assert code == 1
    assert "not provable in cl4" in out


def test_prove_writes_proof_file(capsys, tmp_path):
    target = tmp_path / "proof.json"
    code, out, _ = run(capsys, "prove", "--formula", "P \\/ ~P",
                       "--proof-out", str(target))
    assert code == 0
    assert str(target) in out
    proof = proof_from_json(target.read_text())
    assert check_proof(proof)


def test_prove_json_report(capsys):
    code, out, _ = run(capsys, "prove", "--formula", "p \\/ ~p", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["provable"] is True
    assert doc["stats"]["maxDepth"] <= doc["stats"]["measure"] + 1
    assert doc["stats"]["stableChecks"] >= 1
    assert doc["stats"]["prunedTerms"] == 0  # no choice-ex quantifier
    # the choose-disjunct moves commute, so q \/ s is reached twice
    code, out, _ = run(capsys, "prove", "--formula", "(q cor r) \\/ (s cor t)",
                       "--json")
    stats = json.loads(out)["stats"]
    assert code == 1 and stats["memoHits"] >= 1 and stats["stableChecks"] >= 1
    assert stats["forcedMatches"] == 0 and stats["forcedWalks"] == 0
    # P has one positive and one negative surface occurrence and no other,
    # so the search matches them at once; the state is then provable, and
    # its proof chooses p first, which the walk of its rules finds
    code, out, _ = run(capsys, "prove", "--formula", "P \\/ ~P \\/ (p cor q)",
                       "--json")
    doc = json.loads(out)
    stats = doc["stats"]
    assert code == 0 and stats["forcedMatches"] >= 1 and stats["forcedWalks"] >= 1
    assert doc["proof"]["rule"] == "choose-disjunct"
    # once the image has constants, the search skips the fresh constant
    image = render_formula(reduce_to_cl4(parse_qbf(
        "exists x forall y exists z : (x | y | z)")))
    code, out, _ = run(capsys, "prove", "--formula", image, "--json")
    assert code == 0 and json.loads(out)["stats"]["prunedTerms"] >= 1


def test_prove_json_does_not_follow_the_hash_seed():
    # x1 and x01 are both candidate terms; their order once followed set
    # iteration, so the chosen term changed with PYTHONHASHSEED
    argv = [sys.executable, "-m", "clprover.cli", "prove", "--formula",
            "cex z: q(z) \\/ ~q(x1) \\/ q(z) \\/ ~q(x01)", "--json"]
    src = str(Path(clprover.__file__).resolve().parents[1])
    outs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(argv, env=env, capture_output=True, text=True,
                              check=True)
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert '"term": "x01"' in outs[0]


def test_prove_reads_formula_from_file(capsys, tmp_path):
    src = tmp_path / "goal.txt"
    src.write_text("p \\/ ~p\n")
    code, out, _ = run(capsys, "prove", "--in", str(src))
    assert code == 0


def test_prove_cl3_rejects_general_goals(capsys):
    code, _, err = run(capsys, "prove", "--formula", "P \\/ ~P",
                       "--logic", "cl3")
    assert code == 2
    assert err.startswith("error:")


def test_check_accepts_and_rejects(capsys, tmp_path):
    target = tmp_path / "proof.json"
    run(capsys, "prove", "--formula", "P \\/ ~P", "--proof-out", str(target))
    code, out, _ = run(capsys, "check", "--proof", str(target))
    assert code == 0 and "proof is valid" in out
    # the same proof is not a cl3 proof: it matches
    code, out, _ = run(capsys, "check", "--proof", str(target),
                       "--logic", "cl3")
    assert code == 1 and "cl3" in out


@pytest.mark.parametrize("argv", [
    ("check", "--no-memo"),
    ("prove", "--no-memo"),
    ("prove", "--depth-limit", "3"),
], ids=["check-no-memo", "prove-no-memo", "prove-depth-limit"])
def test_check_rejects_search_flags(capsys, tmp_path, argv):
    # check replays a given proof, and prove's search always memoizes and
    # needs no depth limit: neither command takes those flags
    target = tmp_path / "proof.json"
    run(capsys, "prove", "--formula", "T", "--proof-out", str(target))
    source = ["--proof", str(target)] if argv[0] == "check" else ["--formula", "T"]
    with pytest.raises(SystemExit) as info:
        main([argv[0], *source, *argv[1:]])
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


@pytest.mark.parametrize("rule", [["wait"], {"name": "wait"}],
                         ids=["list", "object"])
def test_check_rejects_a_rule_that_is_not_a_string(capsys, tmp_path, rule):
    # an unhashable rule once reached the rule table and left a TypeError
    target = tmp_path / "proof.json"
    target.write_text(json.dumps({"formula": "p \\/ ~p", "rule": rule,
                                  "premises": []}))
    code, out, err = run(capsys, "check", "--proof", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: unknown rule")


@pytest.mark.parametrize("argv", [
    ("prove", "--formula", "IMAGE4", "--json"),
    ("prove", "--formula", "IMAGE3", "--logic", "cl3", "--json"),
    ("strategy", "to-proof", "--qbf", TRIPLE_Q, "--strategy", "TREE", "--json"),
    ("check", "--proof", "PROOF", "--json"),
], ids=["prove-cl4", "prove-cl3", "strategy-to-proof", "check"])
def test_json_output_is_the_standard_library_text(capsys, tmp_path, argv):
    q = parse_qbf(TRIPLE_Q)
    tree, proof = tmp_path / "tree.json", tmp_path / "proof.json"
    tree.write_text(strategy_to_json(winning_strategy_tree(q)))
    run(capsys, "strategy", "to-proof", "--qbf", TRIPLE_Q, "--strategy",
        str(tree), "--out", str(proof))
    files = {"IMAGE4": render_formula(reduce_to_cl4(q)),
             "IMAGE3": render_formula(reduce_to_cl3(q)),
             "TREE": str(tree), "PROOF": str(proof)}
    code, out, _ = run(capsys, *(files.get(a, a) for a in argv))
    assert code == 0
    assert out == json.dumps(json.loads(out), ensure_ascii=False, indent=2) + "\n"


# ---------------------------------------------------------------------------
# reduce

def test_reduce_targets(capsys):
    code, out, _ = run(capsys, "reduce", "--qbf", TRUE_Q, "--target", "cl4")
    assert code == 0
    assert out.strip() == ("cex x: (L1(x) \\/ ~L1(1)) \\/ (L2(x) \\/ ~L2(1)) "
                           "\\/ (L3(x) \\/ ~L3(1))")
    code, out, _ = run(capsys, "reduce", "--qbf", TRUE_Q, "--target", "cl3")
    assert code == 0 and "l1(x)" in out and "L1" not in out


def test_reduce_json_and_file(capsys, tmp_path):
    target = tmp_path / "image.txt"
    code, _, _ = run(capsys, "reduce", "--qbf", TRIPLE_Q, "--target", "cl4",
                     "--out", str(target))
    assert code == 0
    assert target.read_text().startswith("cex x:")
    code, out, _ = run(capsys, "reduce", "--qbf", TRUE_Q, "--target", "cl4",
                       "--json")
    assert json.loads(out)["target"] == "cl4"


# ---------------------------------------------------------------------------
# qbf eval / normalize

def test_qbf_eval_verdicts(capsys):
    code, out, _ = run(capsys, "qbf", "eval", "--qbf", TRUE_Q)
    assert code == 0 and out.strip() == "TRUE"
    code, out, _ = run(capsys, "qbf", "eval", "--qbf", FALSE_Q)
    assert code == 1 and out.strip() == "FALSE"
    code, out, _ = run(capsys, "qbf", "eval", "--qbf", TRUE_Q, "--json")
    assert json.loads(out) == {"value": True}


def test_qbf_eval_autodetects_qdimacs(capsys, tmp_path):
    doc = render_qdimacs(parse_qbf(TRUE_Q))
    src = tmp_path / "in.qdimacs"
    src.write_text(doc)
    code, out, _ = run(capsys, "qbf", "eval", "--in", str(src))
    assert code == 0 and out.strip() == "TRUE"


def test_qbf_normalize_repairs_the_prefix(capsys):
    code, out, _ = run(capsys, "qbf", "normalize", "--qbf",
                       "exists x exists y : (x | y | x)")
    assert code == 0
    assert out.strip() == "exists x forall w exists y : (x | y | x)"


def test_qbf_normalize_to_qdimacs(capsys):
    code, out, _ = run(capsys, "qbf", "normalize", "--qbf", TRUE_Q,
                       "--to", "qdimacs")
    assert code == 0
    assert out.splitlines()[0].startswith("p cnf ")


# ---------------------------------------------------------------------------
# strategy

def test_strategy_pipeline(capsys, tmp_path):
    tree = tmp_path / "tree.json"
    code, _, _ = run(capsys, "strategy", "extract", "--qbf", TRIPLE_Q,
                     "--out", str(tree))
    assert code == 0
    code, out, _ = run(capsys, "strategy", "check", "--qbf", TRIPLE_Q,
                       "--strategy", str(tree))
    assert code == 0 and "winning" in out
    proof = tmp_path / "proof.json"
    code, _, _ = run(capsys, "strategy", "to-proof", "--qbf", TRIPLE_Q,
                     "--strategy", str(tree), "--out", str(proof))
    assert code == 0
    code, out, _ = run(capsys, "check", "--proof", str(proof))
    assert code == 0 and "proof is valid" in out


def test_strategy_extract_json(capsys):
    code, out, _ = run(capsys, "strategy", "extract", "--qbf", TRIPLE_Q, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["winning"] is True
    tree = winning_strategy_tree(parse_qbf(TRIPLE_Q))
    assert report["strategy"] == strategy_to_dict(tree)


@pytest.mark.parametrize("argv, flag", [
    (["prove", "--formula", "P \\/ ~P"], "--proof-out"),
    (["reduce", "--qbf", TRIPLE_Q, "--target", "cl4"], "--out"),
    (["qbf", "normalize", "--qbf", "exists x exists y : (x | y | x)"], "--out"),
    (["strategy", "extract", "--qbf", TRIPLE_Q], "--out"),
    (["strategy", "to-proof", "--qbf", TRIPLE_Q, "--strategy", "TREE"], "--out"),
], ids=["prove", "reduce", "qbf-normalize", "strategy-extract", "strategy-to-proof"])
def test_file_flags_write_under_json(capsys, tmp_path, argv, flag):
    # the file gets what it gets without --json; stdout keeps the JSON alone
    tree = tmp_path / "tree.json"
    tree.write_text(strategy_to_json(winning_strategy_tree(parse_qbf(TRIPLE_Q))))
    argv = [str(tree) if a == "TREE" else a for a in argv]
    plain, under_json = tmp_path / "plain.out", tmp_path / "json.out"
    assert run(capsys, *argv, flag, str(plain))[0] == 0
    _, want, _ = run(capsys, *argv, "--json")
    code, out, _ = run(capsys, *argv, "--json", flag, str(under_json))
    assert code == 0 and out == want
    assert under_json.read_text() == plain.read_text()


def test_strategy_extract_false_sentence(capsys):
    code, out, _ = run(capsys, "strategy", "extract", "--qbf", FALSE_Q)
    assert code == 1
    assert "no winning strategy" in out


def test_strategy_check_flags_losing_trees(capsys, tmp_path):
    tree = tmp_path / "tree.json"
    tree.write_text('{"label": 0, "children": []}')
    code, out, _ = run(capsys, "strategy", "check", "--qbf", TRUE_Q,
                       "--strategy", str(tree))
    assert code == 1
    assert "losing play [0]" in out


# ---------------------------------------------------------------------------
# roundtrip

def test_roundtrip_true_sentence(capsys):
    code, out, _ = run(capsys, "roundtrip", "--qbf", TRUE_Q)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "AGREE eval=TRUE cl4=PROVABLE cl3=PROVABLE"
    assert lines[1] == "strategy -> proof checks: True"
    assert lines[2] == "proof -> strategy returns the same tree: True"


def test_roundtrip_false_sentence(capsys):
    code, out, _ = run(capsys, "roundtrip", "--qbf", FALSE_Q)
    assert code == 0
    assert out.splitlines()[0] == "AGREE eval=FALSE cl4=UNPROVABLE cl3=UNPROVABLE"


def test_roundtrip_expectations(capsys):
    code, _, _ = run(capsys, "roundtrip", "--qbf", FALSE_Q, "--expect", "false")
    assert code == 0
    code, _, _ = run(capsys, "roundtrip", "--qbf", FALSE_Q, "--expect", "true")
    assert code == 1
    code, _, _ = run(capsys, "roundtrip", "--qbf", TRIPLE_Q, "--expect", "true")
    assert code == 0


# ---------------------------------------------------------------------------
# bench

def test_bench_empty_corpus(capsys):
    code, out, _ = run(capsys, "bench", "--exhaustive", "-1", "--random", "0")
    assert code == 0
    assert out.strip() == "empty corpus"


def test_bench_small_corpus(capsys):
    code, out, _ = run(capsys, "bench", "--exhaustive", "1", "--random", "2",
                       "--prefix-lens", "1", "--max-clauses", "2")
    assert code == 0
    assert "verdicts all agree" in out
    assert "within the measure bound" in out


def test_bench_json(capsys):
    code, out, _ = run(capsys, "bench", "--exhaustive", "-1", "--random", "3",
                       "--prefix-lens", "3", "--max-clauses", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["allAgree"] and doc["allDepthOk"]
    assert len(doc["rows"]) == 3
    assert all(r["depth4"] <= r["mu4"] + 1 for r in doc["rows"])


# ---------------------------------------------------------------------------
# play

def test_play_engine_wins(capsys, monkeypatch):
    monkeypatch.setattr("builtins.input", lambda prompt="": "0")
    code, out, _ = run(capsys, "play", "--qbf", TRIPLE_Q)
    assert code == 0
    assert "engine sets x = " in out
    assert "engine wins" in out


def test_play_false_sentence(capsys):
    code, out, _ = run(capsys, "play", "--qbf", FALSE_Q)
    assert code == 1
    assert "no winning strategy" in out


# ---------------------------------------------------------------------------
# errors

def test_parse_errors_exit_two(capsys):
    code, _, err = run(capsys, "prove", "--formula", "p(((")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "qbf", "eval", "--qbf", "exists x : (x | x)")
    assert code == 2 and "width" in err


def test_deep_input_exits_two(capsys):
    # 251 quantifiers: rendering is iterative, so the reduction goes through
    prefix = " ".join(("exists" if i % 2 == 0 else "forall") + f" w{i}"
                      for i in range(251))
    q = prefix + " : (w0 | w1 | w2)"
    code, out, _ = run(capsys, "reduce", "--target", "cl4", "--qbf", q)
    assert code == 0
    f = parse_formula(out)  # the parser needs no recursion either
    assert f == reduce_to_cl4(parse_qbf(q))  # nor does node equality


def test_deeply_nested_proof_is_written(capsys):
    # the search decides 500 levels, and writing the proof takes no frame
    # per level
    text = "q \\/ " + "(p cor " * 500 + "~q" + ")" * 500
    code, out, _ = run(capsys, "prove", "--formula", text)
    assert code == 0
    assert out == f"provable in cl4\n{proof_to_json(prove(parse_formula(text)))}\n"


def test_deeply_nested_formula_exits_two(capsys):
    # the search still recurses once per move
    deep = "p cor (" * 1000 + "p" + ")" * 1000
    code, _, err = run(capsys, "prove", "--formula", deep)
    assert code == 2
    assert err.startswith("error: input nests too deeply")


@pytest.mark.parametrize("inner, expected", [("p \\/ ~p", 0), ("p", 1)])
def test_deeply_parenthesized_formula_is_decided(capsys, inner, expected):
    code, _, _ = run(capsys, "prove", "--formula", "(" * 300 + inner + ")" * 300)
    assert code == expected


def test_conflicting_sources_exit_two(capsys, tmp_path):
    src = tmp_path / "q.txt"
    src.write_text(TRUE_Q)
    code, _, err = run(capsys, "qbf", "eval", "--qbf", TRUE_Q,
                       "--in", str(src))
    assert code == 2
    assert "not both" in err


# ---------------------------------------------------------------------------
# fuzz: every reader ends in exit status 0, 1 or 2

_TOKENS = ["(", ")", "~", "-", "0", "1", "7", "99999", " ", "\n", ":", ",",
           "x", "P", "cex ", "cand ", "/\\", "\\/", "exists ", "forall ",
           "a ", "e ", "p cnf 3 2\n", "|", "&", "{", "}", "[", "]", '"',
           "null", "-1", "1.5", "\u2293", "\u00e9"]
_ODD = [None, True, False, 0, -1, 2, 10**20, 1.5, "", "x", "wait", "match",
        [], [0], [-1], {}, {"name": "p", "arity": 1}]
_KEYS = ["formula", "rule", "premises", "path", "index", "term", "posPath",
         "negPath", "fresh", "label", "children", "extra"]
_SWAPS = [("cand", "cor"), ("cex", "call"), ("/\\", "\\/"), ("P", "p"),
          ("x", "y"), ("0", "1"), ("1", "2"), ("exists", "forall"),
          ("e ", "a "), ("-", ""), ("|", "&")]


def _mutate_text(rng, text):
    chars = list(text)
    for _ in range(rng.choice((1, 1, 2, 3))):
        op = rng.randrange(5)
        i = rng.randrange(len(chars) + 1)
        if op == 4:  # swap one word for its partner, which often still parses
            old, new = rng.choice(_SWAPS)[::rng.choice((1, -1))]
            j = "".join(chars).find(old, i)
            if j >= 0:
                chars[j:j + len(old)] = new
        elif op == 0:  # drop a span
            del chars[i:i + rng.randint(1, 4)]
        elif op == 1:  # insert a token
            chars[i:i] = rng.choice(_TOKENS)
        elif op == 2 and chars:  # repeat a span
            j = rng.randrange(len(chars))
            chars[i:i] = chars[j:j + rng.randint(1, 8)]
        elif len(chars) > 1:  # swap two characters
            j, k = rng.sample(range(len(chars)), 2)
            chars[j], chars[k] = chars[k], chars[j]
    return "".join(chars)


def _containers(value):
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, (dict, list)):
            yield v
            stack.extend(v.values() if isinstance(v, dict) else v)


def _mutate_json(rng, value):
    """Drop and add keys and items, swap value types and edit strings."""
    if rng.random() < 0.05:
        return json.dumps(rng.choice(_ODD))
    doc = copy.deepcopy(value)
    for _ in range(rng.randint(1, 3)):
        c = rng.choice(list(_containers(doc)))
        slots = list(c) if isinstance(c, dict) else list(range(len(c)))
        op = rng.randrange(4)
        if op == 0 and slots:
            del c[rng.choice(slots)]
        elif op == 1:
            odd = copy.deepcopy(rng.choice(_ODD))
            if isinstance(c, dict):
                c[rng.choice(_KEYS)] = odd
            else:
                c.insert(rng.randint(0, len(c)), odd)
        elif op == 2 and slots:
            c[rng.choice(slots)] = copy.deepcopy(rng.choice(_ODD))
        elif slots:
            k = rng.choice(slots)
            if isinstance(c[k], str):
                c[k] = _mutate_text(rng, c[k])
            elif isinstance(c[k], int) and not isinstance(c[k], bool):
                c[k] = rng.choice([-1, c[k] + 1, 2, 10**20])
    text = json.dumps(doc, ensure_ascii=False)
    return _mutate_text(rng, text) if rng.random() < 0.2 else text


def test_fuzzed_inputs_end_in_an_exit_status(capsys, tmp_path):
    # mutated inputs for each reader: no exception leaves main, and the
    # commands with no negative outcome never exit 1
    rng = random.Random(27)
    q = parse_qbf(TRIPLE_Q)
    tree = strategy_to_dict(winning_strategy_tree(q))
    proofs = [json.loads(proof_to_json(prove(reduce_to_cl4(q)))),
              json.loads(proof_to_json(prove(parse_formula("P \\/ ~P"))))]
    sentences = [TRIPLE_Q, FALSE_Q, render_qdimacs(q)]
    formulas = [render_formula(reduce_to_cl4(q)),
                "(P(0) cand P(1)) \\/ cex x: (~P(x) /\\ (p \\/ ~p))"]
    src = tmp_path / "input"
    readers = [
        ("check",), ("strategy", "check"), ("strategy", "to-proof"),
        ("qbf", "eval"), ("qbf", "normalize"), ("reduce",), ("roundtrip",),
        ("strategy", "extract"), ("prove",),
    ]
    for n in range(1000):
        command = readers[n % len(readers)]
        if command == ("check",):
            src.write_text(_mutate_json(rng, rng.choice(proofs)), encoding="utf-8")
            argv = ["check", "--proof", str(src), "--logic",
                    rng.choice(["cl4", "cl3"])]
        elif command[0] == "strategy" and command[1] != "extract":
            src.write_text(_mutate_json(rng, tree), encoding="utf-8")
            argv = [*command, "--qbf", TRIPLE_Q, "--strategy", str(src)]
        elif command == ("prove",):
            src.write_text(_mutate_text(rng, rng.choice(formulas)), encoding="utf-8")
            argv = ["prove", "--in", str(src), "--logic", rng.choice(["cl4", "cl3"])]
        else:
            src.write_text(_mutate_text(rng, rng.choice(sentences)), encoding="utf-8")
            argv = [*command, "--in", str(src)]
            if command == ("reduce",):
                argv += ["--target", rng.choice(["cl4", "cl3"])]
        if rng.random() < 0.3:
            argv.append("--json")
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's usage error
            code = e.code
            assert code == 2, argv
        capsys.readouterr()
        assert code in (0, 1, 2), argv
        if command in (("reduce",), ("qbf", "normalize"), ("strategy", "to-proof")):
            assert code != 1, argv
