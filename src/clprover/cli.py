"""Command line front end.

Subcommands: prove, check, reduce, qbf (eval, normalize), strategy
(extract, to-proof, check), roundtrip, bench, play.  Exit status 0 means the
affirmative outcome (provable, true, valid, everything agrees), 1 the
negative one, 2 and up an error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

from .bridge import BridgeError, proof_to_strategy, strategy_to_proof
from .formula import FormulaError, parse_formula, render_formula
from .prover import (
    Logic, ProverConfig, ProverError, check_proof, measure,
    json_text, proof_from_json, proof_to_dict, proof_to_json,
    prove_with_stats,
)
from .qbf import (
    Qbf, QbfError, check_strategy_tree, eval_qbf, exhaustive_unary_corpus,
    parse_qbf, play_path, random_corpus, render_qbf, render_qdimacs,
    strategy_from_json, strategy_to_dict, strategy_to_json,
    winning_strategy_tree,
)
from .reduction import reduce_to_cl3, reduce_to_cl4

DEFAULT_SEED = 1789

_ERRORS = (FormulaError, ProverError, QbfError, BridgeError, ValueError, OSError)


def _read_text(inline, path, what):
    if (inline is None) == (path is None):
        raise ValueError(f"give the {what} either inline or with --in, not both")
    if inline is not None:
        return inline
    with open(path, encoding="utf-8") as fp:
        return fp.read()


def _write_out(path, text):
    # callers under --json write only to a file: stdout holds the JSON alone
    if path:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _config(args) -> ProverConfig:
    return ProverConfig(logic=Logic(args.logic))


def _detect_format(text: str) -> str:
    head = text.lstrip()
    return "textual" if head.startswith(("exists", "forall")) else "qdimacs"


def _parse_qbf_arg(args) -> Qbf:
    text = _read_text(args.qbf, args.infile, "sentence")
    fmt = _detect_format(text) if args.format == "auto" else args.format
    return parse_qbf(text, fmt=fmt, repair=args.repair or None)


def _report(res, args, ok_text: str) -> int:
    """Print a check's result, as JSON or as text, and return its status."""
    if args.json:
        print(json_text({"ok": res.ok, "diagnostics": res.diagnostics}))
    elif res.ok:
        print(ok_text)
    else:
        for d in res.diagnostics:
            print(d)
    return 0 if res.ok else 1


def cmd_prove(args) -> int:
    f = parse_formula(_read_text(args.formula, args.infile, "formula"))
    config = _config(args)
    proof, stats = prove_with_stats(f, config)
    if proof is not None and args.out:
        _write_out(args.out, proof_to_json(proof))
    if args.json:
        print(json_text({
            "provable": proof is not None,
            "proof": proof_to_dict(proof) if proof else None,
            "stats": {"states": stats.states,
                      "stableChecks": stats.stable_checks,
                      "memoHits": stats.memo_hits,
                      "forcedMatches": stats.forced_matches,
                      "forcedWalks": stats.forced_walks,
                      "prunedTerms": stats.pruned_terms,
                      "maxDepth": stats.max_depth, "measure": measure(f)},
        }))
    elif proof is None:
        print(f"not provable in {config.logic.value}")
    elif args.out:
        print(f"provable in {config.logic.value}; proof written to {args.out}")
    else:
        print(f"provable in {config.logic.value}")
        print(proof_to_json(proof))
    return 0 if proof is not None else 1


def cmd_check(args) -> int:
    with open(args.proof, encoding="utf-8") as fp:
        proof = proof_from_json(fp.read())
    return _report(check_proof(proof, _config(args)), args, "proof is valid")


def cmd_reduce(args) -> int:
    q = _parse_qbf_arg(args)
    f = reduce_to_cl4(q) if args.target == "cl4" else reduce_to_cl3(q)
    text = render_formula(f)
    if args.out or not args.json:
        _write_out(args.out, text)
    if args.json:
        print(json_text({"target": args.target, "formula": text}))
    return 0


def cmd_qbf_eval(args) -> int:
    q = _parse_qbf_arg(args)
    value = eval_qbf(q)
    if args.json:
        print(json_text({"value": value}))
    else:
        print("TRUE" if value else "FALSE")
    return 0 if value else 1


def cmd_qbf_normalize(args) -> int:
    q = _parse_qbf_arg(args)
    out = render_qdimacs(q) if args.to == "qdimacs" else render_qbf(q)
    if args.out or not args.json:
        _write_out(args.out, out)
    if args.json:
        print(json_text({"qbf": out}))
    return 0


def cmd_strategy_extract(args) -> int:
    q = _parse_qbf_arg(args)
    tree = winning_strategy_tree(q)
    if tree is not None and (args.out or not args.json):
        _write_out(args.out, strategy_to_json(tree))
    if args.json:
        print(json_text({
            "winning": tree is not None,
            "strategy": strategy_to_dict(tree) if tree else None,
        }))
    elif tree is None:
        print("sentence is false: no winning strategy")
    return 0 if tree is not None else 1


def cmd_strategy_check(args) -> int:
    q = _parse_qbf_arg(args)
    with open(args.strategy, encoding="utf-8") as fp:
        tree = strategy_from_json(fp.read())
    return _report(check_strategy_tree(q, tree), args, "strategy tree is winning")


def cmd_strategy_to_proof(args) -> int:
    q = _parse_qbf_arg(args)
    with open(args.strategy, encoding="utf-8") as fp:
        tree = strategy_from_json(fp.read())
    proof = strategy_to_proof(q, tree)
    if args.out or not args.json:
        _write_out(args.out, proof_to_json(proof))
    if args.json:
        print(json_text({"proof": proof_to_dict(proof)}))
    return 0


def cmd_roundtrip(args) -> int:
    q = _parse_qbf_arg(args)
    value = eval_qbf(q)
    f4 = reduce_to_cl4(q)
    f3 = reduce_to_cl3(q)
    p4, _ = prove_with_stats(f4)
    p3, _ = prove_with_stats(f3, ProverConfig(logic=Logic.CL3))
    agree = (value == (p4 is not None) == (p3 is not None))
    extra = []
    if value and agree:
        tree = winning_strategy_tree(q)
        proof = strategy_to_proof(q, tree)
        ok = bool(check_proof(proof))
        same = proof_to_strategy(q, proof) == tree
        extra.append(f"strategy -> proof checks: {ok}")
        extra.append(f"proof -> strategy returns the same tree: {same}")
        agree = agree and ok and same
    verdict = "AGREE" if agree else "DISAGREE"
    if args.expect == "true":
        ok_exit = agree and value
    elif args.expect == "false":
        ok_exit = agree and not value
    else:
        ok_exit = agree
    if args.json:
        print(json_text({"agree": agree, "value": value,
                         "cl4": p4 is not None, "cl3": p3 is not None}))
    else:
        print(f"{verdict} eval={'TRUE' if value else 'FALSE'} "
              f"cl4={'PROVABLE' if p4 is not None else 'UNPROVABLE'} "
              f"cl3={'PROVABLE' if p3 is not None else 'UNPROVABLE'}")
        for line in extra:
            print(line)
    return 0 if ok_exit else 1


# ---------------------------------------------------------------------------
# bench

@dataclass
class BenchRow:
    name: str
    sentence: str
    value: bool
    cl4: bool
    cl3: bool
    mu4: int
    mu3: int
    depth4: int
    depth3: int
    millis: float

    @property
    def agree(self) -> bool:
        return self.value == self.cl4 == self.cl3

    @property
    def depth_ok(self) -> bool:
        return self.depth4 <= self.mu4 + 1 and self.depth3 <= self.mu3 + 1


def bench_run(instances: list[tuple[str, Qbf]]) -> list[BenchRow]:
    rows = []
    for name, q in instances:
        f4 = reduce_to_cl4(q)
        f3 = reduce_to_cl3(q)
        t0 = time.perf_counter()
        p4, s4 = prove_with_stats(f4)
        p3, s3 = prove_with_stats(f3, ProverConfig(logic=Logic.CL3))
        millis = (time.perf_counter() - t0) * 1000
        rows.append(BenchRow(
            name=name, sentence=render_qbf(q), value=eval_qbf(q),
            cl4=p4 is not None, cl3=p3 is not None,
            mu4=measure(f4), mu3=measure(f3),
            depth4=s4.max_depth, depth3=s3.max_depth, millis=millis))
    return rows


def bench_instances(exhaustive: int, random_count: int, seed: int,
                    prefix_lengths, max_clauses: int) -> list[tuple[str, Qbf]]:
    # exhaustive < 0 disables the exhaustive part of the corpus
    instances = []
    if exhaustive >= 0:
        instances = [(f"ex{i:03d}", q)
                     for i, q in enumerate(exhaustive_unary_corpus(exhaustive))]
    instances.extend(
        (f"rnd{i:03d}", q)
        for i, q in enumerate(random_corpus(random_count, seed,
                                            prefix_lengths, max_clauses)))
    return instances


def cmd_bench(args) -> int:
    prefix_lengths = tuple(int(s) for s in args.prefix_lens.split(",") if s)
    instances = bench_instances(args.exhaustive, args.random, args.seed,
                                prefix_lengths, args.max_clauses)
    rows = bench_run(instances)
    all_agree = all(r.agree for r in rows)
    all_depth = all(r.depth_ok for r in rows)
    if args.json:
        print(json_text({
            "rows": [{"name": r.name, "sentence": r.sentence, "value": r.value,
                      "cl4": r.cl4, "cl3": r.cl3, "mu4": r.mu4, "mu3": r.mu3,
                      "depth4": r.depth4, "depth3": r.depth3,
                      "agree": r.agree, "depthOk": r.depth_ok,
                      "millis": round(r.millis, 3)} for r in rows],
            "allAgree": all_agree, "allDepthOk": all_depth,
        }))
    elif not rows:
        print("empty corpus")
    else:
        print(f"{'name':8} {'val':5} {'cl4':5} {'cl3':5} {'mu4':>4} "
              f"{'dep4':>4} {'mu3':>4} {'dep3':>4} {'ms':>8}  verdicts")
        for r in rows:
            print(f"{r.name:8} {str(r.value):5} {str(r.cl4):5} {str(r.cl3):5} "
                  f"{r.mu4:4} {r.depth4:4} {r.mu3:4} {r.depth3:4} "
                  f"{r.millis:8.1f}  "
                  f"{'agree' if r.agree else 'DISAGREE'}"
                  f"{'' if r.depth_ok else ' DEPTH'}")
        print(f"{len(rows)} instances; verdicts "
              f"{'all agree' if all_agree else 'DISAGREE'}; search depth "
              f"{'within the measure bound' if all_depth else 'EXCEEDS the measure bound'} "
              f"on every instance")
    return 0 if all_agree and all_depth else 1


def cmd_play(args) -> int:
    q = _parse_qbf_arg(args)
    print(render_qbf(q))
    tree = winning_strategy_tree(q)
    if tree is None:
        print("sentence is false: the engine has no winning strategy")
        return 1
    node = tree
    labels = []
    for i, (quant, var) in enumerate(q.prefix):
        if quant.value == "exists":
            labels.append(node.label)
            print(f"engine sets {var} = {node.label}")
        else:
            while True:
                try:
                    raw = input(f"your bit for {var} (0/1): ").strip()
                except EOFError:
                    raise ValueError(f"input ended before a bit for {var}") from None
                if raw in ("0", "1"):
                    break
                print("please answer 0 or 1")
            bit = int(raw)
            labels.append(bit)
            node = node.children[bit]
        if i + 1 < len(q.prefix) and quant.value == "forall":
            node = node.children[0]
    won = play_path(q, labels)
    print(f"play {labels}: {'engine wins' if won else 'engine loses'}")
    return 0 if won else 1


# ---------------------------------------------------------------------------
# argument wiring

def _add_formula_source(p):
    p.add_argument("--formula", help="formula text")
    p.add_argument("--in", dest="infile", help="file with the formula text")


def _add_qbf_source(p):
    p.add_argument("--qbf", help="sentence text")
    p.add_argument("--in", dest="infile", help="file with the sentence")
    p.add_argument("--format", choices=["auto", "textual", "qdimacs"],
                   default="auto")
    p.add_argument("--repair", action="store_true",
                   help="normalize the sentence shape instead of rejecting it")


def _add_logic_flag(p):
    p.add_argument("--logic", choices=[l.value for l in Logic], default="cl4")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="clprover",
        description="decision procedures and proofs for the choice fragment, "
                    "with a reduction from prenex 3-CNF sentences")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="search for a proof")
    _add_formula_source(p)
    _add_logic_flag(p)
    p.add_argument("--proof-out", dest="out", help="write the proof JSON here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("check", help="check a proof JSON file")
    p.add_argument("--proof", required=True)
    _add_logic_flag(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("reduce", help="reduce a sentence to the choice fragment")
    _add_qbf_source(p)
    p.add_argument("--target", choices=["cl4", "cl3"], required=True)
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("qbf", help="evaluate or normalize a sentence")
    qsub = p.add_subparsers(dest="qbf_command", required=True)
    pe = qsub.add_parser("eval", help="game value of the sentence")
    _add_qbf_source(pe)
    pe.add_argument("--json", action="store_true")
    pe.set_defaults(fn=cmd_qbf_eval)
    pn = qsub.add_parser("normalize", help="repair into the required shape")
    pn.add_argument("--qbf")
    pn.add_argument("--in", dest="infile")
    pn.add_argument("--format", choices=["auto", "textual", "qdimacs"],
                    default="auto")
    pn.add_argument("--to", choices=["textual", "qdimacs"], default="textual")
    pn.add_argument("--out")
    pn.add_argument("--json", action="store_true")
    # normalize always repairs, so it takes no --repair flag
    pn.set_defaults(fn=cmd_qbf_normalize, repair=True)

    p = sub.add_parser("strategy", help="strategy tree operations")
    ssub = p.add_subparsers(dest="strategy_command", required=True)
    pe = ssub.add_parser("extract", help="winning strategy tree of a true sentence")
    _add_qbf_source(pe)
    pe.add_argument("--out")
    pe.add_argument("--json", action="store_true")
    pe.set_defaults(fn=cmd_strategy_extract)
    pc = ssub.add_parser("check", help="check a strategy tree JSON file")
    _add_qbf_source(pc)
    pc.add_argument("--strategy", required=True)
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(fn=cmd_strategy_check)
    pt = ssub.add_parser("to-proof", help="turn a winning tree into a proof")
    _add_qbf_source(pt)
    pt.add_argument("--strategy", required=True)
    pt.add_argument("--out")
    pt.add_argument("--json", action="store_true")
    pt.set_defaults(fn=cmd_strategy_to_proof)

    p = sub.add_parser("roundtrip",
                       help="check that truth, provability and the strategy "
                            "conversions agree on one sentence")
    _add_qbf_source(p)
    p.add_argument("--expect", choices=["any", "true", "false"], default="any",
                   help="also require this truth value for exit 0")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_roundtrip)

    p = sub.add_parser("bench", help="corpus run with verdict and depth report")
    p.add_argument("--exhaustive", type=int, default=2,
                   help="unary corpus with up to this many clauses; "
                        "-1 disables it")
    p.add_argument("--random", type=int, default=10, help="random instances")
    p.add_argument("--prefix-lens", default="1,3", help="comma separated")
    p.add_argument("--max-clauses", type=int, default=3)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("play", help="play the sentence game against the engine")
    _add_qbf_source(p)
    p.set_defaults(fn=cmd_play)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except _ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nests too deeply to process", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
