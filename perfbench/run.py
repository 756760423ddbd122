#!/usr/bin/env python3
"""Round-trip benchmark for clprover.

    python3 perfbench/run.py --workload depth --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
`src/` next to this directory, never from an installed copy.  The benchmark
generates a seeded corpus (see corpus.py), then sends one sentence at a time
through the round trip in pipeline.py (a closed loop with one client, in
this one process) until --seconds have passed and at least the workload's
minimum number of sentences is done.  Every answer is checked against the
benchmark's own truth table and by the checks in pipeline.check_trip; a
sentence with a wrong answer or an exception counts as failed.

--trace 0 measures the end-to-end metrics.  --trace 1 is a separate run
that records spans around every package call and reports per-layer totals
instead; its spans are written to .bench_out/ in the checkout.  Human
readable lines come first on stdout; the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  perfbench/README.md says
which end-to-end metric each layer metric should move, and on which
workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MODULES = ("qbf", "reduction", "formula", "elementary", "prover", "bridge", "cli")
SETUP_PROBES = 5
CLI_PROBES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import the package and build the corpus")
    return ap.parse_args(argv)


def import_package() -> bool:
    """Put the checkout's src/ first on the path and import the package from
    there; False when the checkout has no package source."""
    init = SRC / "clprover" / "__init__.py"
    if not init.is_file():
        print(f"no package source at {init}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import clprover
    if Path(clprover.__file__).resolve() != init.resolve():
        print(f"clprover was imported from {clprover.__file__}, not {init}",
              file=sys.stderr)
        return False
    return True


def median_probe_s(cmd: list[str], probes: int, env=None, expect=(0,)) -> float:
    """Median wall time of `probes` fresh processes running cmd.  No timeout:
    with one, the wait polls in steps of up to 50 ms and quantizes the
    figure."""
    times = []
    for _ in range(probes):
        t0 = perf_counter()
        rc = subprocess.run(cmd, cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL).returncode
        times.append(perf_counter() - t0)
        if rc not in expect:
            raise RuntimeError(f"{cmd[:4]} exited {rc}")
    return statistics.median(times)


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(pct / 100 * len(s)) - 1)]


def p50_ms(values: list[float]) -> float:
    return 1000 * statistics.median(values) if values else 0.0


def src_lines() -> dict[str, int]:
    pkg = SRC / "clprover"
    return {m: len((pkg / f"{m}.py").read_text(encoding="utf-8").splitlines())
            for m in MODULES}


def run_loop(workload, corpus, seconds, tracer, traced: bool):
    """Closed loop over the corpus.  Returns the count attempted, the timings
    of good round trips, failure notes, the digest of the proofs of the first
    min_sentences sentences, and the traced passes' counts."""
    from pipeline import check_trip, layer_passes, proof_texts, round_trip, timing

    trips, failures = [], []
    counts: dict[str, int] = defaultdict(int)
    digest = hashlib.sha256()
    deadline = perf_counter() + seconds
    attempted = 0
    for i, (text, truth) in enumerate(corpus):
        if i >= workload.min_sentences and perf_counter() >= deadline:
            break
        attempted += 1
        tracer.sentence = i
        try:
            trip = round_trip(text, workload.prove, tracer)
            with tracer.span("check"):
                bad = check_trip(trip, text, truth, tracer)
            if traced:
                with tracer.span("analysis"):
                    bad += layer_passes(trip, tracer, counts)
            if i < workload.min_sentences:
                for blob in proof_texts(trip):
                    digest.update(len(blob).to_bytes(8, "big") + blob)
        except Exception as e:  # any exception is a failed sentence
            bad = [f"{type(e).__name__}: {e}"]
            if len(failures) < 3:
                traceback.print_exc()
        if bad:
            failures.append(f"sentence {i} ({text}): {bad[0]}")
        else:
            trips.append(timing(trip))
    return attempted, trips, failures, digest.hexdigest(), counts


def end_to_end(workload, trips, setup_s) -> dict:
    rt = [t.roundtrip_s for t in trips]
    bridge = [t.bridge_s for t in trips if t.bridge_s is not None]
    return {
        "sentences_per_s": (len(rt) / sum(rt), "1/s"),
        "roundtrip_ms_p50": (p50_ms(rt), "ms"),
        "roundtrip_ms_tail": (1000 * percentile(rt, workload.tail_pct), "ms"),
        "bridge_ms_p50": (p50_ms(bridge), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def prover_figures(trips) -> dict:
    """Search counters and per-call medians for each logic; all zero on a
    workload that does not prove."""
    out = {}
    for logic in ("cl4", "cl3"):
        calls = [(*t.searches[logic], t.value) for t in trips
                 if logic in t.searches]
        states = sum(st.states for _, st, _ in calls)
        pre = f"prover.{logic}."
        out.update({
            pre + "states": (states, "count"),
            pre + "shortcut_states": (sum(st.shortcut_states for _, st, _ in calls),
                                      "count"),
            pre + "max_depth": (max((st.max_depth for _, st, _ in calls), default=0),
                                "count"),
            pre + "us_per_state": (1e6 * sum(s for s, _, _ in calls) / states
                                   if states else 0.0, "us"),
            pre + "prove_ms_p50": (p50_ms([s for s, _, v in calls if v]), "ms"),
            pre + "refute_ms_p50": (p50_ms([s for s, _, v in calls if not v]), "ms"),
        })
    return out


LAYER_SPANS = (
    "qbf.parse", "qbf.eval", "qbf.strategy", "qbf.check_strategy",
    "reduction.cl4", "reduction.cl3", "prover.cl4", "prover.cl3",
    "prover.check", "prover.to_json", "prover.from_json",
    "bridge.strategy_to_proof", "bridge.proof_to_strategy",
    "bridge.canonicalize", "formula.render", "formula.parse",
    "elementary.stable",
)
ROUNDTRIP_LAYERS = ("qbf", "reduction", "prover", "bridge")


def per_layer(tracer, trips, counts, span_cost_s, first) -> dict:
    out = prover_figures(trips)
    totals = tracer.totals()
    for name in LAYER_SPANS:
        s, calls = totals.get(name, (0.0, 0))
        out[f"{name}_s"] = (s, "s")
        out[f"{name}_calls"] = (calls, "count")
    for key in ("formula.goal_nodes", "prover.proof_nodes"):
        out[key] = (counts[key], "count")
    out["prover.json_bytes"] = (counts["prover.json_bytes"], "bytes")

    # self time of each layer inside the round-trip spans, and what is left
    # to the benchmark's own code between the calls
    own = tracer.self_times()
    roots = {i for i, rec in enumerate(tracer.spans) if rec[1] == "roundtrip"}
    layer_self = dict.fromkeys(ROUNDTRIP_LAYERS, 0.0)
    bench_self = 0.0
    for i, rec in enumerate(tracer.spans):
        if i in roots:
            bench_self += own[i]
        elif rec[4] in roots:
            layer_self[rec[1].split(".")[0]] += own[i]
    total = sum(tracer.spans[i][3] - tracer.spans[i][2] for i in roots)
    for layer, s in layer_self.items():
        out[f"self.{layer}_s"] = (s, "s")
    out["self.bench_s"] = (bench_self, "s")
    out["trace.roundtrip_s"] = (total, "s")
    out["trace.accounted_share"] = (sum(layer_self.values()) / total, "ratio")
    out["trace.roundtrip_ms_p50"] = (p50_ms([t.roundtrip_s for t in trips]), "ms")
    n_round_spans = sum(1 for rec in tracer.spans
                        if rec[4] in roots or rec[1] == "roundtrip")
    out["trace.spans"] = (len(tracer.spans), "count")
    out["trace.overhead_share"] = (n_round_spans * span_cost_s / total, "ratio")

    # what every command-line call pays: a fresh interpreter on one sentence
    text, truth = first
    cmd = [sys.executable, "-m", "clprover.cli", "qbf", "eval", "--qbf", text]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out["cli.startup_ms"] = (1000 * median_probe_s(
        cmd, CLI_PROBES, env=env, expect=(0 if truth else 1,)), "ms")
    for m, n in src_lines().items():
        out[f"{m}.src_lines"] = (n, "lines")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_package():
        return 2
    from corpus import WORKLOADS, make_corpus

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; "
              f"one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    corpus = make_corpus(workload, args.seed)
    import pipeline  # noqa: F401  (so that a set-up probe pays every import)
    if args.setup_probe:
        return 0
    if not args.trace:
        setup_s = median_probe_s(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            SETUP_PROBES)

    from spans import NullTracer, Tracer, span_cost_s
    tracer = Tracer() if args.trace else NullTracer()
    start = perf_counter()
    attempted, trips, failures, digest, counts = run_loop(
        workload, corpus, args.seconds, tracer, bool(args.trace))
    wall_s = perf_counter() - start

    for note in failures[:20]:
        print("FAILED", note)
    print(f"workload {workload.name} seed {args.seed}: {attempted} sentences "
          f"in {wall_s:.1f} s, {len(failures)} failed "
          f"(failed_share {len(failures) / max(attempted, 1):.4f})")
    print(f"proofs sha256 {digest} over the first {workload.min_sentences} "
          f"sentences")
    if not trips:
        return 1

    if args.trace:
        metrics = per_layer(tracer, trips, counts, span_cost_s(), corpus[0])
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{workload.name}-{args.seed}.json")
    else:
        metrics = end_to_end(workload, trips, setup_s)
        print(f"roundtrip_ms_tail is p{workload.tail_pct} "
              f"of {len(trips)} round trips")
        for name, (value, unit) in prover_figures(trips).items():
            if name.endswith("_p50"):
                print(f"{name} {value:.3f} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
