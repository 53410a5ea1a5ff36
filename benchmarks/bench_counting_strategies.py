#!/usr/bin/env python3
"""Counting-strategy ablation: hashtree vs vertical.

Generates a synthetic dataset, runs the litemset and transformation
phases once, then times every counting pass of an AprioriAll-style
level-wise run (the length-2 occurring-pairs sweep plus each C_k pass for
k >= 3) under every strategy in ``COUNTING_STRATEGIES``. Every strategy
runs the one ``count_length2`` sweep over the same rows, so pass 2 is
timed once and that one number is recorded for each strategy. The
once-per-run setup cost is timed separately and charged to its
strategy's total, so the comparison is honest: the vertical total
includes the id-list inversion of the transformed rows. A vertical
pass keeps no state between calls — it rebuilds its candidates' prefix
lists from the base id-lists, as every pass of a real run does — so
repeated timings of one pass all measure the same work.

Counts are cross-checked per pass — any mismatch across strategies fails
the run — and the measurements are written as machine-readable JSON
(``BENCH_counting.json`` by default) via the shared results writer, so CI
can archive the perf trajectory.

A second regime rides along (skip with ``--skip-low-minsup``): the
**low-minsup end-to-end comparison**. At thresholds far below the
ablation's, the candidate family's level-wise passes grow with the
candidate sets, while the pattern-growth engine (``mine --algorithm
prefixspan``) grows with the frequent set. Each contender mines the
same dataset end to end in a subprocess under a wall-clock budget
(``--low-timeout``), so an apriori run that can't finish is recorded as
``timed_out`` instead of hanging the benchmark; whenever two runs both
complete, their maximal pattern sets are cross-checked by count and
checksum. Every completed run also reports its phase split
(litemset, transform, sequence, maximal seconds).

Run:  PYTHONPATH=src python benchmarks/bench_counting_strategies.py
      PYTHONPATH=src python benchmarks/bench_counting_strategies.py \
          --customers 2000 --minsup 0.008 --repeats 5
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from typing import Callable

from results_io import write_bench_json

from repro.core.candidates import apriori_generate
from repro.core.vertical import VerticalDatabase
from repro.core.counting import (
    COUNTING_STRATEGIES,
    count_candidates,
    count_length2,
    filter_large,
)
from repro.core.phase import CountingOptions
from repro.datagen.generator import generate_database
from repro.datagen.params import SyntheticParams
from repro.db.transform import transform_database
from repro.itemsets.apriori import find_litemsets
from repro.itemsets.litemsets import LitemsetCatalog
from repro.miner import MiningParams, mine


def best_of(repeats: int, fn: Callable[[], object]) -> float:
    """Minimum wall-clock over ``repeats`` calls (noise-resistant)."""
    timings = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - started)
    return min(timings)


#: The low-minsup contenders: the apriori flagship under its default and
#: its fastest counting backend, versus the pattern-growth engine (which
#: has no counting strategy; "hashtree" is the don't-care default).
LOWMINSUP_RUNS = (
    ("aprioriall", "hashtree"),
    ("aprioriall", "vertical"),
    ("prefixspan", "hashtree"),
)


def _lowminsup_label(algorithm: str, strategy: str) -> str:
    return algorithm if algorithm == "prefixspan" else f"{algorithm}/{strategy}"


def _child_main(args: argparse.Namespace) -> int:
    """Hidden ``--run-one`` mode: mine the configured dataset end to end
    with one (algorithm, strategy) pair and print a single JSON line —
    the subprocess half of the low-minsup regime."""
    params = SyntheticParams.from_name(args.dataset, num_customers=args.customers)
    db = generate_database(params, seed=args.seed)
    started = time.perf_counter()
    result = mine(
        db,
        MiningParams(
            minsup=args.low_minsup,
            algorithm=args.run_one,
            counting=CountingOptions(strategy=args.run_one_strategy),
        ),
    )
    elapsed = time.perf_counter() - started
    digest = hashlib.sha256(
        "\n".join(
            f"{p.sequence}|{p.count}" for p in result.patterns
        ).encode()
    ).hexdigest()[:16]
    # The maximal filter runs over the identical frequent set whichever
    # algorithm produced it, so ``discovery_seconds`` (everything before
    # that shared epilogue) is the number that isolates the engines.
    print(json.dumps({
        "seconds": round(elapsed, 6),
        "discovery_seconds": round(
            elapsed - result.timings.maximal_seconds, 6
        ),
        "patterns": len(result.patterns),
        "checksum": digest,
        "phases": result.timings.as_row(),
    }))
    return 0


def run_low_minsup_regime(args: argparse.Namespace) -> dict | None:
    """Run every contender in a budgeted subprocess; return the results
    row, or ``None`` on failure (crash, mismatch, or a prefixspan
    timeout — the engine finishing is the point of the regime)."""
    threshold = max(1, math.ceil(args.low_minsup * args.customers - 1e-9))
    print(f"\nlow-minsup regime: minsup={args.low_minsup} "
          f"(threshold ~{threshold} of {args.customers}), "
          f"{args.low_timeout:.0f}s budget per end-to-end run")
    outcomes: dict[str, dict] = {}
    for algorithm, strategy in LOWMINSUP_RUNS:
        label = _lowminsup_label(algorithm, strategy)
        command = [
            sys.executable, os.path.abspath(__file__),
            "--run-one", algorithm, "--run-one-strategy", strategy,
            "--dataset", args.dataset,
            "--customers", str(args.customers),
            "--seed", str(args.seed),
            "--low-minsup", str(args.low_minsup),
        ]
        try:
            proc = subprocess.run(
                command, capture_output=True, text=True,
                timeout=args.low_timeout,
            )
        except subprocess.TimeoutExpired:
            outcomes[label] = {
                "timed_out": True,
                "seconds": round(args.low_timeout, 6),
                "discovery_seconds": None,
                "patterns": None,
                "checksum": None,
                "phases": None,
            }
            print(f"{label:>22}: TIMED OUT after {args.low_timeout:.0f}s")
            continue
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"low-minsup run failed: {label}", file=sys.stderr)
            return None
        payload = json.loads(proc.stdout.strip().splitlines()[-1])
        outcomes[label] = {"timed_out": False, **payload}
        phases = payload["phases"]
        print(f"{label:>22}: {payload['seconds']:>8.3f}s end-to-end "
              f"({payload['discovery_seconds']:.3f}s discovery: litemset "
              f"{phases['litemset']:.3f}s, transform {phases['transform']:.3f}s, "
              f"sequence {phases['sequence']:.3f}s; maximal "
              f"{phases['maximal']:.3f}s), {payload['patterns']} maximal patterns")

    answers = {
        (o["patterns"], o["checksum"])
        for o in outcomes.values() if not o["timed_out"]
    }
    if len(answers) > 1:
        print("PATTERN MISMATCH across completed low-minsup runs",
              file=sys.stderr)
        return None
    engine = outcomes["prefixspan"]
    if engine["timed_out"]:
        print("prefixspan itself timed out — the low-minsup regime is "
              "meaningless; raise --low-timeout or --low-minsup",
              file=sys.stderr)
        return None
    apriori = {
        label: o for label, o in outcomes.items() if label != "prefixspan"
    }
    completed = {k: o for k, o in apriori.items() if not o["timed_out"]}
    if completed:
        speedup = (
            min(o["seconds"] for o in completed.values())
            / engine["seconds"]
        )
        discovery_speedup = (
            min(o["discovery_seconds"] for o in completed.values())
            / engine["discovery_seconds"]
        )
        print(f"prefixspan speedup over best completed apriori run: "
              f"{speedup:.2f}x end-to-end, {discovery_speedup:.2f}x on "
              "discovery (the maximal filter is shared work)")
    else:
        speedup = discovery_speedup = None
        print(f"every apriori run hit the {args.low_timeout:.0f}s budget; "
              f"prefixspan finished in {engine['seconds']:.3f}s")
    return {
        "pass": "lowminsup",
        "candidates": None,
        "minsup": args.low_minsup,
        "timeout_seconds": args.low_timeout,
        "runs": outcomes,
        "prefixspan_speedup_over_best_apriori":
            round(speedup, 3) if speedup is not None else None,
        "prefixspan_discovery_speedup_over_best_apriori":
            round(discovery_speedup, 3)
            if discovery_speedup is not None else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="C10-T2.5-S4-I1.25")
    parser.add_argument("--customers", type=int, default=2000)
    parser.add_argument("--minsup", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions; best (minimum) is reported")
    parser.add_argument("--max-length", type=int, default=None,
                        help="stop after this pass length")
    parser.add_argument("--max-candidates", type=int, default=150_000,
                        help="abort a k>=3 pass whose candidate set exceeds "
                        "this (guards against degenerate low absolute "
                        "thresholds, where the hash-tree pass never "
                        "finishes)")
    parser.add_argument("--output", default="BENCH_counting.json",
                        help="machine-readable results file")
    parser.add_argument("--low-minsup", type=float, default=0.008,
                        help="minsup for the end-to-end low-minsup regime "
                        "(apriori family vs the prefixspan engine)")
    parser.add_argument("--low-timeout", type=float, default=120.0,
                        help="wall-clock budget per low-minsup run; an "
                        "apriori run that exceeds it is recorded as "
                        "timed_out rather than hanging the benchmark")
    parser.add_argument("--skip-low-minsup", action="store_true",
                        help="skip the end-to-end low-minsup regime")
    # Internal: the subprocess half of the low-minsup regime.
    parser.add_argument("--run-one", choices=[a for a, _ in LOWMINSUP_RUNS],
                        default=None, help=argparse.SUPPRESS)
    parser.add_argument("--run-one-strategy", default="hashtree",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.run_one is not None:
        return _child_main(args)

    print(f"machine: {os.cpu_count()} CPUs")
    print(f"dataset: {args.dataset}, |D|={args.customers}, minsup={args.minsup}")

    params = SyntheticParams.from_name(args.dataset, num_customers=args.customers)
    db = generate_database(params, seed=args.seed)
    threshold = db.threshold(args.minsup)
    litemsets = find_litemsets(db, args.minsup)
    tdb = transform_database(db, LitemsetCatalog.from_result(litemsets))
    print(f"transformed: {len(tdb)} customers, {len(litemsets)} litemsets, "
          f"threshold {threshold}")
    if threshold < 2:
        print(f"threshold {threshold} is degenerate (nearly everything is "
              "large and candidate sets explode); raise --minsup or "
              "--customers", file=sys.stderr)
        return 1

    invert_seconds = best_of(
        args.repeats, lambda: VerticalDatabase.invert(tdb.sequences)
    )
    databases = {
        "hashtree": tdb.sequences,
        # One vertical database for the whole run, as in a mining run;
        # a pass keeps no state in it, so repeats need no reset.
        "vertical": VerticalDatabase.invert(tdb.sequences),
    }

    rows: list[dict] = []
    totals = {strategy: 0.0 for strategy in COUNTING_STRATEGIES}
    totals["vertical"] += invert_seconds
    rows.append({
        "pass": "invert",
        "candidates": None,
        "seconds": {"vertical": round(invert_seconds, 6)},
    })

    print(f"\n{'pass':>6} {'|C_k|':>8}"
          + "".join(f" {s:>10}" for s in COUNTING_STRATEGIES))

    # Drive the level-wise passes off the hashtree anchor counts.
    k = 2
    large = None
    while True:
        if args.max_length is not None and k > args.max_length:
            break
        if k == 2:
            candidates = None  # occurring-pairs sweep, no materialized C_2
            run = {
                strategy: (lambda s=strategy: count_length2(databases[s]))
                for strategy in COUNTING_STRATEGIES
            }
        else:
            candidates = apriori_generate(large.keys())
            if not candidates:
                break
            if len(candidates) > args.max_candidates:
                print(f"stopping before pass {k}: |C_{k}|={len(candidates)} "
                      f"exceeds --max-candidates {args.max_candidates}",
                      file=sys.stderr)
                break
            run = {
                strategy: (
                    lambda s=strategy: count_candidates(
                        databases[s], candidates, strategy=s
                    )
                )
                for strategy in COUNTING_STRATEGIES
            }
        counts = {strategy: fn() for strategy, fn in run.items()}
        anchor = counts["hashtree"]
        for strategy in [s for s in COUNTING_STRATEGIES if s != "hashtree"]:
            mismatch = (
                counts[strategy] != anchor
                if k > 2
                else dict(counts[strategy]) != dict(anchor)
            )
            if mismatch:
                print(f"COUNT MISMATCH at pass {k}: {strategy} != hashtree",
                      file=sys.stderr)
                return 1
        if k == 2:
            # One sweep over the same rows whatever the strategy: timing
            # it per strategy would only measure run-order noise.
            sweep = best_of(args.repeats, run["hashtree"])
            seconds = dict.fromkeys(run, sweep)
        else:
            seconds = {
                strategy: best_of(args.repeats, fn)
                for strategy, fn in run.items()
            }
        for strategy, elapsed in seconds.items():
            totals[strategy] += elapsed
        num_candidates = len(anchor) if k == 2 else len(candidates)
        rows.append({
            "pass": k,
            "candidates": num_candidates,
            "seconds": {s: round(v, 6) for s, v in seconds.items()},
        })
        print(f"{k:>6} {num_candidates:>8}"
              + "".join(f" {seconds[s]:>10.4f}" for s in COUNTING_STRATEGIES))
        large = filter_large(dict(anchor), threshold)
        if not large:
            break
        k += 1

    print(f"\n{'total':>6} {'':>8}"
          + "".join(f" {totals[s]:>10.4f}" for s in COUNTING_STRATEGIES)
          + f"   (vertical total includes one-time invert "
          f"{invert_seconds:.4f}s)")
    speedup = totals["hashtree"] / totals["vertical"] if totals["vertical"] else 0.0
    print(f"vertical speedup over hashtree: {speedup:.2f}x")

    rows.append({
        "pass": "total",
        "candidates": None,
        "seconds": {s: round(v, 6) for s, v in totals.items()},
        "vertical_speedup_over_hashtree": round(speedup, 3),
    })
    if not args.skip_low_minsup:
        low_row = run_low_minsup_regime(args)
        if low_row is None:
            return 1
        rows.append(low_row)
    write_bench_json(
        args.output,
        "counting_strategies",
        config=vars(args),
        rows=rows,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
