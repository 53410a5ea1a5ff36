#!/usr/bin/env python3
"""Speedup benchmark for the sharded parallel counting engine.

Generates a synthetic dataset, runs the litemset and transformation
phases once, builds a realistic candidate set (C_3 joined from the large
2-sequences), then times the *same counting pass* — the dominant cost of
the sequence phase — serially and with 2 and 4 worker processes. Prints
one row per configuration with the speedup over serial.

Run:  PYTHONPATH=src python benchmarks/bench_parallel.py
      PYTHONPATH=src python benchmarks/bench_parallel.py --customers 10000 --workers 1 2 4 8
      PYTHONPATH=src python benchmarks/bench_parallel.py --output BENCH_parallel.json

This is a plain script rather than a pytest-benchmark module because its
subject is wall-clock *scaling*, not statistical microtiming — and so it
can run on machines without pytest installed. Expect near-linear scaling
up to the physical core count; on single-core machines (e.g. a 1-CPU
container) the parallel rows measure pure pool overhead and will not show
a speedup, because there is no hardware to run the shards on.

With ``--output`` the measurements are also written as machine-readable
JSON through the shared results writer (same envelope as
``bench_counting_strategies.py``), for CI artifact capture.
"""

from __future__ import annotations

import argparse
import os
import time
from typing import Callable

from results_io import write_bench_json

from repro.core.candidates import apriori_generate
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


def best_of(repeats: int, fn: Callable[[], object]) -> float:
    """Minimum wall-clock over ``repeats`` calls (noise-resistant)."""
    timings = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - started)
    return min(timings)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="C10-T2.5-S4-I1.25")
    parser.add_argument("--customers", type=int, default=5000)
    parser.add_argument("--minsup", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--strategy", choices=COUNTING_STRATEGIES,
                        default="hashtree",
                        help="hashtree shards customers, vertical shards "
                        "candidates")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions; best (minimum) is reported")
    parser.add_argument("--output", default=None,
                        help="also write results as JSON to this file")
    args = parser.parse_args()

    print(f"machine: {os.cpu_count()} CPUs")
    print(f"dataset: {args.dataset}, |D|={args.customers}, "
          f"minsup={args.minsup}, strategy={args.strategy}")

    params = SyntheticParams.from_name(args.dataset, num_customers=args.customers)
    db = generate_database(params, seed=args.seed)
    threshold = db.threshold(args.minsup)
    litemsets = find_litemsets(db, args.minsup)
    tdb = transform_database(db, LitemsetCatalog.from_result(litemsets))

    large2 = filter_large(count_length2(tdb.sequences), threshold)
    candidates = apriori_generate(large2.keys())
    print(f"counting pass under test: |C_3|={len(candidates)} candidates "
          f"over {len(tdb)} transformed customers "
          f"(threshold {threshold}, |L_2|={len(large2)})")
    if not candidates:
        print("no length-3 candidates at this minsup; lower --minsup")
        return 1

    # Mirror the production path: the vertical strategy compiles and
    # inverts the database once up front (workers inherit/receive the
    # inversion), so preparation is not re-timed inside every measured
    # pass.
    counting = CountingOptions(strategy=args.strategy)
    sequences = counting.prepare_sequences(tdb.sequences)

    # The baseline is always a measured serial (workers=1) pass, even
    # when 1 is not in --workers, so 'speedup' means speedup over serial.
    serial = count_candidates(sequences, candidates, strategy=args.strategy)
    baseline = best_of(
        args.repeats,
        lambda: count_candidates(sequences, candidates, strategy=args.strategy),
    )

    rows = []
    print(f"\n{'workers':>8} {'seconds':>9} {'speedup':>8}   counts")
    for workers in args.workers:
        if workers == 1:
            elapsed, counts = baseline, serial
        else:
            elapsed = best_of(
                args.repeats,
                lambda: count_candidates(
                    sequences, candidates,
                    strategy=args.strategy, workers=workers,
                ),
            )
            counts = count_candidates(
                sequences, candidates, strategy=args.strategy, workers=workers
            )
        identical = "identical" if counts == serial else "MISMATCH"
        print(f"{workers:>8} {elapsed:>9.3f} {baseline / elapsed:>7.2f}x   {identical}")
        rows.append({
            "workers": workers,
            "seconds": round(elapsed, 6),
            "speedup": round(baseline / elapsed, 3),
            "counts_identical": counts == serial,
        })
        if counts != serial:
            return 1
    if args.output:
        write_bench_json(
            args.output,
            "parallel_counting",
            config=vars(args),
            rows=rows,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
