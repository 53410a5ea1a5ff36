#!/usr/bin/env python3
"""End-to-end speedup benchmark for PrefixSpan's seed-sharded growth.

Generates a synthetic dataset, then times a whole
``mine(..., algorithm="prefixspan")`` run — seed scan, growth and the
maximal phase — serially and at each ``--workers`` value. Prints one row
per worker count with the speedup over serial, and exits 1 if any run's
patterns differ from the serial run's. The apriori family counts
serially, so PrefixSpan is the one engine this benchmark can time.

Run:  PYTHONPATH=src python benchmarks/bench_parallel.py
      PYTHONPATH=src python benchmarks/bench_parallel.py --customers 8000 --workers 1 2 4
      PYTHONPATH=src python benchmarks/bench_parallel.py --output BENCH_parallel.json

This is a plain script rather than a pytest-benchmark module because its
subject is wall-clock *scaling*, not statistical microtiming — and so it
can run on machines without pytest installed. Only the growth phase is
sharded, so the speedup is bounded by its share of the run; on
single-core machines (e.g. a 1-CPU container) the parallel rows measure
pure pool overhead and will not show a speedup, because there is no
hardware to run the shards on.

With ``--output`` the measurements are also written as machine-readable
JSON through the shared results writer (same envelope as
``bench_counting_strategies.py``), for CI artifact capture.
"""

from __future__ import annotations

import argparse
import os
import time

from results_io import write_bench_json

from repro.datagen.generator import generate_database
from repro.datagen.params import SyntheticParams
from repro.db.database import SequenceDatabase
from repro.miner import MiningParams, mine


def timed_mine(
    db: SequenceDatabase, minsup: float, workers: int, repeats: int
) -> tuple[float, list[tuple[str, int]]]:
    """Best (minimum) wall-clock of ``repeats`` whole PrefixSpan mines,
    and the patterns of the last one."""
    params = MiningParams(minsup=minsup, algorithm="prefixspan", workers=workers)
    timings = []
    for _ in range(repeats):
        started = time.perf_counter()
        result = mine(db, params)
        timings.append(time.perf_counter() - started)
    patterns = [(str(p.sequence), p.count) for p in result.patterns]
    return min(timings), patterns


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="C10-T2.5-S4-I1.25")
    parser.add_argument("--customers", type=int, default=5000)
    parser.add_argument("--minsup", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions; best (minimum) is reported")
    parser.add_argument("--output", default=None,
                        help="also write results as JSON to this file")
    args = parser.parse_args()

    print(f"machine: {os.cpu_count()} CPUs")
    print(f"dataset: {args.dataset}, |D|={args.customers}, "
          f"minsup={args.minsup}, algorithm=prefixspan")

    params = SyntheticParams.from_name(args.dataset, num_customers=args.customers)
    db = generate_database(params, seed=args.seed)

    # The baseline is always a measured serial (workers=1) run, even
    # when 1 is not in --workers, so 'speedup' means speedup over serial.
    baseline, serial = timed_mine(db, args.minsup, 1, args.repeats)
    print(f"serial run: {len(serial)} maximal patterns")

    rows = []
    print(f"\n{'workers':>8} {'seconds':>9} {'speedup':>8}   patterns")
    for workers in args.workers:
        if workers == 1:
            elapsed, patterns = baseline, serial
        else:
            elapsed, patterns = timed_mine(
                db, args.minsup, workers, args.repeats
            )
        identical = patterns == serial
        print(f"{workers:>8} {elapsed:>9.3f} {baseline / elapsed:>7.2f}x   "
              f"{'identical' if identical else 'MISMATCH'}")
        rows.append({
            "workers": workers,
            "seconds": round(elapsed, 6),
            "speedup": round(baseline / elapsed, 3),
            "patterns_identical": identical,
        })
        if not identical:
            return 1
    if args.output:
        write_bench_json(
            args.output,
            "parallel_prefixspan",
            config=vars(args),
            rows=rows,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
