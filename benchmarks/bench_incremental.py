#!/usr/bin/env python3
"""Incremental update vs full re-mine benchmark.

The scenario the incremental subsystem exists for: a large partitioned
base database that was mined once (with ``collect_state``), then grows
by a small delta. As in the repo benchmark's ``ingest-update`` workload,
``EXTEND_SHARE`` (20%) of the delta's rows extend existing base
customers — overlay records, each the first two transactions of a fresh
customer — and the rest are new customers. The benchmark measures, in
order:

* ``base_mine`` — the initial full mine of the base (with state
  collection), for context;
* ``append`` — streaming the delta into the database as a fresh binlog
  partition plus an overlay file (no existing file rewritten), which
  includes checking that every overlay id names an existing customer;
* ``update`` — the incremental re-mine from the snapshot
  (:func:`repro.incremental.update.update_mining`);
* ``full_remine`` — the five-phase pipeline over the grown database,
  what every new day of data would cost without the subsystem.

The update and the full re-mine must produce byte-identical pattern
lines (the run fails otherwise — this doubles as a large-scale
differential test), and the committed JSON's ``speedup`` row records
``full_remine_seconds / update_seconds``.

Run:  PYTHONPATH=src python benchmarks/bench_incremental.py
      PYTHONPATH=src python benchmarks/bench_incremental.py \
          --customers 2000 --output BENCH_incremental_ci.json
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import random
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from results_io import write_bench_json  # noqa: E402

from repro.miner import MiningParams, MiningResult, mine  # noqa: E402
from repro.core.counting import COUNTING_STRATEGIES  # noqa: E402
from repro.core.phase import CountingOptions  # noqa: E402
from repro.datagen.generator import iter_customer_sequences  # noqa: E402
from repro.datagen.params import SyntheticParams  # noqa: E402
from repro.db.database import CustomerSequence  # noqa: E402
from repro.db.partitioned import (  # noqa: E402
    MINING_STATE_NAME,
    PartitionedDatabase,
)
from repro.incremental import update_mining  # noqa: E402
from repro.io.state import read_mining_state, write_mining_state  # noqa: E402

#: Share of the delta's rows that extend existing base customers, as in
#: ``perfbench/inputs.py``: without overlays the benchmark would never
#: run the append's overlay-id check or the update's pre-delta fetch.
EXTEND_SHARE = 0.2


def pattern_digest(result: MiningResult) -> str:
    return hashlib.sha256(
        "\n".join(str(p) for p in result.patterns).encode()
    ).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--customers", type=int, default=40000,
                        help="base database size (the delta comes on top)")
    parser.add_argument("--delta-fraction", type=float, default=0.05,
                        help="delta size as a fraction of the base")
    parser.add_argument("--dataset", default="C10-T2.5-S4-I1.25")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--minsup", type=float, default=0.05)
    parser.add_argument("--algorithm", default="aprioriall")
    parser.add_argument("--strategy", choices=COUNTING_STRATEGIES,
                        default="hashtree")
    parser.add_argument("--partitions", type=int, default=3)
    parser.add_argument("--output", default="BENCH_incremental.json")
    args = parser.parse_args()

    num_delta = max(1, int(args.customers * args.delta_fraction))
    num_extend = int(num_delta * EXTEND_SHARE)
    total = args.customers + num_delta
    params = SyntheticParams.from_name(args.dataset, num_customers=total)
    mining_params = MiningParams(
        minsup=args.minsup,
        algorithm=args.algorithm,
        counting=CountingOptions(strategy=args.strategy),
    )
    rows = []

    with tempfile.TemporaryDirectory(prefix="bench-incremental-") as tmp:
        directory = os.path.join(tmp, "db")
        # One deterministic customer stream, split base | delta: the
        # base goes straight to disk partitions, the delta (the small
        # side) is held as the append source. The first ``num_extend``
        # delta customers lend their first two transactions to seeded
        # random base customers; the others are appended as new.
        stream = iter_customer_sequences(params, seed=args.seed)
        db = PartitionedDatabase.create(
            directory,
            itertools.islice(stream, args.customers),
            partitions=args.partitions,
        )
        fresh = list(stream)
        extended = random.Random(args.seed).sample(
            range(1, args.customers + 1), num_extend
        )
        delta = sorted(
            [
                CustomerSequence(customer_id=cid, events=donor.events[:2])
                for cid, donor in zip(extended, fresh)
            ]
            + fresh[num_extend:],
            key=lambda customer: customer.customer_id,
        )

        started = time.perf_counter()
        base_result = mine(db, mining_params, collect_state=True)
        base_seconds = time.perf_counter() - started
        state_path = os.path.join(directory, MINING_STATE_NAME)
        write_mining_state(base_result.state, state_path)
        rows.append({
            "mode": "base_mine",
            "customers": args.customers,
            "seconds": round(base_seconds, 3),
            "num_patterns": base_result.num_patterns,
            "state_sequence_counts": len(base_result.state.sequence_counts),
            "state_bytes": os.path.getsize(state_path),
        })
        print(f"base mine: {base_seconds:.2f}s, "
              f"{base_result.num_patterns} patterns")

        started = time.perf_counter()
        db.append_delta(delta, partitions=1)
        append_seconds = time.perf_counter() - started
        rows.append({
            "mode": "append",
            "customers": num_delta,
            "overlay_customers": num_extend,
            "seconds": round(append_seconds, 3),
        })
        print(f"append: {num_delta} customers ({num_extend} overlays) "
              f"in {append_seconds:.2f}s")

        reopened = PartitionedDatabase.open(directory)
        state = read_mining_state(state_path)
        started = time.perf_counter()
        outcome = update_mining(reopened, state, strategy=args.strategy)
        update_seconds = time.perf_counter() - started
        update_digest = pattern_digest(outcome.result)
        stats = outcome.update_stats
        rows.append({
            "mode": "update",
            "seconds": round(update_seconds, 3),
            "num_patterns": outcome.result.num_patterns,
            "digest": update_digest,
            "full_scan_passes": stats.full_scan_passes,
            "cached_sequence_candidates": stats.cached_sequence_candidates,
            "new_sequence_candidates": stats.new_sequence_candidates,
            "promoted_from_border": stats.promoted_from_border,
            "demoted_from_large": stats.demoted_from_large,
        })
        print(f"update: {update_seconds:.2f}s "
              f"({stats.summary()})")

        started = time.perf_counter()
        full_result = mine(reopened, mining_params)
        full_seconds = time.perf_counter() - started
        full_digest = pattern_digest(full_result)
        rows.append({
            "mode": "full_remine",
            "seconds": round(full_seconds, 3),
            "num_patterns": full_result.num_patterns,
            "digest": full_digest,
        })
        print(f"full re-mine: {full_seconds:.2f}s, "
              f"{full_result.num_patterns} patterns")

        if update_digest != full_digest:
            print("FAIL: update and full re-mine disagree", file=sys.stderr)
            return 1
        speedup = full_seconds / update_seconds if update_seconds else 0.0
        rows.append({
            "mode": "speedup",
            "update_vs_full_remine": round(speedup, 2),
        })
        print(f"speedup: update is {speedup:.1f}x faster than full re-mine")

    write_bench_json(
        args.output,
        "incremental",
        config={
            "customers": args.customers,
            "delta_customers": num_delta,
            "delta_fraction": args.delta_fraction,
            "overlay_customers": num_extend,
            "extend_share": EXTEND_SHARE,
            "dataset": args.dataset,
            "seed": args.seed,
            "minsup": args.minsup,
            "algorithm": args.algorithm,
            "strategy": args.strategy,
            "partitions": args.partitions,
        },
        rows=rows,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
