#!/usr/bin/env python3
"""Out-of-core mining benchmark: peak RSS and wall time vs the in-memory path.

Generates one synthetic dataset twice on disk — as an SPMF text file (the
in-memory path's input) and as a partitioned binlog database streamed
straight from the generator (``generate --stream-out``'s API) — then
mines it both ways **in separate child processes** and compares:

* ``peak_rss_mb`` — the child's ``ru_maxrss`` high-water mark, the
  honest number: RSS is monotone within a process, so each measurement
  must own a fresh interpreter;
* ``load_rss_mb`` — RSS right after the database is opened/loaded,
  before mining: for the in-memory path this exposes the resident cost
  of holding every customer as Python objects, which is what the
  partitioned path avoids;
* wall-clock seconds and a digest of the mined pattern lines — the two
  children must produce byte-identical patterns or the run fails.

The partition count is picked from ``--max-memory-mb`` exactly as the
CLI does, so the committed JSON demonstrates mining under a budget below
the dataset's in-memory footprint (compare ``max_memory_mb`` in the
config against the in-memory row's ``load_rss_mb``).

Run:  PYTHONPATH=src python benchmarks/bench_outofcore.py
      PYTHONPATH=src python benchmarks/bench_outofcore.py \
          --customers 30000 --minsup 0.05 --max-memory-mb 32
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.db.partitioned import PartitionedDatabase

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from results_io import write_bench_json  # noqa: E402


def rss_mb() -> float:
    """Current peak RSS of this process in MB.

    ``ru_maxrss`` is kilobytes on Linux but **bytes** on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def _mine_and_report(
    db: "PartitionedDatabase", args: argparse.Namespace, load_rss: float
) -> None:
    from repro.miner import MiningParams, mine
    from repro.core.phase import CountingOptions

    params = MiningParams(
        minsup=args.minsup,
        algorithm=args.algorithm,
        counting=CountingOptions(strategy=args.strategy),
    )
    started = time.perf_counter()
    result = mine(db, params)
    elapsed = time.perf_counter() - started
    digest = hashlib.sha256(
        "\n".join(str(p) for p in result.patterns).encode()
    ).hexdigest()
    print(json.dumps({
        "load_rss_mb": round(load_rss, 2),
        "peak_rss_mb": round(rss_mb(), 2),
        "seconds": round(elapsed, 3),
        "num_patterns": result.num_patterns,
        "digest": digest,
    }))


def child_inmemory(args: argparse.Namespace) -> None:
    from repro.io.spmf import read_spmf

    db = read_spmf(args.spmf)
    _mine_and_report(db, args, rss_mb())


def child_outofcore(args: argparse.Namespace) -> None:
    from repro.db.partitioned import PartitionedDatabase

    db = PartitionedDatabase.open(args.partition_dir)
    _mine_and_report(db, args, rss_mb())


def run_child(mode: str, args: argparse.Namespace, paths: dict) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--_child", mode,
        "--minsup", str(args.minsup), "--algorithm", args.algorithm,
        "--strategy", args.strategy,
        "--spmf", paths["spmf"], "--partition-dir", paths["partition_dir"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        command, capture_output=True, text=True, env=env, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    from repro.core.counting import COUNTING_STRATEGIES

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--customers", type=int, default=20000)
    parser.add_argument("--dataset", default="C10-T2.5-S4-I1.25")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--minsup", type=float, default=0.05)
    parser.add_argument("--algorithm", default="aprioriall")
    parser.add_argument("--strategy", choices=COUNTING_STRATEGIES,
                        default="hashtree")
    parser.add_argument("--max-memory-mb", type=float, default=32.0,
                        help="per-pass memory budget for the out-of-core "
                        "run; picks the partition count from the SPMF "
                        "file size, as the CLI does")
    parser.add_argument("--output", default="BENCH_outofcore.json")
    parser.add_argument("--_child", default=None, choices=
                        ("inmemory", "outofcore"), help=argparse.SUPPRESS)
    parser.add_argument("--spmf", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--partition-dir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args._child == "inmemory":
        child_inmemory(args)
        return 0
    if args._child == "outofcore":
        child_outofcore(args)
        return 0

    from repro.datagen.generator import iter_customer_sequences
    from repro.datagen.params import SyntheticParams
    from repro.db.partitioned import (
        PartitionedDatabase,
        partitions_for_budget_from_text,
    )
    from repro.io.spmf import write_spmf

    params = SyntheticParams.from_name(
        args.dataset, num_customers=args.customers
    )
    with tempfile.TemporaryDirectory(prefix="bench_outofcore_") as workdir:
        spmf_path = os.path.join(workdir, "data.spmf")
        partition_dir = os.path.join(workdir, "parts")
        write_spmf(iter_customer_sequences(params, seed=args.seed), spmf_path)
        partitions = partitions_for_budget_from_text(
            os.path.getsize(spmf_path), args.max_memory_mb
        )
        pdb = PartitionedDatabase.create(
            partition_dir,
            iter_customer_sequences(params, seed=args.seed),
            partitions=partitions,
        )
        stats = pdb.stats()
        print(
            f"dataset: {stats.num_customers} customers, "
            f"{stats.num_transactions} transactions, "
            f"{partitions} partitions, budget {args.max_memory_mb} MB"
        )
        paths = {"spmf": spmf_path, "partition_dir": partition_dir}
        rows = []
        for mode in ("inmemory", "outofcore"):
            report = run_child(mode, args, paths)
            rows.append({"mode": mode, **report})
            print(
                f"{mode:>10}: peak RSS {report['peak_rss_mb']:8.1f} MB  "
                f"(after load {report['load_rss_mb']:8.1f} MB)  "
                f"{report['seconds']:7.2f}s  "
                f"{report['num_patterns']} patterns"
            )
        if rows[0]["digest"] != rows[1]["digest"]:
            print("FAIL: in-memory and out-of-core patterns differ",
                  file=sys.stderr)
            return 1
        print("patterns identical across paths")
        rows_meta = {
            "partitions": partitions,
            "spmf_bytes": os.path.getsize(spmf_path),
            "binlog_bytes": pdb.disk_bytes(),
        }
    write_bench_json(
        args.output,
        "outofcore",
        config={
            "customers": args.customers,
            "dataset": args.dataset,
            "seed": args.seed,
            "minsup": args.minsup,
            "algorithm": args.algorithm,
            "strategy": args.strategy,
            "max_memory_mb": args.max_memory_mb,
            **rows_meta,
        },
        rows=rows,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
