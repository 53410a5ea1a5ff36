"""The process that does a mining or ingest workload's work.

Started fresh for every run, so its peak RSS is the workload's alone:

    python3 perfbench/worker.py SPEC.json RESULT.json

``SPEC.json`` names the input files ``run.py`` generated and the work to
do; the worker times set-up and operations, digests every result, and
writes ``RESULT.json``, whose digests ``run.py`` checks.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Callable

import repro.incremental
import repro.io.csvio
import repro.io.patterns
import repro.io.state
from repro.db.partitioned import MINING_STATE_NAME, PartitionedDatabase
from repro.io.spmf import iter_spmf, read_spmf
from repro.miner import MiningParams, mine

from inputs import pattern_digest
from tracing import Tracer, install_mining

#: Set-up is repeated and its median reported, so one slow start does
#: not move ``setup_s``.
SETUP_REPS = 7
#: Operations per timed loop even when the window has closed, so every
#: run has a median (and a traced run an untraced half to compare with).
MIN_OPS = 2
#: Binlog partitions of the ingest-update base database.
PARTITIONS = 4


def _timed(function: Callable[[], Any]) -> tuple[float, Any]:
    started = time.perf_counter()
    result = function()
    return time.perf_counter() - started, result


def _op_record(seconds: float, patterns: Any) -> dict[str, Any]:
    count, sha = pattern_digest(patterns)
    return {"seconds": seconds, "count": count, "sha256": sha}


def _loop(
    kind: str,
    function: Callable[[], Any],
    window: float,
    tracer: Tracer | None,
    *,
    min_ops: int = MIN_OPS,
) -> list[dict[str, Any]]:
    """Run ``function`` until ``window`` seconds have passed and at least
    ``min_ops`` times; traced operations are root spans of ``tracer``."""
    ops: list[dict[str, Any]] = []
    started = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - started < window:
        if tracer is None:
            seconds, result = _timed(function)
        else:
            with tracer.operation(kind):
                seconds, result = _timed(function)
        ops.append(_op_record(seconds, result.patterns))
    return ops


def _traced(tracer: Tracer, work: Callable[[], Any]) -> Any:
    uninstall = install_mining(tracer)
    try:
        return work()
    finally:
        uninstall()


def run_mine(spec: dict[str, Any]) -> dict[str, Any]:
    """Load the SPMF input ``SETUP_REPS`` times, then mine it until the
    window closes. A traced run splits the window: untraced operations
    first, then traced ones, so the overhead is measured in-run."""
    setup = []
    for _ in range(SETUP_REPS):
        seconds, db = _timed(lambda: read_spmf(spec["input"]))
        setup.append(seconds)
    params = MiningParams(minsup=spec["minsup"], algorithm=spec["algorithm"])
    work = lambda: mine(db, params)  # noqa: E731
    if not spec["trace"]:
        return {"setup": setup, "ops": _loop("mine", work, spec["seconds"], None)}
    window = spec["seconds"] / 2
    tracer = Tracer()
    out = {"setup": setup, "ops": _loop("mine", work, window, None)}
    out["traced_ops"] = _traced(tracer, lambda: _loop("mine", work, window, tracer))
    out["layers"] = {"mine": tracer.per_op("mine")[1]}
    return out


def _create_base(spec: dict[str, Any], directory: Path) -> None:
    db = PartitionedDatabase.create(
        directory, iter_spmf(spec["base"]), partitions=PARTITIONS
    )
    result = mine(db, MiningParams(minsup=spec["minsup"]), collect_state=True)
    repro.io.state.write_mining_state(result.state, directory / MINING_STATE_NAME)


def _ingest(directory: Path, delta: str) -> Any:
    """One delta, from new data to updated patterns and state on disk."""
    customers = repro.io.csvio.read_database_csv(delta)
    PartitionedDatabase.open(directory).append_delta(iter(customers))
    db = PartitionedDatabase.open(directory)
    state_path = directory / MINING_STATE_NAME
    state = repro.io.state.read_mining_state(state_path)
    outcome = repro.incremental.update_mining(db, state)
    repro.io.state.write_mining_state(outcome.state, state_path)
    repro.io.patterns.write_patterns(outcome.result.patterns, directory / "patterns.txt")
    return outcome.result


def _round(
    spec: dict[str, Any], base: Path, directory: Path, tracer: Tracer | None
) -> dict[str, Any]:
    """One round on a fresh copy of the base: ingest the whole delta
    chain, then re-mine the grown database out of core once."""
    shutil.rmtree(directory, ignore_errors=True)
    shutil.copytree(base, directory)
    deltas = iter(spec["deltas"])
    ingest = lambda: _ingest(directory, next(deltas))  # noqa: E731
    remine = lambda: mine(  # noqa: E731
        PartitionedDatabase.open(directory), MiningParams(minsup=spec["minsup"])
    )
    return {
        "ingests": _loop("ingest", ingest, 0.0, tracer, min_ops=len(spec["deltas"])),
        "remine": _loop("remine", remine, 0.0, tracer, min_ops=1)[0],
    }


def _rounds(
    spec: dict[str, Any], base: Path, window: float, tracer: Tracer | None
) -> list[dict[str, Any]]:
    rounds: list[dict[str, Any]] = []
    started = time.perf_counter()
    while len(rounds) < MIN_OPS or time.perf_counter() - started < window:
        rounds.append(_round(spec, base, base.with_name("grown"), tracer))
    return rounds


def run_ingest(spec: dict[str, Any]) -> dict[str, Any]:
    """Build the base ``SETUP_REPS`` times, then run rounds (the delta
    chain on a fresh copy of the base, then a re-mine) until the window
    closes. A traced run splits the window: untraced rounds first."""
    root = Path(spec["workdir"])
    setup = []
    base = root / "base"
    for _ in range(SETUP_REPS):
        shutil.rmtree(base, ignore_errors=True)
        seconds, _ = _timed(lambda: _create_base(spec, base))
        setup.append(seconds)
    if not spec["trace"]:
        return {"setup": setup, "rounds": _rounds(spec, base, spec["seconds"], None)}
    window = spec["seconds"] / 2
    tracer = Tracer()
    out = {"setup": setup, "rounds": _rounds(spec, base, window, None)}
    out["traced_rounds"] = _traced(tracer, lambda: _rounds(spec, base, window, tracer))
    out["layers"] = {kind: tracer.per_op(kind)[1] for kind in ("ingest", "remine")}
    return out


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    out = {"mine": run_mine, "ingest": run_ingest}[spec["kind"]](spec)
    # ru_maxrss is in KiB on Linux.
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(result_path).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
