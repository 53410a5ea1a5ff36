"""The repository's benchmark: one workload per run, checked and measured.

    python3 perfbench/run.py --workload mine-apriori --seed 1 --seconds 20 --trace 0

Run from the repository root. The run generates its inputs from
``--seed`` (see ``inputs.py``), computes the reference outputs outside
the timed region, does the workload's work in fresh processes
(``worker.py``, or ``serve.py`` plus this process's load generator),
checks every output, prints each metric by name with its unit, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the per-layer split from the benchmark's own spans
(``tracing.py``). The exit code is 1 when an output check fails, 2 when
the program's source is missing. ``--smoke`` runs toy sizes, for the
benchmark's own tests. The layer -> metric -> workload map is LAYERS.md.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SOURCE = ROOT / "src"

WORKLOADS = ("mine-apriori", "mine-growth", "ingest-update", "serve-mixed")

#: The workload sizes, and the toy sizes of ``--smoke``.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "mine-apriori": {"customers": 1000, "minsup": 0.0125},
        "mine-growth": {"customers": 1000, "minsup": 0.011},
        "ingest-update": {"customers": 3000, "minsup": 0.05, "deltas": 8, "delta_customers": 150},
        "serve-mixed": {"customers": 2000, "minsup": 0.01, "alt_minsup": 0.012, "queries": 200},
    },
    "smoke": {
        "mine-apriori": {"customers": 120, "minsup": 0.05},
        "mine-growth": {"customers": 120, "minsup": 0.05},
        "ingest-update": {"customers": 200, "minsup": 0.1, "deltas": 2, "delta_customers": 20},
        "serve-mixed": {"customers": 120, "minsup": 0.05, "alt_minsup": 0.06, "queries": 20},
    },
}

#: ``(name, unit)`` of every metric of an untraced run ...
END_TO_END = (("setup_s", "s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB"))
#: ... and of a traced one. A metric a workload's layers never touch
#: reads 0 there.
PER_LAYER = (
    ("itemsets.find_litemsets_s", "s"),
    ("itemsets.candidates", "count"),
    ("itemsets.pass2_candidates", "count"),
    ("itemsets.yield", "ratio"),
    ("db.transform_s", "s"),
    ("core.sequence_phase_s", "s"),
    ("core.candidates_counted", "count"),
    ("core.yield", "ratio"),
    ("core.prefixspan_s", "s"),
    ("core.prefixspan.frequent", "count"),
    ("core.maximal_s", "s"),
    ("core.maximal.in", "count"),
    ("core.maximal.out", "count"),
    ("db.partitioned.open_s", "s"),
    ("db.partitioned.append_delta_s", "s"),
    ("db.partitioned.partition_loads", "count"),
    ("io.csv.read_s", "s"),
    ("io.binlog.bytes_read", "bytes"),
    ("io.binlog.bytes_written", "bytes"),
    ("io.fsops.fsync", "count"),
    ("io.fsops.replace", "count"),
    ("io.state.read_s", "s"),
    ("io.state.write_s", "s"),
    ("io.state.bytes", "bytes"),
    ("io.patterns.write_s", "s"),
    ("incremental.update_mining_s", "s"),
    ("incremental.full_scan_passes", "count"),
    ("incremental.cached_candidates", "count"),
    ("incremental.new_candidates", "count"),
    ("incremental.promoted", "count"),
    ("serving.index.match_ms", "ms"),
    ("serving.index.predict_ms", "ms"),
    ("serving.parse_ms", "ms"),
    ("serving.payload_ms", "ms"),
    ("serving.server.self_ms", "ms"),
    ("serving.match.returned", "count"),
    ("serving.index.build_s", "s"),
    ("serving.index.nodes", "count"),
    ("miner.other_s", "s"),
    ("trace.layer_share", "ratio"),
    ("trace.overhead_ms", "ms"),
)

#: Server starts per run; ``setup_s`` is their median.
SERVER_STARTS = 3
#: No run may outlast this, set-up included.
SUBPROCESS_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not an output-check failure)."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SOURCE), str(HERE)])
    return env


def _median_ms(seconds: Sequence[float]) -> float:
    return statistics.median(seconds) * 1000


def _mean_s(ops: Sequence[dict[str, Any]]) -> float:
    """Mean operation seconds: the per-layer means add up to this."""
    return statistics.fmean(op["seconds"] for op in ops)


# ---------------------------------------------------------------- mining


def _reference(db: Any, minsup: float, algorithm: str) -> tuple[int, str]:
    """``(count, sha256)`` of the *other* engine's patterns on ``db``:
    prefixspan checks aprioriall, vertical aprioriall checks prefixspan."""
    from repro.core.phase import CountingOptions
    from repro.miner import MiningParams, mine

    from inputs import pattern_digest

    if algorithm == "prefixspan":
        params = MiningParams(
            minsup=minsup, counting=CountingOptions(strategy="vertical")
        )
    else:
        params = MiningParams(minsup=minsup, algorithm="prefixspan")
    return pattern_digest(mine(db, params).patterns)


def _run_worker(spec: dict[str, Any], workdir: Path) -> dict[str, Any]:
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        env=_env(), timeout=SUBPROCESS_TIMEOUT_S, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise BenchmarkError(f"worker failed:\n{done.stderr}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _failed(ops: Sequence[dict[str, Any]], expected: tuple[int, str]) -> int:
    return sum((op["count"], op["sha256"]) != tuple(expected) for op in ops)


def run_mining(
    name: str, size: dict[str, Any], seed: int, seconds: float, trace: bool,
    workdir: Path,
) -> "Outcome":
    from inputs import Relabelling, population, seeded_database, write_database

    customers = population(size["customers"])
    db = seeded_database(customers, Relabelling(customers, seed), seed)
    algorithm = "prefixspan" if name == "mine-growth" else "aprioriall"
    expected = _reference(db, size["minsup"], algorithm)
    spec = {
        "kind": "mine", "input": str(write_database(db, workdir / "input.spmf")),
        "minsup": size["minsup"], "algorithm": algorithm,
        "seconds": seconds, "trace": trace,
    }
    result = _run_worker(spec, workdir)
    ops = result["ops"] + result.get("traced_ops", [])
    outcome = Outcome(attempted=len(ops), failed=_failed(ops, expected))
    if outcome.failed:
        outcome.notes.append(
            f"{outcome.failed} of {len(ops)} mines differ from the reference "
            f"({expected[0]} patterns, sha256 {expected[1][:12]})"
        )
    mine_ms = _median_ms([op["seconds"] for op in result["ops"]])
    outcome.extra["mine_s"] = (mine_ms / 1000, "s")
    outcome.extra["op_samples"] = (len(result["ops"]), "count")
    outcome.extra["patterns"] = (result["ops"][0]["count"], "count")
    if not trace:
        outcome.metrics = {
            "setup_s": statistics.median(result["setup"]),
            "op_p50_ms": mine_ms,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        return outcome
    traced_ms = _median_ms([op["seconds"] for op in result["traced_ops"]])
    outcome.layers = {"mine": result["layers"]["mine"]}
    outcome.metrics = _layer_metrics([result["layers"]["mine"]], ["mine"])
    outcome.metrics["trace.overhead_ms"] = traced_ms - mine_ms
    outcome.metrics["trace.layer_share"] = 1 - (
        outcome.metrics["miner.other_s"] / _mean_s(result["traced_ops"])
    )
    return outcome


# ---------------------------------------------------------------- ingest


def run_ingest(
    size: dict[str, Any], seed: int, seconds: float, trace: bool, workdir: Path
) -> "Outcome":
    from inputs import (
        Relabelling, customer_ids, delta_chain, population, seeded_database,
        write_database, write_delta_csv,
    )

    fresh_count = size["deltas"] * size["delta_customers"]
    customers = population(size["customers"] + fresh_count)
    base, fresh = customers[: size["customers"]], customers[size["customers"]:]
    relabel = Relabelling(customers, seed)
    chain = delta_chain(
        fresh, size["deltas"], customer_ids(len(base), seed), relabel)
    spec = {
        "kind": "ingest",
        "base": str(write_database(
            seeded_database(base, relabel, seed), workdir / "base.spmf")),
        "deltas": [
            str(write_delta_csv(rows, workdir / f"delta-{number}.csv"))
            for number, rows in enumerate(chain, start=1)
        ],
        "minsup": size["minsup"], "workdir": str(workdir),
        "seconds": seconds, "trace": trace,
    }
    result = _run_worker(spec, workdir)
    outcome = Outcome()
    for number, one in enumerate(result["rounds"] + result.get("traced_rounds", [])):
        # Each round's last update must be byte-identical to re-mining
        # the grown database from scratch.
        final, remine = one["ingests"][-1], one["remine"]
        outcome.attempted += len(one["ingests"]) + 1
        if (final["count"], final["sha256"]) != (remine["count"], remine["sha256"]):
            outcome.failed += 2
            outcome.notes.append(
                f"round {number}: final update ({final['count']} patterns) differs "
                f"from the out-of-core re-mine ({remine['count']} patterns)"
            )
    ingests = [op for one in result["rounds"] for op in one["ingests"]]
    remines = [one["remine"] for one in result["rounds"]]
    ingest_ms = _median_ms([op["seconds"] for op in ingests])
    outcome.extra["ingest_s"] = (ingest_ms / 1000, "s")
    outcome.extra["op_samples"] = (len(ingests), "count")
    outcome.extra["mine_s"] = (_median_ms([op["seconds"] for op in remines]) / 1000, "s")
    if not trace:
        outcome.metrics = {
            "setup_s": statistics.median(result["setup"]),
            "op_p50_ms": ingest_ms,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        return outcome
    layers = result["layers"]
    outcome.layers = layers
    outcome.metrics = _layer_metrics(
        [layers["ingest"], layers["remine"]], ["ingest", "remine"])
    traced_ingests = [op for one in result["traced_rounds"] for op in one["ingests"]]
    traced_remines = [one["remine"] for one in result["traced_rounds"]]
    outcome.extra["trace.remine_overhead_s"] = (
        _median_ms([op["seconds"] for op in traced_remines]) / 1000
        - outcome.extra["mine_s"][0], "s")
    outcome.metrics["trace.overhead_ms"] = (
        _median_ms([op["seconds"] for op in traced_ingests]) - ingest_ms)
    outcome.metrics["trace.layer_share"] = 1 - outcome.metrics["miner.other_s"] / (
        _mean_s(traced_ingests) + _mean_s(traced_remines))
    return outcome


def _layer_metrics(
    per_kind: Sequence[dict[str, float]], kinds: Sequence[str]
) -> dict[str, float]:
    """Per-layer metrics from per-operation means of each kind of
    operation, summed over the kinds (a layer that works in both an
    ingest and a re-mine reports its cost per ingest plus per re-mine)."""
    totals: dict[str, float] = {}
    for layers, kind in zip(per_kind, kinds):
        for name, value in layers.items():
            key = "miner.other" if name == kind else name
            totals[key] = totals.get(key, 0.0) + value
    metrics = {}
    for name, unit in PER_LAYER:
        if unit == "s" and name[:-2] in totals:
            metrics[name] = totals[name[:-2]]
        else:
            metrics[name] = totals.get(name, 0.0)
    metrics["itemsets.yield"] = _ratio(
        totals.get("itemsets.large", 0.0), totals.get("itemsets.candidates", 0.0))
    metrics["core.yield"] = _ratio(
        totals.get("core.large", 0.0), totals.get("core.candidates_counted", 0.0))
    return metrics


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------- serving


class Server:
    """One ``serve.py`` process, from start to its first ``/healthz``."""

    def __init__(self, patterns: Path, trace_path: Path | None = None) -> None:
        started = time.perf_counter()
        command = [sys.executable, str(HERE / "serve.py"), str(patterns)]
        if trace_path is not None:
            command.append(str(trace_path))
        self.process = subprocess.Popen(
            command, env=_env(), stderr=subprocess.PIPE, text=True
        )
        try:
            line = self.process.stderr.readline()  # type: ignore[union-attr]
            if " on http://" not in line:
                raise BenchmarkError(f"server did not start: {line.strip()!r}")
            self.port = int(line.split(" on http://", 1)[1].split()[0].rsplit(":", 1)[1])
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
            connection.request("GET", "/healthz")
            status = connection.getresponse().status
            connection.close()
            if status != 200:
                raise BenchmarkError(f"/healthz answered HTTP {status}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text(encoding="utf-8")
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise BenchmarkError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown, which writes a trace), then
        wait for the process to end."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stderr.close()  # type: ignore[union-attr]


def run_serving(
    size: dict[str, Any], seed: int, seconds: float, trace: bool, workdir: Path
) -> "Outcome":
    from repro.miner import MiningParams, mine

    from inputs import HELD_OUT_SEED, Relabelling, population, seeded_database
    from loadgen import drive, prepare_load, serve_set

    customers = population(size["customers"])
    held_out = population(size["queries"], seed=HELD_OUT_SEED)
    relabel = Relabelling(customers + held_out, seed)
    db = seeded_database(customers, relabel, seed)
    pattern_sets = [
        mine(db, MiningParams(minsup=minsup, algorithm="prefixspan")).patterns
        for minsup in (size["minsup"], size["alt_minsup"])
    ]
    queries = [relabel.events(events) for events in held_out]
    load = prepare_load(queries, pattern_sets, workdir / "patterns.txt")

    setup, servers = [], []
    try:
        for _ in range(SERVER_STARTS):
            serve_set(load, 0)
            servers.append(Server(load.patterns_path))
            setup.append(servers[-1].setup_s)
            if len(servers) < SERVER_STARTS:
                servers[-1].stop()
        untraced = drive(load, servers[-1].port, seconds / 2 if trace else seconds)
        peak_rss_mb = servers[-1].peak_rss_mb()
        servers[-1].stop()
        runs = [untraced]
        if trace:
            serve_set(load, 0)
            trace_path = workdir / "trace.json"
            servers.append(Server(load.patterns_path, trace_path))
            runs.append(drive(load, servers[-1].port, seconds / 2))
            servers[-1].stop()
    finally:
        for server in servers:
            server.stop()

    outcome = Outcome()
    for result in runs:
        outcome.attempted += result.attempted
        outcome.failed += result.failed
        outcome.notes.extend(result.failures)
    p50 = statistics.median(untraced.latencies_ms)
    count = len(untraced.latencies_ms)
    outcome.extra["query_rps"] = (count / untraced.elapsed_s, "1/s")
    outcome.extra["query_p50_ms"] = (p50, "ms")
    outcome.extra["op_samples"] = (count, "count")
    # p99 only with more than ten samples beyond it.
    if count * 0.01 > 10:
        outcome.extra["query_p99_ms"] = (
            statistics.quantiles(untraced.latencies_ms, n=100)[98], "ms")
    if untraced.reload_ms:
        outcome.extra["reload_ms"] = (statistics.median(untraced.reload_ms), "ms")
    outcome.extra["patterns"] = (len(pattern_sets[0]), "count")
    if not trace:
        outcome.metrics = {
            "setup_s": statistics.median(setup),
            "op_p50_ms": p50,
            "peak_rss_mb": peak_rss_mb,
        }
        return outcome
    traced = runs[1]
    spans = json.loads(trace_path.read_text(encoding="utf-8"))
    outcome.metrics = _serving_metrics(spans, traced)
    outcome.metrics["trace.overhead_ms"] = statistics.median(traced.latencies_ms) - p50
    return outcome


def _serving_metrics(spans: dict[str, Any], traced: Any) -> dict[str, float]:
    seconds, calls, counts = spans["seconds"], spans["calls"], spans["counts"]
    requests = traced.matches + traced.predicts

    def per(name: str, over: float) -> float:
        return _ratio(seconds.get(name, 0.0) * 1000, over)

    metrics = {name: 0.0 for name, _unit in PER_LAYER}
    metrics["serving.index.match_ms"] = per("serving.index.match", traced.matches)
    metrics["serving.index.predict_ms"] = per("serving.index.predict", traced.predicts)
    metrics["serving.parse_ms"] = per("serving.parse", requests)
    metrics["serving.payload_ms"] = per("serving.payload", requests)
    spanned = (
        metrics["serving.parse_ms"] + metrics["serving.payload_ms"]
        + per("serving.index.match", requests) + per("serving.index.predict", requests)
    )
    client_ms = statistics.fmean(traced.latencies_ms)
    metrics["serving.server.self_ms"] = client_ms - spanned
    metrics["serving.match.returned"] = _ratio(
        counts.get("serving.match.returned", 0.0), traced.matches)
    builds = calls.get("serving.index.build", 0)
    metrics["serving.index.build_s"] = _ratio(
        seconds.get("serving.index.build", 0.0), builds)
    metrics["serving.index.nodes"] = _ratio(
        counts.get("serving.index.nodes", 0.0), builds)
    metrics["trace.layer_share"] = _ratio(spanned, client_ms)
    return metrics


# ---------------------------------------------------------------- driver


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    #: Figures printed by name but not part of the JSON result.
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Per kind of traced operation, mean self seconds and counts by name.
    layers: dict[str, dict[str, float]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    size = SIZES["smoke" if smoke else "full"][workload]
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if workload in ("mine-apriori", "mine-growth"):
            return run_mining(workload, size, seed, seconds, trace, workdir)
        if workload == "ingest-update":
            return run_ingest(size, seed, seconds, trace, workdir)
        return run_serving(size, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


#: The untraced figure each kind of traced operation adds up to.
_UNTRACED = {"mine": "mine_s", "ingest": "ingest_s", "remine": "mine_s"}
_SPAN_NAMES = {name[:-2] for name, unit in PER_LAYER if unit == "s"}


def _report(workload: str, outcome: Outcome, trace: bool) -> None:
    units = dict(PER_LAYER if trace else END_TO_END)
    for name, value in outcome.metrics.items():
        print(f"{workload:14} {name:32} {value:14.6f} {units[name]}")
    for name, (value, unit) in outcome.extra.items():
        print(f"{workload:14} {name:32} {value:14.6f} {unit}")
    # Which layer owns the time: each layer's self seconds per operation
    # and its counts, next to the untraced figure they make up.
    for kind, layers in outcome.layers.items():
        spans = {
            "miner.other" if name == kind else name: value
            for name, value in layers.items() if name == kind or name in _SPAN_NAMES
        }
        total = sum(spans.values())
        figure = _UNTRACED[kind]
        print(f"-- per {kind}: untraced {figure} {outcome.extra[figure][0]:.4f} s; "
              f"traced layer self times sum to {total:.4f} s")
        for name, value in sorted(spans.items(), key=lambda item: -item[1]):
            print(f"   {name + '_s':40} {value:10.4f} s  {_ratio(value, total):6.1%}")
        for name, value in sorted(layers.items()):
            if name != kind and name not in spans:
                print(f"   {name:40} {value:10.0f} {units.get(name, 'count')}")
    for note in outcome.notes:
        print(f"CHECK FAILED: {note}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SOURCE}; run from the repository root",
              file=sys.stderr)
        return 2
    for path in (str(HERE), str(SOURCE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    print(f"host nproc={os.cpu_count()} python={platform.python_version()} "
          f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _report(args.workload, outcome, bool(args.trace))
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in outcome.metrics.items()
        },
    }))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
