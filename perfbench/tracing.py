"""The span recorder behind the benchmark's traced runs (``--trace 1``).

Spans are recorded from the benchmark's own files, never from inside the
program: :func:`install_mining` and :func:`install_serving` replace
public functions of :mod:`repro` at the names their callers look them
up (``repro.miner.find_litemsets``, ``PatternIndex.match``, ...) with
wrappers that time the call and record counts taken from its arguments
and result. Durable writes are counted by an :func:`repro.io.fsops.
install_hook` observer. Everything stays in memory until the run ends.

A span is ``[name, start, end, parent, op]``; an operation (one
``mine()``, one delta ingest) is a root span, and a layer's self time
is its span's duration minus the part its child spans cover, so the
self times of one operation add up to the operation's duration.
"""

from __future__ import annotations

import functools
import os
import threading
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.op_kinds: dict[int, str] = {}
        self._op = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = [name, time.perf_counter(), 0.0, parent, self._op]
        self.spans.append(record)
        stack.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    @contextmanager
    def operation(self, kind: str) -> Iterator[None]:
        """One benchmark operation: a root span that owns every span and
        count recorded until it ends."""
        self._op = len(self.op_kinds) + 1
        self.op_kinds[self._op] = kind
        try:
            with self.span(kind):
                yield
        finally:
            self._op = 0

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[(self._op, name)] += value

    def self_times(self) -> dict[tuple[int, str], float]:
        """Self seconds per ``(op, span name)``."""
        covered: dict[int, float] = defaultdict(float)
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                covered[id(parent)] += end - start
        totals: dict[tuple[int, str], float] = defaultdict(float)
        for record in self.spans:
            name, start, end, _parent, op = record
            totals[(op, name)] += end - start - covered[id(record)]
        return totals

    def per_op(self, kind: str) -> tuple[int, dict[str, float]]:
        """``(number of ops of kind, {name: mean per op})``.

        Span names map to mean self seconds (the root span's own name to
        the time no child span covers), count names to mean counts.
        """
        ops = {op for op, op_kind in self.op_kinds.items() if op_kind == kind}
        if not ops:
            return 0, {}
        sums: dict[str, float] = defaultdict(float)
        for (op, name), seconds in self.self_times().items():
            if op in ops:
                sums[name] += seconds
        for (op, name), value in self.counts.items():
            if op in ops:
                sums[name] += value
        return len(ops), {name: total / len(ops) for name, total in sums.items()}

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Whole-run ``(self seconds, calls, counts)`` per name, for the
        serving layers, whose requests are not benchmark operations."""
        seconds: dict[str, float] = defaultdict(float)
        for (_op, name), value in self.self_times().items():
            seconds[name] += value
        calls: dict[str, int] = defaultdict(int)
        for name, *_rest in self.spans:
            calls[name] += 1
        counts: dict[str, float] = defaultdict(float)
        for (_op, name), value in self.counts.items():
            counts[name] += value
        return dict(seconds), dict(calls), dict(counts)


class _Patches:
    """Replaced attributes, restorable in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def _timed(
    tracer: Tracer,
    name: str,
    function: Callable[..., Any],
    after: Callable[[tuple[Any, ...], Any], None] | None = None,
) -> Callable[..., Any]:
    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            result = function(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _counted(
    function: Callable[..., Any], note: Callable[[tuple[Any, ...]], None]
) -> Callable[..., Any]:
    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        note(args)
        return function(*args, **kwargs)

    return wrapper


def install_mining(tracer: Tracer) -> Callable[[], None]:
    """Wrap the mining, storage and incremental layers; returns the
    function that puts every original back."""
    import repro.incremental
    import repro.incremental.update
    import repro.io.csvio
    import repro.io.fsops
    import repro.io.patterns
    import repro.io.state
    import repro.miner as miner
    from repro.db.partitioned import PartitionedDatabase, PartitionedSequences
    from repro.io.binlog import BinlogReader, BinlogWriter

    patches = _Patches()

    def litemsets(_args: tuple[Any, ...], result: Any) -> None:
        for stats in result.passes:
            tracer.count("itemsets.candidates", stats.num_candidates)
            tracer.count("itemsets.large", stats.num_large)
            if stats.length == 2:
                tracer.count("itemsets.pass2_candidates", stats.num_candidates)

    def sequence_phase(_args: tuple[Any, ...], result: Any) -> None:
        for stats in result.stats.passes:
            if stats.length >= 2:
                tracer.count("core.candidates_counted", stats.num_candidates)
                tracer.count("core.large", stats.num_large)

    def maximal(args: tuple[Any, ...], result: Any) -> None:
        tracer.count("core.maximal.in", len(args[0]))
        tracer.count("core.maximal.out", len(result))

    def prefixspan(_args: tuple[Any, ...], result: Any) -> None:
        tracer.count("core.prefixspan.frequent", len(result.frequent))

    def update(_args: tuple[Any, ...], outcome: Any) -> None:
        stats = outcome.update_stats
        tracer.count("incremental.full_scan_passes", stats.full_scan_passes)
        tracer.count(
            "incremental.cached_candidates",
            stats.cached_itemset_candidates + stats.cached_sequence_candidates,
        )
        tracer.count(
            "incremental.new_candidates",
            stats.new_itemset_candidates + stats.new_sequence_candidates,
        )
        tracer.count("incremental.promoted", stats.promoted_from_border)

    def state_written(args: tuple[Any, ...], _result: Any) -> None:
        tracer.count("io.state.bytes", os.path.getsize(args[1]))

    patches.replace(miner, "find_litemsets", _timed(
        tracer, "itemsets.find_litemsets", miner.find_litemsets, litemsets))
    patches.replace(miner, "transform_database", _timed(
        tracer, "db.transform", miner.transform_database))
    for name in ("apriori_all", "apriori_some", "dynamic_some"):
        patches.replace(miner, name, _timed(
            tracer, "core.sequence_phase", getattr(miner, name), sequence_phase))
    patches.replace(miner, "mine_prefixspan", _timed(
        tracer, "core.prefixspan", miner.mine_prefixspan, prefixspan))
    for owner in (miner, repro.incremental.update):
        patches.replace(owner, "maximal_sequences", _timed(
            tracer, "core.maximal", owner.maximal_sequences, maximal))
    patches.replace(repro.incremental, "update_mining", _timed(
        tracer, "incremental.update_mining", repro.incremental.update_mining,
        update))
    patches.replace(repro.io.state, "read_mining_state", _timed(
        tracer, "io.state.read", repro.io.state.read_mining_state))
    patches.replace(repro.io.state, "write_mining_state", _timed(
        tracer, "io.state.write", repro.io.state.write_mining_state,
        state_written))
    patches.replace(repro.io.patterns, "write_patterns", _timed(
        tracer, "io.patterns.write", repro.io.patterns.write_patterns))
    patches.replace(repro.io.csvio, "read_database_csv", _timed(
        tracer, "io.csv.read", repro.io.csvio.read_database_csv))
    patches.replace(PartitionedDatabase, "append_delta", _timed(
        tracer, "db.partitioned.append_delta", PartitionedDatabase.append_delta))
    patches.replace(PartitionedDatabase, "open", classmethod(_timed(
        tracer, "db.partitioned.open", PartitionedDatabase.open.__func__)))

    # Every partition load, raw or transformed, starts in one of the two
    # iter_partition methods; every binlog byte streamed, in records().
    for owner in (PartitionedDatabase, PartitionedSequences):
        patches.replace(owner, "iter_partition", _counted(
            owner.iter_partition,
            lambda _args: tracer.count("db.partitioned.partition_loads"),
        ))
    patches.replace(BinlogReader, "records", _counted(
        BinlogReader.records,
        lambda args: tracer.count(
            "io.binlog.bytes_read", os.path.getsize(args[0].path)),
    ))
    close = BinlogWriter.close
    closed: weakref.WeakSet[BinlogWriter] = weakref.WeakSet()

    def close_counted(writer: BinlogWriter) -> None:
        close(writer)
        if writer not in closed:  # close() is idempotent; count once
            closed.add(writer)
            tracer.count("io.binlog.bytes_written", os.path.getsize(writer.path))

    patches.replace(BinlogWriter, "close", close_counted)

    def fs_hook(op: str, _path: str) -> None:
        tracer.count(f"io.fsops.{op}")

    repro.io.fsops.install_hook(fs_hook)

    def uninstall() -> None:
        repro.io.fsops.remove_hook(fs_hook)
        patches.restore()

    return uninstall


def install_serving(tracer: Tracer) -> Callable[[], None]:
    """Wrap the serving layers as the HTTP server looks them up."""
    import repro.serving.server as server
    from repro.serving.index import PatternIndex

    patches = _Patches()

    def matched(_args: tuple[Any, ...], result: Any) -> None:
        tracer.count("serving.match.returned", len(result))

    def built(_args: tuple[Any, ...], index: Any) -> None:
        tracer.count("serving.index.nodes", index.num_nodes)

    patches.replace(PatternIndex, "match", _timed(
        tracer, "serving.index.match", PatternIndex.match, matched))
    patches.replace(PatternIndex, "predict_next", _timed(
        tracer, "serving.index.predict", PatternIndex.predict_next))
    patches.replace(PatternIndex, "from_file", classmethod(_timed(
        tracer, "serving.index.build", PatternIndex.from_file.__func__, built)))
    patches.replace(server, "parse_query", _timed(
        tracer, "serving.parse", server.parse_query))
    for name in ("pattern_payload", "prediction_payload"):
        patches.replace(server, name, _timed(
            tracer, "serving.payload", getattr(server, name)))
    return patches.restore
