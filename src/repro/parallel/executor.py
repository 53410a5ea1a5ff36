"""Process-pool execution of the two sharded passes that win with it.

Two passes shard, and only two: PrefixSpan's seed growth
(:func:`parallel_prefixspan`) and the time-constrained miner's counting
passes (:func:`parallel_count_timed`). The apriori family's counting
passes run serially in-process; sharding them over two workers lost end
to end in every measured configuration (ROADMAP item 3).

Both passes shard the same way: run the pass's own serial engine on a
slice of one of its arguments and merge the slices' results. One task,
:func:`_run_shard`, does that for both. The pass in flight is one module
global, ``_PASS = (engine, args, shard_arg)``; a shard task
carries only its ``(start, stop)`` bounds, slices ``args[shard_arg]``
and calls the engine. Under ``fork`` (preferred on Linux) the workers
inherit ``_PASS`` copy-on-write, so nothing is pickled but the bounds
and the shard's result; under ``spawn`` ``_PASS`` is sent once per
worker through the pool initializer. There is one shard per worker.

:func:`run_sharded` is the one gate: ``workers == 1`` or a single shard
calls the engine in-process and never creates a pool. The public
wrappers choose the sharded argument and merge: seed items for
PrefixSpan (the parent projects the database once and every worker
grows its seeds over that customer list; shards return their frequent
sets and per-round counts), customers for the timed miner (shards
return their non-zero counts, summed over a zero-filled base).

Worker loss is survived, not fatal: a shard whose worker died
(``BrokenProcessPool``) or that raised is re-dispatched with exponential
backoff up to ``SHARD_MAX_ATTEMPTS`` times — through a fresh pool when
the old one broke — and a shard that keeps failing degrades to
in-process serial counting. Retries and degradations are logged on
``repro.parallel``; merged results are identical either way (see
:func:`_run_sharded`).

Because ``_PASS`` is a module global, at most one pass may be in flight
per parent process. The library runs one pass at a time; callers
wanting concurrent mining runs should use separate processes, not
threads.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    Sequence as PySequence,
)

from repro.parallel.sharding import merge_counts, shard_bounds

if TYPE_CHECKING:
    from multiprocessing.context import BaseContext

    from repro.core.maximal import EventsTuple
    from repro.core.protocols import SequenceDatabaseLike
    from repro.core.stats import AlgorithmStats, PassStats
    from repro.extensions.timeconstraints import TimeConstraints

#: Dispatch attempts per shard (first try included) before the shard
#: degrades to in-process serial counting.
SHARD_MAX_ATTEMPTS = 3

#: Base delay between re-dispatch rounds; doubles every round. Tests
#: monkeypatch it to 0.
SHARD_BACKOFF_SECONDS = 0.05

_LOGGER = logging.getLogger("repro.parallel")

#: ``(engine, args, shard_arg)`` of the pass in flight. In the
#: parent it is set just before the pool forks (children inherit it
#: copy-on-write) and cleared after the pass; in a spawned worker the
#: initializer assigns it.
_PASS: Any = None


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count knob: ``0``/``None`` means all CPUs."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def _context() -> "BaseContext":
    # Prefer fork only on Linux: it is the platform default there and
    # lets workers inherit the database copy-on-write. macOS lists fork
    # too, but CPython made spawn its default because forking a process
    # whose system libraries have started threads is unsafe — respect
    # the platform default everywhere else.
    if sys.platform.startswith("linux"):
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
    return multiprocessing.get_context(None)


def _pool(
    context: "BaseContext", workers: int, initargs: tuple[Any, ...]
) -> ProcessPoolExecutor:
    """Create the worker pool (separated out so tests can intercept it)."""
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=_init_worker,
        initargs=initargs,
    )


def _init_worker(work: Any) -> None:
    global _PASS
    if work is not None:  # spawn/forkserver: the pass arrives here
        _PASS = work


def _run_shard(bounds: tuple[int, int]) -> Any:
    """The one shard task: the pass's serial engine over one slice of its
    sharded argument."""
    engine, args, shard_arg = _PASS
    args = list(args)
    args[shard_arg] = args[shard_arg][bounds[0] : bounds[1]]
    return engine(*args)


def _run_sharded(work: Any, num_items: int, workers: int,
                 task: "Callable[[tuple[int, int]], Any]") -> list[Any]:
    """Map ``task`` over one shard of ``num_items`` per worker in a fresh
    worker pool, with ``work`` installed as the pass in flight, surviving
    worker loss.

    Fault tolerance: each shard is submitted as its own future, so a
    lost worker (OOM kill, crash — surfacing as ``BrokenProcessPool``)
    or a shard-level exception fails only the shards that were in
    flight, not the pass. Failed shards are re-dispatched — through a
    fresh pool when the old one broke — with exponential backoff
    between rounds, up to ``SHARD_MAX_ATTEMPTS`` dispatch attempts per
    shard; a shard that keeps failing degrades to in-process serial
    counting (a deterministic error then propagates from there with its
    real traceback). Every retry and degradation is logged on the
    ``repro.parallel`` logger — never silent — and merged results are
    identical to a clean run because a shard's result is recorded only
    once, on success. Pool *creation* errors propagate untouched.
    """
    global _PASS
    bounds = shard_bounds(num_items, workers)
    workers = len(bounds)  # never spawn idle processes
    context = _context()
    ship = context.get_start_method() != "fork"
    # The parent holds the pass too (forked children inherit it; spawned
    # ones get it via the initializer) so a degraded shard can run
    # ``task`` in-process.
    _PASS = work
    initargs = (work if ship else None,)
    results: list[Any] = [None] * len(bounds)
    pool = _pool(context, workers, initargs)
    try:
        todo = list(range(len(bounds)))
        attempts = [0] * len(bounds)
        round_number = 0
        while todo:
            futures: list[tuple[int, Future[Any]]] = []
            for index in todo:
                try:
                    future = pool.submit(task, bounds[index])
                except BrokenProcessPool as exc:
                    # A worker of this round died before every shard was
                    # submitted; the shard fails like an in-flight one.
                    future = Future()
                    future.set_exception(exc)
                futures.append((index, future))
            retry: list[int] = []
            pool_broken = False
            for index, future in futures:
                try:
                    results[index] = future.result()
                except BrokenProcessPool as exc:
                    # A worker died; every in-flight future on this pool
                    # fails with it. Innocent shards burn an attempt too
                    # (the culprit is unknowable), but the bound holds.
                    pool_broken = True
                    attempts[index] += 1
                    _LOGGER.warning(
                        "worker lost during shard %d/%d (attempt %d/%d): %s",
                        index + 1, len(bounds), attempts[index],
                        SHARD_MAX_ATTEMPTS, exc,
                    )
                    retry.append(index)
                except Exception as exc:
                    attempts[index] += 1
                    _LOGGER.warning(
                        "shard %d/%d failed (attempt %d/%d): %s",
                        index + 1, len(bounds), attempts[index],
                        SHARD_MAX_ATTEMPTS, exc,
                    )
                    retry.append(index)
            todo = []
            for index in retry:
                if attempts[index] >= SHARD_MAX_ATTEMPTS:
                    _LOGGER.error(
                        "shard %d/%d failed %d times; degrading to "
                        "in-process serial counting",
                        index + 1, len(bounds), attempts[index],
                    )
                    results[index] = task(bounds[index])
                else:
                    todo.append(index)
            if todo:
                time.sleep(SHARD_BACKOFF_SECONDS * (2 ** round_number))
                round_number += 1
                if pool_broken:
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = _pool(context, workers, initargs)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
        _PASS = None
    return results


def run_sharded(
    engine: Callable[..., Any],
    args: PySequence[Any],
    *,
    shard_arg: int,
    workers: int | None,
) -> list[Any]:
    """``engine(*args)`` over one slice of ``args[shard_arg]`` per
    worker; the per-shard results, in shard order.

    With one worker or a single shard the engine is called once,
    in-process, on the whole argument and no pool is created.
    """
    workers = resolve_workers(workers)
    num_items = len(args[shard_arg])
    if workers == 1 or len(shard_bounds(num_items, workers)) <= 1:
        return [engine(*args)]
    work = (engine, tuple(args), shard_arg)
    return _run_sharded(work, num_items, workers, _run_shard)


def _grow_shard(
    projected: "list[EventsTuple]",
    seed_items: PySequence[int],
    threshold: int,
    max_pattern_length: int | None,
) -> "tuple[dict[EventsTuple, int], list[PassStats]]":
    """One PrefixSpan shard: the frequent set rooted at its seeds and
    its growth rounds."""
    from repro.core.prefixspan import grow_seed_range
    from repro.core.stats import AlgorithmStats

    stats = AlgorithmStats("prefixspan")
    frequent = grow_seed_range(
        projected, seed_items, threshold, max_pattern_length, stats
    )
    return frequent, stats.passes


def parallel_prefixspan(
    db: "SequenceDatabaseLike",
    seed_items: PySequence[int],
    frequent_items: frozenset[int],
    threshold: int,
    max_pattern_length: int | None,
    *,
    workers: int = 0,
    stats: "AlgorithmStats | None" = None,
) -> "dict[EventsTuple, int]":
    """Sharded-parallel pattern growth: seed items across a process pool.

    Each shard grows the complete frequent subtree of its seed range
    with :func:`repro.core.prefixspan.grow_seed_range`; every pattern
    grows from exactly one seed, so the shard results are disjoint. The
    database is projected to the frequent items once, in the parent, and
    each shard builds its item-position index from the customers it
    receives.

    ``stats`` receives one growth row per round, summed over the shards:
    the seeds root disjoint subtrees, so the candidate and frequent
    counts equal the serial run's, and ``elapsed_seconds`` is the sum of
    the shards' round times.
    """
    from repro.core.prefixspan import project_customers

    frequent: dict[EventsTuple, int] = {}
    by_round: dict[int, list[PassStats]] = {}
    for shard_frequent, shard_rounds in run_sharded(
        _grow_shard,
        (
            project_customers(db, frequent_items),
            list(seed_items),
            threshold,
            max_pattern_length,
        ),
        shard_arg=1,
        workers=workers,
    ):
        frequent.update(shard_frequent)
        for row in shard_rounds:
            by_round.setdefault(row.length, []).append(row)
    if stats is not None:
        for length, rows in sorted(by_round.items()):
            stats.record_pass(
                length=length,
                phase="growth",
                num_candidates=sum(row.num_candidates for row in rows),
                num_large=sum(row.num_large for row in rows),
                elapsed_seconds=sum(row.elapsed_seconds for row in rows),
            )
    return frequent


def _count_timed_shard(
    sequences: PySequence[Any],
    candidates: Collection[Any],
    constraints: "TimeConstraints",
) -> dict:
    """One timed-counting shard, zero counts dropped on the wire."""
    from repro.extensions.timeconstraints import count_timed

    counts = count_timed(sequences, candidates, constraints)
    return {key: count for key, count in counts.items() if count}


def parallel_count_timed(
    sequences: PySequence,
    candidates: Collection,
    constraints: "TimeConstraints",
    *,
    workers: int = 0,
) -> dict:
    """Sharded-parallel equivalent of
    :func:`repro.extensions.timeconstraints.count_timed`, over customer
    shards; a count for every candidate, zero included, in candidate
    order."""
    base = {candidate: 0 for candidate in candidates}
    return merge_counts(
        run_sharded(
            _count_timed_shard,
            (sequences, list(base), constraints),
            shard_arg=0,
            workers=workers,
        ),
        base=base,
    )
