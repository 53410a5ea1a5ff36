"""Process-pool execution of sharded passes.

Support is additive over disjoint customer sets (a customer counts at
most once), so every pass shards the same way: run the pass's own serial
engine on a slice of one of its arguments and sum the slices' results.
One task, :func:`_run_shard`, does that for every pass. The pass in
flight is one module global, ``_PASS = (engine, args, kwargs,
shard_arg)``; a shard task carries only its ``(start, stop)`` bounds,
slices ``args[shard_arg]`` and calls the engine, which runs with its
serial defaults (``workers=1``). Under ``fork`` (preferred on Linux) the
workers inherit ``_PASS`` copy-on-write, so nothing is pickled but the
bounds and the sparse result (zero counts are dropped on the wire and
restored in the merge); under ``spawn`` ``_PASS`` is sent once per
worker through the pool initializer.

:func:`run_sharded` is the one gate: ``workers == 1`` or a single shard
calls the engine in-process and never creates a pool. The public
wrappers only choose the sharded argument — customers (hash tree,
length-2, timed), candidates (``"vertical"``: the database is inverted
once in the parent and every worker joins a disjoint candidate slice
against it; worker-side joins never reach the parent's cross-pass
support-list memo, so a parallel vertical pass rebuilds parent lists in
each worker instead of rolling them forward), partitions (out-of-core: each worker receives a slice of
the partition list and opens those files itself, so worker memory stays
one partition), or seed items (PrefixSpan: the parent projects the
database once and every worker grows its seeds over that customer
list). ``chunk_size`` counts items of that dimension per shard.

Worker loss is survived, not fatal: a shard whose worker died
(``BrokenProcessPool``) or that raised is re-dispatched with exponential
backoff up to ``SHARD_MAX_ATTEMPTS`` times — through a fresh pool when
the old one broke — and a shard that keeps failing degrades to
in-process serial counting. Retries and degradations are logged on
``repro.parallel``; merged counts are identical either way (see
:func:`_run_sharded`).

Because ``_PASS`` is a module global, at most one pass may be in flight
per parent process. The library counts one pass at a time; callers
wanting concurrent mining runs should use separate processes, not
threads.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    Sequence as PySequence,
    cast,
)

from repro.parallel.sharding import merge_counts, shard_bounds

if TYPE_CHECKING:
    from multiprocessing.context import BaseContext

    from repro.core.counting import CountableSequences
    from repro.core.maximal import EventsTuple
    from repro.core.protocols import (
        CandidateParents,
        CountingStrategy,
        IdSequence,
        SequenceDatabaseLike,
    )
    from repro.extensions.timeconstraints import TimeConstraints

#: Dispatch attempts per shard (first try included) before the shard
#: degrades to in-process serial counting.
SHARD_MAX_ATTEMPTS = 3

#: Base delay between re-dispatch rounds; doubles every round. Tests
#: monkeypatch it to 0.
SHARD_BACKOFF_SECONDS = 0.05

_LOGGER = logging.getLogger("repro.parallel")

#: ``(engine, args, kwargs, shard_arg)`` of the pass in flight. In the
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


def _run_shard(bounds: tuple[int, int]) -> dict:
    """The one shard task: the pass's serial engine over one slice of its
    sharded argument, zero counts dropped."""
    engine, args, kwargs, shard_arg = _PASS
    args = list(args)
    args[shard_arg] = args[shard_arg][bounds[0] : bounds[1]]
    counts = engine(*args, **kwargs)
    return {key: count for key, count in counts.items() if count}


def _run_sharded(work: Any, num_items: int, workers: int,
                 chunk_size: int | None,
                 task: "Callable[[tuple[int, int]], dict]") -> list[dict]:
    """Map ``task`` over the shard bounds of ``num_items`` in a fresh
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
    ``repro.parallel`` logger — never silent — and merged counts are
    identical to a clean run because a shard's counts are recorded only
    once, on success. Pool *creation* errors propagate untouched.
    """
    global _PASS
    bounds = shard_bounds(num_items, workers, chunk_size)
    workers = min(workers, len(bounds))  # never spawn idle processes
    context = _context()
    ship = context.get_start_method() != "fork"
    # The parent holds the pass too (forked children inherit it; spawned
    # ones get it via the initializer) so a degraded shard can run
    # ``task`` in-process.
    _PASS = work
    initargs = (work if ship else None,)
    results: list[dict | None] = [None] * len(bounds)
    pool = _pool(context, workers, initargs)
    try:
        todo = list(range(len(bounds)))
        attempts = [0] * len(bounds)
        round_number = 0
        while todo:
            futures = [(index, pool.submit(task, bounds[index])) for index in todo]
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
    return cast("list[dict]", results)


def run_sharded(
    engine: Callable[..., dict],
    args: PySequence[Any],
    *,
    shard_arg: int,
    num_items: int,
    workers: int | None,
    chunk_size: int | None,
    base: dict | None = None,
    **engine_kwargs: Any,
) -> dict:
    """Run ``engine(*args, **engine_kwargs)`` sharded over ``args[shard_arg]``.

    ``num_items`` is the length of the sharded dimension (partitions for
    a partitioned database, whose ``len`` counts customers). With one
    worker or a single shard the engine is called in-process and no pool
    is created; otherwise each shard runs the engine on its slice and
    the results are summed with :func:`merge_counts` (seeded by
    ``base``). Exact because support is additive over disjoint slices.
    """
    workers = resolve_workers(workers)
    if workers == 1 or len(shard_bounds(num_items, workers, chunk_size)) <= 1:
        return engine(*args, **engine_kwargs)
    work = (engine, tuple(args), engine_kwargs, shard_arg)
    per_shard = _run_sharded(work, num_items, workers, chunk_size, _run_shard)
    return merge_counts(per_shard, base=base)


def parallel_count_candidates(
    sequences: "CountableSequences",
    candidates: "Collection[IdSequence]",
    *,
    workers: int = 0,
    chunk_size: int | None = None,
    strategy: "CountingStrategy" = "hashtree",
    parents: "CandidateParents | None" = None,
) -> dict:
    """Sharded-parallel equivalent of :func:`repro.core.counting.count_candidates`.

    Returns a count for every candidate (zeros included) in the same
    insertion order as the serial engine. A partitioned database shards
    partitions, ``"vertical"`` shards candidates, and the hash tree
    shards customers (see module docstring).
    """
    from repro.core.counting import count_candidates
    from repro.core.vertical import ensure_vertical
    from repro.db.partitioned import PartitionedSequences

    base = {candidate: 0 for candidate in candidates}
    if not base or not len(sequences):
        return base
    shard_arg = 0
    if isinstance(sequences, PartitionedSequences):
        num_items = sequences.num_partitions
    elif strategy == "vertical":
        # Invert once, in the parent; every worker joins its candidate
        # slice against the whole inverted database.
        sequences = ensure_vertical(sequences)
        shard_arg, num_items = 1, len(base)
    else:
        num_items = len(sequences)
    return run_sharded(
        count_candidates,
        (sequences, list(base)),
        shard_arg=shard_arg,
        num_items=num_items,
        workers=workers,
        chunk_size=chunk_size,
        base=base,
        strategy=strategy,
        parents=parents,
    )


def parallel_count_length2(
    sequences: "CountableSequences", *, workers: int = 0,
    chunk_size: int | None = None
) -> dict:
    """Sharded-parallel equivalent of :func:`repro.core.counting.count_length2`.

    Like the serial fast path, returns counts for *occurring* pairs only.
    """
    from repro.core.counting import count_length2
    from repro.db.partitioned import PartitionedSequences

    if isinstance(sequences, PartitionedSequences):
        num_items = sequences.num_partitions
    else:
        num_items = len(sequences)
    return run_sharded(
        count_length2,
        (sequences,),
        shard_arg=0,
        num_items=num_items,
        workers=workers,
        chunk_size=chunk_size,
    )


def parallel_prefixspan(
    db: "SequenceDatabaseLike",
    seed_items: PySequence[int],
    frequent_items: frozenset[int],
    threshold: int,
    max_pattern_length: int | None,
    *,
    workers: int = 0,
    chunk_size: int | None = None,
) -> "dict[EventsTuple, int]":
    """Sharded-parallel pattern growth: seed items across a process pool.

    Each shard grows the complete frequent subtree of its seed range
    with :func:`repro.core.prefixspan.grow_seed_range`; every pattern
    grows from exactly one seed, so the shard results are disjoint. The
    database is projected to the frequent items once, in the parent, and
    each shard builds its item-position index from the customers it
    receives. ``chunk_size`` means seeds per shard.
    """
    from repro.core.prefixspan import grow_seed_range, project_customers

    seeds = list(seed_items)
    return run_sharded(
        grow_seed_range,
        (
            project_customers(db, frequent_items),
            seeds,
            threshold,
            max_pattern_length,
        ),
        shard_arg=1,
        num_items=len(seeds),
        workers=workers,
        chunk_size=chunk_size,
    )


def parallel_count_timed(
    sequences: PySequence,
    candidates: Collection,
    constraints: "TimeConstraints",
    *,
    workers: int = 0,
    chunk_size: int | None = None,
) -> dict:
    """Sharded-parallel equivalent of
    :func:`repro.extensions.timeconstraints.count_timed`, over customer
    shards."""
    from repro.extensions.timeconstraints import count_timed

    base = {candidate: 0 for candidate in candidates}
    return run_sharded(
        count_timed,
        (sequences, list(base), constraints),
        shard_arg=0,
        num_items=len(sequences),
        workers=workers,
        chunk_size=chunk_size,
        base=base,
    )
