"""Process-pool execution of sharded counting passes.

One pool is spawned per counting pass. Per-pass state that every shard
needs — the candidate list (from which each worker rebuilds its hash
tree), the counting strategy, or the time constraints — is shipped to
each worker exactly *once*, through the pool initializer, rather than
once per shard. A shard task carries only its ``(start, stop)`` customer
bounds: under the ``fork`` start method (preferred whenever the platform
offers it) the workers inherit the parent's sequence list copy-on-write,
so no sequence data is pickled at all; under ``spawn`` the sequences ride
along in the initializer, once per worker. Either way a task returns a
sparse ``{candidate: count}`` dict (zero counts are dropped on the wire
and restored in the merge).

The database handed in may be the raw transformed sequence list, or a
compiled form built once per run in the parent: the
:class:`~repro.core.bitset.CompiledDatabase` the length-2 pass sweeps
under ``"vertical"``, or the compiled timed histories of the
constrained pass. Slicing a compiled database yields a compiled shard
with zero recompilation, so under ``fork`` the workers inherit the
parent's compiled bitmasks copy-on-write and under ``spawn`` compiled
shards are pickled exactly like raw ones.

The ``"vertical"`` strategy shards differently: its per-candidate parent
joins are already complete over all customers, so the pass partitions
the **candidates** (``chunk_size`` then means candidates per shard) and
ships the whole :class:`~repro.core.vertical.VerticalDatabase` — inverted
once, in the parent — to every worker (inherited copy-on-write under
``fork``). Each worker counts a disjoint candidate subset, so the merged
dicts never overlap. One honest caveat: the parent's cross-pass
support-list cache is not updated by worker-side counting, so a
parallel vertical pass rebuilds its parent lists inside the workers
(memoized per worker, shared across that worker's candidates) instead of
rolling lists forward pass to pass as the serial engine does.

A disk-backed :class:`~repro.db.partitioned.PartitionedSequences` shards
by **partition**: the object shipped to the pool is just the list of
partition file paths (plus counts), each worker receives a range of
partition *indices* and opens the binlog (or on-disk compiled cache)
itself, counts one partition at a time with the serial engine, and
returns a sparse merged dict. No sequence data is pickled under either
``fork`` or ``spawn``, and worker peak memory stays one partition —
which is the whole point of the out-of-core path. ``chunk_size`` then
means partitions per shard.

The worker entry points are module-level functions so they are picklable
under every ``multiprocessing`` start method.

Serial equivalence (the tests' contract): for any database, candidate
set, worker count, and strategy, the merged counts equal the serial
engine's output exactly. ``workers == 1`` (or a single shard) never
spawns a pool at all — it falls through to the serial engine in-process.

Worker loss is survived, not fatal: shards are dispatched as individual
futures, a died-worker (``BrokenProcessPool``) or failing shard is
re-dispatched with exponential backoff up to ``SHARD_MAX_ATTEMPTS``
times — through a fresh pool when the old one broke — and a shard that
keeps failing degrades to in-process serial counting. Retries and
degradations are logged on ``repro.parallel``; merged counts are
identical either way (see :func:`_run_sharded`).

Passes hand their state to forked workers through module globals
(``_SEQUENCES``/``_STATE``), so at most one counting pass may be in
flight per parent process at a time. The library itself always counts
one pass at a time and scales *within* a pass via this executor; callers
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

from repro.core.hashtree import DEFAULT_BRANCH_FACTOR, DEFAULT_LEAF_CAPACITY
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

#: The sequence list of the pass in flight. In the parent it is set just
#: before the pool forks (children inherit it copy-on-write) and cleared
#: after the pass; in a spawned worker the initializer assigns it.
_SEQUENCES: Any = None

#: Per-pass worker state installed by the pool initializer, keyed by the
#: kind of counting pass.
_STATE: dict[str, tuple[Any, ...]] = {}


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


def _init_worker(sequences: Any, kind: str, state: tuple[Any, ...]) -> None:
    global _SEQUENCES
    if sequences is not None:  # spawn/forkserver: data arrives here
        _SEQUENCES = sequences
    _STATE[kind] = state


def _run_sharded(sequences: Any, workers: int, chunk_size: int | None,
                 kind: str, state: tuple[Any, ...],
                 task: "Callable[[tuple[int, int]], dict]", *,
                 num_items: int | None = None) -> list[dict]:
    """Map ``task`` over shard bounds in a fresh worker pool, surviving
    worker loss.

    Bounds cover the customers by default; ``num_items`` overrides the
    sharded dimension (the vertical pass shards candidates instead).

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
    global _SEQUENCES
    bounds = shard_bounds(
        len(sequences) if num_items is None else num_items, workers, chunk_size
    )
    workers = min(workers, len(bounds))  # never spawn idle processes
    context = _context()
    ship = context.get_start_method() != "fork"
    _SEQUENCES = sequences
    # The parent holds the per-pass state too (forked children inherit
    # it; spawned ones get it via the initializer) so a degraded shard
    # can run ``task`` in-process.
    _STATE[kind] = state
    initargs = (sequences if ship else None, kind, state)
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
        _SEQUENCES = None
        _STATE.pop(kind, None)
    return cast("list[dict]", results)


# --- Generic candidate counting (customer shards or candidate shards) ----


def _count_shard(bounds: tuple[int, int]) -> dict:
    from repro.core.counting import count_candidates

    candidates, strategy, leaf_capacity, branch_factor = _STATE["count"]
    counts = count_candidates(
        _SEQUENCES[bounds[0] : bounds[1]],
        candidates,
        strategy=strategy,
        leaf_capacity=leaf_capacity,
        branch_factor=branch_factor,
    )
    return {candidate: count for candidate, count in counts.items() if count}


def _count_partitioned_shard(bounds: tuple[int, int]) -> dict:
    """One shard of an out-of-core pass: a range of partition indices.

    ``_SEQUENCES`` is the (tiny, path-holding) partitioned description;
    the worker opens each of its partitions from disk in the prepared
    strategy form and counts it serially — with per-pass candidate
    structures built once for the whole shard — so shipping the work
    costs bytes of paths, not sequences.
    """
    from repro.core.counting import count_candidates_partitioned

    candidates, strategy, leaf_capacity, branch_factor = _STATE["partitioned"]
    counts = count_candidates_partitioned(
        _SEQUENCES,
        candidates,
        strategy=strategy,
        leaf_capacity=leaf_capacity,
        branch_factor=branch_factor,
        partition_indices=range(bounds[0], bounds[1]),
    )
    return {candidate: count for candidate, count in counts.items() if count}


def _count_vertical_shard(bounds: tuple[int, int]) -> dict:
    """One candidate shard of a vertical pass: the whole database, a
    disjoint slice of the candidates. The join parentage is re-derived by
    slicing in the engine (guaranteed identical to the generator's
    mapping), so the parents dict never rides the wire."""
    from repro.core.counting import count_candidates

    (candidates,) = _STATE["vertical"]
    counts = count_candidates(
        _SEQUENCES,
        candidates[bounds[0] : bounds[1]],
        strategy="vertical",
    )
    return {candidate: count for candidate, count in counts.items() if count}


def parallel_count_candidates(
    sequences: "CountableSequences",
    candidates: "Collection[IdSequence]",
    *,
    workers: int = 0,
    chunk_size: int | None = None,
    strategy: "CountingStrategy" = "hashtree",
    leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
    branch_factor: int = DEFAULT_BRANCH_FACTOR,
    parents: "CandidateParents | None" = None,
) -> dict:
    """Sharded-parallel equivalent of :func:`repro.core.counting.count_candidates`.

    Returns a count for every candidate (zeros included) in the same
    insertion order as the serial engine. The hash tree shards
    customers; ``"vertical"`` shards candidates (see module docstring).
    ``parents`` — the join parentage from ``apriori_generate(...,
    with_parents=True)`` — is used only on the serial fallback path;
    sharded workers re-derive it by slicing instead of pickling it.
    """
    from repro.core.counting import count_candidates
    from repro.core.vertical import ensure_vertical
    from repro.db.partitioned import PartitionedSequences

    workers = resolve_workers(workers)
    base = {candidate: 0 for candidate in candidates}
    if isinstance(sequences, PartitionedSequences):
        num_items = sequences.num_partitions
        if (
            not base
            or not len(sequences)
            or workers == 1
            or len(shard_bounds(num_items, workers, chunk_size)) == 1
        ):
            return count_candidates(
                sequences,
                base,
                strategy=strategy,
                leaf_capacity=leaf_capacity,
                branch_factor=branch_factor,
                parents=parents,
            )
        state = (list(base), strategy, leaf_capacity, branch_factor)
        per_shard = _run_sharded(
            sequences, workers, chunk_size, "partitioned", state,
            _count_partitioned_shard, num_items=num_items,
        )
        return merge_counts(per_shard, base=base)
    if strategy == "vertical":
        # Invert once, in the parent; workers inherit (fork) or receive
        # (spawn) the inverted database whole, never a customer slice.
        if base and len(sequences):
            sequences = ensure_vertical(sequences)
        num_items = len(base)
    else:
        num_items = len(sequences)
    if (
        not base
        or not len(sequences)
        or workers == 1
        or len(shard_bounds(num_items, workers, chunk_size)) == 1
    ):
        return count_candidates(
            sequences,
            base,
            strategy=strategy,
            leaf_capacity=leaf_capacity,
            branch_factor=branch_factor,
            parents=parents,
        )
    if strategy == "vertical":
        state = (list(base),)
        per_shard = _run_sharded(
            sequences, workers, chunk_size, "vertical", state,
            _count_vertical_shard, num_items=num_items,
        )
    else:
        state = (list(base), strategy, leaf_capacity, branch_factor)
        per_shard = _run_sharded(
            sequences, workers, chunk_size, "count", state, _count_shard
        )
    return merge_counts(per_shard, base=base)


# --- Length-2 fast path -------------------------------------------------


def _count_length2_shard(bounds: tuple[int, int]) -> dict:
    from repro.core.counting import count_length2

    return count_length2(_SEQUENCES[bounds[0] : bounds[1]])


def _count_length2_partitioned_shard(bounds: tuple[int, int]) -> dict:
    from repro.core.counting import count_length2

    return merge_counts(
        count_length2(_SEQUENCES.load_length2(index))
        for index in range(bounds[0], bounds[1])
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

    workers = resolve_workers(workers)
    if isinstance(sequences, PartitionedSequences):
        # Shard by partition; each worker opens its own partition files.
        if (
            not len(sequences)
            or workers == 1
            or len(shard_bounds(sequences.num_partitions, workers, chunk_size)) == 1
        ):
            return count_length2(sequences)
        per_shard = _run_sharded(
            sequences, workers, chunk_size, "length2_partitioned", (),
            _count_length2_partitioned_shard, num_items=sequences.num_partitions,
        )
        return merge_counts(per_shard)
    if (
        not sequences
        or workers == 1
        or len(shard_bounds(len(sequences), workers, chunk_size)) == 1
    ):
        return count_length2(sequences)
    per_shard = _run_sharded(
        sequences, workers, chunk_size, "length2", (), _count_length2_shard
    )
    return merge_counts(per_shard)


# --- PrefixSpan seed-sharded pattern growth -----------------------------


def _prefixspan_shard(bounds: tuple[int, int]) -> dict:
    """One seed shard of a pattern-growth run: the whole (projected or
    partition-described) database, a disjoint range of the frequent
    length-1 seed items. Every pattern is grown from exactly one seed —
    the smallest item of its first event — so shard results never
    overlap and the merge is plain union."""
    from repro.core.prefixspan import grow_seed_range

    seeds, frequent_items, threshold, max_pattern_length = _STATE["prefixspan"]
    return grow_seed_range(
        _SEQUENCES,
        seeds[bounds[0] : bounds[1]],
        frequent_items,
        threshold,
        max_pattern_length,
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

    Each worker grows the complete frequent subtree of its seed range
    with :func:`repro.core.prefixspan.grow_seed_range`. An in-memory
    database is projected to the frequent items once, in the parent
    (workers inherit the projection copy-on-write under ``fork``); a
    partitioned database ships as its path-holding description and every
    worker streams its own partitions from disk, so the out-of-core
    memory contract is unchanged. ``chunk_size`` means seeds per shard;
    ``workers == 1`` (or a single shard) grows in-process. The merged
    union equals the serial engine's output exactly for every setting,
    and shards ride :func:`_run_sharded`'s retry/degrade fault tolerance.
    """
    from repro.core.prefixspan import grow_seed_range, project_events
    from repro.core.protocols import PartitionedRecordStream

    workers = resolve_workers(workers)
    seeds = list(seed_items)
    data: Any
    if isinstance(db, PartitionedRecordStream):
        data = db
    else:
        data = []
        for customer in db:
            events = project_events(customer.events, frequent_items)
            if events:
                data.append(events)
    if (
        not seeds
        or workers == 1
        or len(shard_bounds(len(seeds), workers, chunk_size)) == 1
    ):
        return grow_seed_range(
            data, seeds, frequent_items, threshold, max_pattern_length
        )
    state = (seeds, frequent_items, threshold, max_pattern_length)
    per_shard = _run_sharded(
        data, workers, chunk_size, "prefixspan", state, _prefixspan_shard,
        num_items=len(seeds),
    )
    merged: "dict[EventsTuple, int]" = {}
    for counts in per_shard:
        merged.update(counts)
    return merged


# --- Time-constrained containment counting ------------------------------


def _count_timed_shard(bounds: tuple[int, int]) -> dict:
    from repro.extensions.timeconstraints import contains_timed

    candidates, constraints = _STATE["timed"]
    counts: dict = {}
    for events in _SEQUENCES[bounds[0] : bounds[1]]:
        for candidate in candidates:
            if contains_timed(events, candidate, constraints):
                counts[candidate] = counts.get(candidate, 0) + 1
    return counts


def parallel_count_timed(
    sequences: PySequence,
    candidates: Collection,
    constraints: "TimeConstraints",
    *,
    workers: int = 0,
    chunk_size: int | None = None,
) -> dict:
    """Count constraint-aware support of every candidate over customer shards.

    Parallel version of the candidate-containment loop of
    :func:`repro.extensions.timeconstraints.mine_time_constrained`;
    ``workers == 1`` runs the loop in-process without touching the
    pool machinery.
    """
    from repro.extensions.timeconstraints import contains_timed

    workers = resolve_workers(workers)
    base = {candidate: 0 for candidate in candidates}
    if not base or not sequences:
        return base
    if workers == 1 or len(shard_bounds(len(sequences), workers, chunk_size)) == 1:
        counts = dict(base)
        for events in sequences:
            for candidate in counts:
                if contains_timed(events, candidate, constraints):
                    counts[candidate] += 1
        return counts
    per_shard = _run_sharded(
        sequences, workers, chunk_size, "timed", (list(base), constraints),
        _count_timed_shard,
    )
    return merge_counts(per_shard, base=base)
