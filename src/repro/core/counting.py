"""Support counting engines for the sequence phase.

One *pass* = one scan of the transformed database that counts how many
customers contain each candidate (a customer contributes at most 1 to each
candidate, per the paper's support definition). Two interchangeable
strategies are provided:

* ``"hashtree"`` — the paper's approach: build a
  :class:`~repro.core.hashtree.SequenceHashTree` over the candidates and
  probe it once per customer, via a fresh per-pass
  :class:`~repro.core.sequence.OccurrenceIndex` over the customer's
  events cut down to the pass's candidate ids. A customer with fewer
  such events than the shortest candidate is skipped unprobed. The
  probe follows only ids that some candidate holds at each depth, and
  its leaves match only the suffix of candidates on the descent path.
* ``"vertical"`` — candidate-driven instead of data-driven: the
  transformed rows are inverted **once per mining run** into per-id
  occurrence-mask lists, and a candidate's support is the size of the
  join of its two join-parents' memoized support lists
  (:mod:`~repro.core.vertical`). Only the customers that supported both
  parents are touched — no database scan at all — and the lists roll
  forward pass to pass.

Both strategies return identical counts (property tests enforce this).
The quadratic every-candidate-against-every-customer counter lives in
:func:`repro.baselines.bruteforce.count_candidates_naive`, as a test
oracle.

The ``sequences`` argument of every engine is one of two forms: the
transformed rows, or their :class:`~repro.core.vertical.VerticalDatabase`
inversion (``"vertical"`` only; the row sweeps — the length-2 pass and
DynamicSome's on-the-fly join — read the rows the inversion keeps, see
:func:`scanned_rows`). The rows may be the in-memory list or the disk-backed
:class:`~repro.db.partitioned.PartitionedSequences`, which streams them
partition by partition, so the hash tree and the length-2 sweep scan it
as a plain iterable and a pass's peak memory is one partition. Out of
core, ``"vertical"`` counts one partition's cached inversion at a time
and sums — exact because customer support is additive across disjoint
customer partitions. The algorithms prepare the right form once up
front (via :meth:`CountingOptions.prepare_sequences`), so the per-pass
calls here never re-invert.

Either strategy can run sharded-parallel: with ``workers > 1`` (or
``workers=0`` for all CPUs) the pass is routed through
:mod:`repro.parallel`. The hash tree partitions the *customers* into
disjoint shards, counts each shard in a ``multiprocessing`` worker, and
sums the per-shard counts — exact, because customer support is additive
across disjoint customer partitions. The vertical strategy partitions
the *candidates* instead (each parent join is independent and already
customer-complete) and merges disjoint count dicts. ``chunk_size``
optionally fixes the number of items (customers, or candidates for
vertical) per shard; ``workers=1`` is the serial engine, in-process, no
pool.
"""

from __future__ import annotations

from itertools import chain
from typing import Collection, Iterable, Union, cast

from repro.core.hashtree import SequenceHashTree
from repro.core.passkey import checkpointed

# Canonical homes of the strategy alphabet and of the seam aliases are in
# repro.core.protocols; re-exported here because the rest of the package
# historically imports them from the counting module.
from repro.core.protocols import (
    COUNTING_STRATEGIES,
    CandidateParents,
    Countable,
    CountingStrategy,
    PartitionedCountable,
    PassCheckpoint,
    SupportCounts,
    TransformedSequence,
    TransformedSequences,
)
from repro.core.sequence import IdSequence, OccurrenceIndex
from repro.core.vertical import (
    VerticalDatabase,
    count_candidates_vertical,
    ensure_vertical,
)

__all__ = [
    "COUNTING_STRATEGIES",
    "CandidateParents",
    "CountableSequences",
    "CountingStrategy",
    "SupportCounts",
    "TransformedSequences",
    "count_candidates",
    "count_candidates_partitioned",
    "count_hashtree",
    "count_length2",
    "filter_large",
    "scanned_rows",
]

#: What every counting engine scans: the transformed rows (in memory, or
#: the disk-backed partitioned form streamed one partition at a time) or
#: their vertical inversion (vertical and the length-2 fast path only).
#: The partitioned member is the :class:`~repro.core.protocols.PartitionedCountable`
#: *protocol*, not the concrete ``repro.db`` class — the counting layer
#: dispatches structurally and never imports the storage layer.
CountableSequences = Union[
    TransformedSequences,
    VerticalDatabase,
    PartitionedCountable,
]


def _build_trees(candidates: Collection[IdSequence]) -> list[SequenceHashTree]:
    """One tree per candidate length (a tree holds equal-length sequences);
    the algorithms pass uniform lengths, but the API stays safe for mixed
    input."""
    by_length: dict[int, list[IdSequence]] = {}
    for candidate in candidates:
        by_length.setdefault(len(candidate), []).append(candidate)
    return [SequenceHashTree(group) for group in by_length.values()]


def count_candidates(
    sequences: CountableSequences,
    candidates: Collection[IdSequence],
    *,
    strategy: CountingStrategy = "hashtree",
    workers: int = 1,
    chunk_size: int | None = None,
    parents: CandidateParents | None = None,
    checkpoint: PassCheckpoint | None = None,
) -> dict[IdSequence, int]:
    """Count customer support of every candidate in one database pass.

    Returns a dict holding a count for *every* candidate (zero included),
    so callers can filter against a threshold without ``.get`` defaults.
    With ``workers != 1`` the pass runs sharded-parallel (see module
    docstring); the counts are identical either way.

    ``parents`` optionally supplies each candidate's two join parents
    (from ``apriori_generate(..., with_parents=True)``). Only the
    candidate-driven ``"vertical"`` strategy consumes it; when absent it
    derives the parentage by slicing, so callers that only kept the
    candidates (the backward phase, raw engine calls) need no extra
    bookkeeping.

    ``checkpoint`` plugs in the durable pass store (see
    :func:`~repro.core.passkey.checkpointed`): a pass already on disk is
    replayed instead of counted, a freshly counted pass is recorded
    before returning.
    """
    return checkpointed(
        checkpoint,
        "candidates",
        candidates,
        lambda: _count_candidates(
            sequences, candidates, strategy, workers, chunk_size, parents
        ),
    )


def _count_candidates(
    sequences: CountableSequences,
    candidates: Collection[IdSequence],
    strategy: CountingStrategy,
    workers: int,
    chunk_size: int | None,
    parents: CandidateParents | None,
) -> dict[IdSequence, int]:
    if workers != 1:
        from repro.parallel.executor import parallel_count_candidates

        return parallel_count_candidates(
            sequences,
            candidates,
            workers=workers,
            chunk_size=chunk_size,
            strategy=strategy,
            parents=parents,
        )
    if strategy == "vertical":
        if isinstance(sequences, PartitionedCountable):
            return count_candidates_partitioned(
                sequences, candidates, parents=parents
            )
        if not candidates:
            return {}
        return count_candidates_vertical(
            ensure_vertical(sequences), candidates, parents=parents
        )
    if strategy != "hashtree":
        raise ValueError(f"unknown counting strategy {strategy!r}")
    return count_hashtree(cast(Iterable[TransformedSequence], sequences), candidates)


def count_hashtree(
    sequences: Iterable[TransformedSequence],
    candidates: Collection[IdSequence],
) -> dict[IdSequence, int]:
    """The serial hash-tree pass: build the candidate trees once, then
    probe each customer's per-pass occurrence index against them,
    streaming ``sequences`` one customer at a time (a partitioned
    database streams partition by partition). The index holds only the
    candidate ids, and customers that cannot contain the shortest
    candidate are skipped. Returns a count for every candidate, zero
    included."""
    counts: dict[IdSequence, int] = {candidate: 0 for candidate in candidates}
    if not counts:
        return counts
    trees = _build_trees(counts)
    candidate_ids = frozenset(chain.from_iterable(counts))
    shortest = min(map(len, counts))
    for events in sequences:
        # Only events holding a candidate id can take part in a match;
        # a customer left with fewer events than the shortest candidate
        # contains none.
        kept = [held for event in events if (held := event & candidate_ids)]
        if len(kept) < shortest:
            continue
        index = OccurrenceIndex(kept)
        for tree in trees:
            for candidate in tree.contained_in(index):
                counts[candidate] += 1
    return counts


def count_candidates_partitioned(
    sequences: PartitionedCountable,
    candidates: Collection[IdSequence],
    *,
    parents: CandidateParents | None = None,
) -> dict[IdSequence, int]:
    """One out-of-core vertical pass over the partitions.

    Loads one partition's cached inversion at a time, joins every
    candidate against it and sums the counts — exact because customer
    support is additive across disjoint customer partitions. The
    parallel executor's partition shards run this on a slice of the
    partition list, so worker processes share the same code path.
    """
    from repro.parallel.sharding import merge_counts

    counts: dict[IdSequence, int] = {candidate: 0 for candidate in candidates}
    if not counts:
        return counts
    return merge_counts(
        (
            count_candidates_vertical(
                cast(VerticalDatabase, sequences.load_prepared(index)),
                counts,
                parents=parents,
            )
            for index in range(sequences.num_partitions)
        ),
        base=counts,
    )


def filter_large(
    counts: dict[IdSequence, int], threshold: int
) -> dict[IdSequence, int]:
    """Keep only candidates whose count meets the support threshold."""
    return {seq: count for seq, count in counts.items() if count >= threshold}


def count_length2(
    sequences: CountableSequences,
    *,
    workers: int = 1,
    chunk_size: int | None = None,
    checkpoint: PassCheckpoint | None = None,
) -> dict[IdSequence, int]:
    """Fast path for the length-2 pass.

    ``C_2`` is all |L_1|² ordered id pairs (every litemset is a large
    1-sequence), which is far too many to materialize and probe for large
    alphabets. Instead this counts, per customer, exactly the ordered
    pairs that *occur* — any pair never occurring has support 0 and cannot
    be large. Each customer is swept once with a running prefix union;
    per-id *watermarks* record how much of the prefix an id has already
    been paired with, so an id recurring in many events is paired only
    against prefix ids it has not seen yet, and each pair is emitted
    exactly once (no per-customer dedup set).

    Returns counts for occurring pairs only; callers report the analytic
    |L_1|² as the candidate count. Equivalence with the generic engine
    over the materialized ``C_2`` is enforced by a property test.
    ``workers``/``chunk_size`` shard the pass exactly as in
    :func:`count_candidates`. A vertical database is swept through the
    rows it was inverted from, and a partitioned one streams partition
    by partition. ``checkpoint`` replays/records the pass as in
    :func:`count_candidates`; its input is the whole database, so the
    pass identity is the constant empty key set.
    """
    return checkpointed(
        checkpoint,
        "length2",
        (),
        lambda: _count_length2(sequences, workers, chunk_size),
    )


def scanned_rows(sequences: CountableSequences, scan: str) -> Countable:
    """The rows a row-scanning pass sweeps: a vertical database yields
    the rows it was inverted from, every other form is rows already."""
    if isinstance(sequences, VerticalDatabase):
        if sequences.rows is None:
            raise ValueError(f"{scan} needs the inverted rows")
        return sequences.rows
    return sequences


def _count_length2(
    sequences: CountableSequences, workers: int, chunk_size: int | None
) -> dict[IdSequence, int]:
    sequences = scanned_rows(sequences, "the length-2 sweep")
    if workers != 1:
        from repro.parallel.executor import parallel_count_length2

        return parallel_count_length2(
            sequences, workers=workers, chunk_size=chunk_size
        )
    counts: dict[IdSequence, int] = {}
    for events in sequences:
        prefix: list[int] = []  # distinct prefix ids, in first-seen order
        in_prefix: set[int] = set()
        watermark: dict[int, int] = {}  # id -> prefix length already paired
        pairs: list[IdSequence] = []
        for event in events:
            depth = len(prefix)
            if depth:
                for second in event:
                    start = watermark.get(second, 0)
                    if start < depth:
                        for i in range(start, depth):
                            pairs.append((prefix[i], second))
                        watermark[second] = depth
            for litemset_id in event:
                if litemset_id not in in_prefix:
                    in_prefix.add(litemset_id)
                    prefix.append(litemset_id)
        # Each pair occurs at most once per customer (watermarks advance
        # monotonically), so this merge adds exactly 0 or 1 per pair.
        for pair in pairs:
            if pair in counts:
                counts[pair] += 1
            else:
                counts[pair] = 1
    return counts
