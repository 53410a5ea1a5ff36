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
  temporal join of its prefix's support list with its last id's list
  (:mod:`~repro.core.vertical`). Only the customers that support the
  prefix are touched — no database scan at all. Each pass builds the
  prefix lists it needs and keeps nothing for the next one.

Both strategies return identical counts (property tests enforce this).
The quadratic every-candidate-against-every-customer counter lives in
:func:`repro.baselines.bruteforce.count_candidates_naive`, as a test
oracle.

The length-2 pass is neither: its |L_1|² candidates are never built.
:func:`count_length2` finds each customer's ordered pairs with one
comparison of its ids' first and last events, codes each pair as one
int and tallies all customers with one sort
(:func:`tally_pair_codes`, shared with litemset pass 2), building
tuples only for the pairs at or above a floor — the support threshold
in a plain run, 1 in a run that keeps a state snapshot or a
checkpoint (:func:`pair_floor`).

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
calls here never re-invert; out of core, a partition is inverted by the
first pass that joins its lists and unpickled by every later one.

Every pass runs serially in-process, one database scan at a time, as
in the paper. (Sharding these passes over a process pool lost end to
end in every measured configuration; :mod:`repro.parallel` keeps the
pool for PrefixSpan and the time-constrained miner only.)
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Collection, Iterable, Union, cast

import numpy as np

from repro.core.hashtree import SequenceHashTree
from repro.core.passkey import checkpointed

# Canonical homes of the strategy alphabet and of the seam aliases are in
# repro.core.protocols; re-exported here because the rest of the package
# historically imports them from the counting module.
from repro.core.protocols import (
    COUNTING_STRATEGIES,
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
    "CountableSequences",
    "CountingStrategy",
    "SupportCounts",
    "TransformedSequences",
    "count_candidates",
    "count_candidates_partitioned",
    "count_hashtree",
    "count_length2",
    "filter_large",
    "pair_floor",
    "scanned_rows",
    "tally_pair_codes",
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
    checkpoint: PassCheckpoint | None = None,
) -> dict[IdSequence, int]:
    """Count customer support of every candidate in one database pass.

    Returns a dict holding a count for *every* candidate (zero included),
    so callers can filter against a threshold without ``.get`` defaults.

    ``checkpoint`` plugs in the durable pass store (see
    :func:`~repro.core.passkey.checkpointed`): a pass already on disk is
    replayed instead of counted, a freshly counted pass is recorded
    before returning.
    """
    return checkpointed(
        checkpoint,
        "candidates",
        candidates,
        lambda: _count_candidates(sequences, candidates, strategy),
    )


def _count_candidates(
    sequences: CountableSequences,
    candidates: Collection[IdSequence],
    strategy: CountingStrategy,
) -> dict[IdSequence, int]:
    if strategy == "vertical":
        if isinstance(sequences, PartitionedCountable):
            return count_candidates_partitioned(sequences, candidates)
        if not candidates:
            return {}
        return count_candidates_vertical(ensure_vertical(sequences), candidates)
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
) -> dict[IdSequence, int]:
    """One out-of-core vertical pass over the partitions.

    Loads one partition's inversion at a time (inverted and cached on
    disk by the first pass that needs it, unpickled after), counts every
    candidate against it with :func:`count_candidates_vertical` and sums
    the counts — exact because customer support is additive across
    disjoint customer partitions.
    """
    from repro.parallel.sharding import merge_counts

    counts: dict[IdSequence, int] = {candidate: 0 for candidate in candidates}
    if not counts:
        return counts
    return merge_counts(
        (
            count_candidates_vertical(
                cast(VerticalDatabase, sequences.load_prepared(index)), counts
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


def pair_floor(
    threshold: int, *, collect_counts: bool, checkpoint: PassCheckpoint | None
) -> int:
    """The floor of a run's pair passes (litemset pass 2 and the
    length-2 pass): a run that keeps neither a state snapshot nor a
    checkpoint needs only the large pairs, so its floor is the support
    threshold; every other run keeps every occurring pair (floor 1), as
    the snapshot's border and a checkpoint's pass files record them."""
    if collect_counts or checkpoint is not None:
        return 1
    return threshold


def tally_pair_codes(
    codes: np.ndarray, low: int, n: int, floor: int
) -> dict[tuple[int, ...], int]:
    """The tail of both pair passes: ``codes`` holds one code
    ``(a - low)*n + (b - low)`` per customer supporting the pair
    ``(a, b)``, every element lying in ``[low, low + n)``; returns each
    pair whose count is at least ``floor``, keyed in code order (first
    element, then second). Tuples are built for the kept pairs only."""
    values, counts = np.unique(codes, return_counts=True)
    keep = counts >= floor
    firsts, seconds = np.divmod(values[keep], n)
    pairs: Iterable[tuple[int, ...]] = zip(
        (firsts + low).tolist(), (seconds + low).tolist()
    )
    return dict(zip(pairs, counts[keep].tolist()))


def count_length2(
    sequences: CountableSequences | Iterable[TransformedSequence],
    *,
    floor: int = 1,
    checkpoint: PassCheckpoint | None = None,
) -> dict[IdSequence, int]:
    """The length-2 pass, without its candidates.

    ``C_2`` is all |L_1|² ordered id pairs (every litemset is a large
    1-sequence), far too many to materialize and probe, and nearly all
    of them occur in no customer. Instead: a customer supports the pair
    ``(a, b)`` iff the first event holding ``a`` comes before the last
    event holding ``b``, so one comparison ``first[:, None] <
    last[None, :]`` over the customer's distinct ids gives all its
    pairs, ``(a, a)`` included. Each pair is encoded as one int ``a*n + b``
    (over the ids' range, ``n`` ids wide) and all customers are tallied
    with one sort (:func:`tally_pair_codes`), in memory proportional to
    the pair occurrences.

    Returns the pairs supported by at least ``floor`` customers: the
    default 1 gives every occurring pair (what a state snapshot or a
    checkpoint records), the support threshold gives the large pairs
    only. Callers report the analytic |L_1|² as the candidate count.
    Equivalence with the generic engine over the materialized ``C_2`` is
    enforced by a property test. A vertical database is swept through
    the rows it was inverted from, a partitioned one streams partition
    by partition, and any other iterable of rows is read once.
    ``checkpoint`` replays/records the pass as in
    :func:`count_candidates`; its input is the whole database, so the
    pass identity is the constant empty key set, and a checkpointed pass
    always counts at floor 1.
    """
    if checkpoint is not None and floor != 1:
        raise ValueError("a checkpointed length-2 pass counts at floor 1")
    return checkpointed(
        checkpoint,
        "length2",
        (),
        lambda: _count_length2(sequences, floor),
    )


def scanned_rows(
    sequences: CountableSequences | Iterable[TransformedSequence], scan: str
) -> Iterable[TransformedSequence]:
    """The rows a row-scanning pass sweeps: a vertical database yields
    the rows it was inverted from, every other form is rows already."""
    if isinstance(sequences, VerticalDatabase):
        if sequences.rows is None:
            raise ValueError(f"{scan} needs the inverted rows")
        return sequences.rows
    return sequences


def _count_length2(
    sequences: CountableSequences | Iterable[TransformedSequence], floor: int
) -> dict[IdSequence, int]:
    firsts: list[np.ndarray] = []
    seconds: list[np.ndarray] = []
    for events in scanned_rows(sequences, "the length-2 sweep"):
        if len(events) < 2:
            continue
        # Both dicts gain an id at its first event, so they list the
        # ids in the same order.
        first: dict[int, int] = {}
        last: dict[int, int] = {}
        for position, event in enumerate(events):
            for litemset_id in event:
                if litemset_id not in first:
                    first[litemset_id] = position
                last[litemset_id] = position
        size = len(first)
        ids = np.fromiter(first, dtype=np.int64, count=size)
        starts = np.fromiter(first.values(), dtype=np.int64, count=size)
        ends = np.fromiter(last.values(), dtype=np.int64, count=size)
        heads, tails = np.nonzero(starts[:, None] < ends[None, :])
        firsts.append(ids[heads])
        seconds.append(ids[tails])
    if not firsts:
        return {}
    head_ids = np.concatenate(firsts)
    tail_ids = np.concatenate(seconds)
    if not head_ids.size:
        return {}
    low = int(min(head_ids.min(), tail_ids.min()))
    n = int(max(head_ids.max(), tail_ids.max())) - low + 1
    if n > math.isqrt(np.iinfo(np.int64).max):
        # Litemset ids are dense catalog positions; rows whose ids span
        # this much cannot be coded in int64 without wrapping.
        raise ValueError(f"ids span {n} values, too many to code id pairs")
    return tally_pair_codes((head_ids - low) * n + (tail_ids - low), low, n, floor)
