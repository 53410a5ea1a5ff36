"""DynamicSome (Section 3.5 of the paper).

DynamicSome also counts only some lengths — multiples of a ``step`` — but
generates the candidates it counts *on the fly* per customer sequence
instead of materializing them up front. For a customer sequence d,
``otf_generate(L_k, L_step, d)`` joins every large k-sequence contained in
d with every large step-sequence contained in d *after* it; the
concatenations are exactly the (k+step)-sequences contained in d whose
prefix/suffix splits are large, so counting them per customer gives exact
supports. The position test uses the earliest possible end of the prefix
and the latest possible start of the suffix: ``x.y ⊆ d`` iff
``earliest_end(x, d) < latest_start(y, d)``.

After the forward phase, an *intermediate* phase apriori-generates
candidates for the skipped (non-multiple) lengths, and the shared backward
phase counts them. The intermediate phase is DynamicSome's weakness: when
a skipped length's predecessor was never counted, candidates are generated
from candidates, and the candidate sets snowball — the paper reports this
is why DynamicSome loses badly at low minimum supports.
"""

from __future__ import annotations

import time
from typing import Collection, Sequence as PySequence, cast

from repro.core.backward import backward_phase
from repro.core.candidates import apriori_generate
from repro.core.counting import (
    CountableSequences,
    count_candidates,
    count_length2,
    filter_large,
    scanned_rows,
)
from repro.core.hashtree import SequenceHashTree
from repro.core.passkey import checkpointed
from repro.core.phase import CountingOptions, SequencePhaseResult
from repro.core.protocols import PassCheckpoint, TransformedView
from repro.core.sequence import (
    IdSequence,
    OccurrenceIndex,
    earliest_end_index,
    latest_start_index,
)
from repro.core.stats import AlgorithmStats


def otf_generate(
    large_k: Collection[IdSequence],
    large_j: Collection[IdSequence],
    events: PySequence[frozenset[int]],
) -> set[IdSequence]:
    """All concatenations x.y (x ∈ large_k, y ∈ large_j) contained in
    ``events``. Reference implementation; the mining loop uses a hash-tree
    accelerated equivalent."""
    heads: list[tuple[IdSequence, int]] = []
    for head in large_k:
        end = earliest_end_index(head, events)
        if end is not None:
            heads.append((head, end))
    if not heads:
        return set()
    tails: list[tuple[IdSequence, int]] = []
    for tail in large_j:
        start = latest_start_index(tail, events)
        if start is not None:
            tails.append((tail, start))
    return {
        head + tail
        for head, end in heads
        for tail, start in tails
        if end < start
    }


def dynamic_some(
    tdb: TransformedView,
    threshold: int,
    *,
    step: int = 2,
    counting: CountingOptions = CountingOptions(),
    max_length: int | None = None,
    collect_counts: bool = False,
) -> SequencePhaseResult:
    """Find all large sequences with the DynamicSome algorithm.

    ``collect_counts`` retains every pass's full counts for the
    incremental subsystem (see :class:`SequencePhaseResult`).
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if step < 1:
        raise ValueError("step must be >= 1")
    stats = AlgorithmStats("dynamicsome")
    result = SequencePhaseResult(stats=stats, collect_counts=collect_counts)

    # Vertical strategy: invert the database once; the initialization
    # and backward passes join its lists, and the forward (on-the-fly)
    # pass scans the rows it keeps.
    sequences = counting.prepare_sequences(tdb.sequences)

    l1 = tdb.catalog.one_sequence_supports()
    result.large_by_length[1] = l1
    stats.record_generated(1, len(l1))
    stats.record_pass(
        length=1,
        phase="litemset",
        num_candidates=len(l1),
        num_large=len(l1),
        elapsed_seconds=0.0,
    )

    candidates_by_length: dict[int, list[IdSequence]] = {1: sorted(l1)}
    counted: set[int] = {1}

    # --- Initialization: count every length up to `step` level-wise. ---
    for k in range(2, step + 1):
        previous = result.large_by_length.get(k - 1)
        if not previous:
            break
        if max_length is not None and k > max_length:
            break
        started = time.perf_counter()
        if k == 2:
            # Occurring-pairs fast path; C_2 is all |L_1|² ordered pairs.
            counts = count_length2(sequences, **counting.sharding_kwargs())
            result.length2_complete = True
            num_candidates = len(l1) * len(l1)
            candidates = sorted(counts)
        else:
            candidates, parents = apriori_generate(
                previous.keys(), with_parents=True
            )
            num_candidates = len(candidates)
            if not candidates:
                stats.record_generated(k, 0)
                break
            counts = count_candidates(
                sequences, candidates, parents=parents, **counting.kwargs()
            )
        stats.record_generated(k, num_candidates)
        result.record_counts(k, counts)
        candidates_by_length[k] = candidates
        large = filter_large(counts, threshold)
        counting.note_large(sequences, large)
        stats.record_pass(
            length=k,
            phase="initialization",
            num_candidates=num_candidates,
            num_large=len(large),
            elapsed_seconds=time.perf_counter() - started,
        )
        counted.add(k)
        result.large_by_length[k] = large

    # --- Forward: on-the-fly generation and counting of k+step. ---
    large_step = result.large_by_length.get(step, {})
    k = step
    while result.large_by_length.get(k) and large_step:
        target = k + step
        if max_length is not None and target > max_length:
            break
        if target > tdb.max_sequence_length and tdb.max_sequence_length > 0:
            # Nothing that long can be contained in any customer sequence,
            # so skip the pass — but record it as counted-empty, otherwise
            # the intermediate phase would not generate candidates for the
            # lengths between the last non-empty multiple and `target`.
            counted.add(target)
            candidates_by_length[target] = []
            result.large_by_length[target] = {}
            stats.record_pass(
                length=target,
                phase="forward",
                num_candidates=0,
                num_large=0,
                elapsed_seconds=0.0,
            )
            break
        started = time.perf_counter()
        counts = _count_on_the_fly(
            sequences,
            sorted(result.large_by_length[k]),
            sorted(large_step),
            counting.checkpoint,
        )
        # On-the-fly counts are exact for every generated (= occurring)
        # candidate; record them like any other pass. The border here is
        # sparser — never-occurring concatenations are simply absent.
        result.record_counts(target, counts)
        if target == 2:
            # step=1: the k=1 forward pass enumerates every occurring
            # ordered pair, so the length-2 border is still complete.
            result.length2_complete = True
        large = filter_large(counts, threshold)
        counting.note_large(sequences, large)
        stats.record_generated(target, len(counts))
        stats.record_pass(
            length=target,
            phase="forward",
            num_candidates=len(counts),
            num_large=len(large),
            elapsed_seconds=time.perf_counter() - started,
        )
        candidates_by_length[target] = sorted(counts)
        counted.add(target)
        result.large_by_length[target] = large
        k = target

    # --- Intermediate: candidates for the skipped lengths, ascending. ---
    highest = max(counted)
    for length in range(2, highest):
        if length in counted or length in candidates_by_length:
            continue
        if max_length is not None and length > max_length:
            break
        if (length - 1) in counted:
            previous_large = result.large_by_length.get(length - 1, {})
            candidates = apriori_generate(previous_large.keys())
        else:
            previous = candidates_by_length.get(length - 1, [])
            candidates = apriori_generate(previous, prune_universe=previous)
        stats.record_generated(length, len(candidates))
        if candidates:
            candidates_by_length[length] = candidates

    # --- Backward: count skipped lengths with containment pruning. ---
    backward_phase(
        tdb,
        threshold,
        result,
        candidates_by_length,
        counted,
        counting=counting,
        sequences=sequences,
    )
    result.large_by_length = {
        length: large for length, large in result.large_by_length.items() if large
    }
    return result


def _count_on_the_fly(
    sequences: CountableSequences,
    large_k: list[IdSequence],
    large_step: list[IdSequence],
    checkpoint: PassCheckpoint | None,
) -> dict[IdSequence, int]:
    """One forward-phase pass: per customer, join contained heads/tails.

    The rows are scanned under both strategies: a vertical database
    yields the rows it was inverted from, and a disk-backed partitioned
    countable streams its rows partition by partition. The head/tail
    hash trees are built once and probed through a per-customer
    occurrence index, as in the hash-tree engine.

    When a checkpoint store is given, the pass is replayed/recorded like
    every other counting pass; its identity is the digest over both
    input sets (heads and tails).
    """

    def join() -> dict[IdSequence, int]:
        tree_k = SequenceHashTree(large_k)
        tree_step = SequenceHashTree(large_step)
        counts: dict[IdSequence, int] = {}
        for events in scanned_rows(sequences, "the on-the-fly join"):
            index = OccurrenceIndex(events)
            heads = [
                (head, cast(int, earliest_end_index(head, events)))
                for head in tree_k.contained_in(index)
            ]
            if not heads:
                continue
            tails = [
                (tail, cast(int, latest_start_index(tail, events)))
                for tail in tree_step.contained_in(index)
            ]
            if not tails:
                continue
            generated = {
                head + tail
                for head, end in heads
                for tail, start in tails
                if end < start
            }
            for candidate in generated:
                counts[candidate] = counts.get(candidate, 0) + 1
        return counts

    return checkpointed(
        checkpoint, "onthefly", list(large_k) + list(large_step), join
    )
