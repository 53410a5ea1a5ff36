"""The backward phase shared by AprioriSome and DynamicSome.

Both "Some" algorithms leave some candidate lengths uncounted after their
forward phases. The backward phase walks the lengths from longest to
shortest and, for every skipped length k:

1. deletes candidates contained in an already-known large sequence of a
   greater length — such a candidate is necessarily large (support is
   monotone under containment) but cannot be maximal, so counting it would
   be wasted work;
2. counts the surviving candidates in one database pass and records the
   large ones.

Every large sequence the walk passes — counted forward or found here — is
added to the :class:`~repro.core.maximal.DominatedSet` the maximal filter
uses, so every pruning decision at length k sees all large sequences of
lengths > k. Containment here is the itemset-aware relation, which
requires expanding id sequences through the litemset catalog (see
:mod:`repro.core.maximal`). An expanded id sequence has one event per id,
so a candidate of length k never equals a stored sequence of a greater
length: membership in the dominated set is plain containment.

The paper folds non-maximal deletion of *counted* lengths into this phase
as well; this implementation leaves that to the shared final maximal
filter so that all three algorithms provably return identical answers.
"""

from __future__ import annotations

import time
from typing import Collection

from repro.core.counting import CountableSequences, count_candidates, filter_large
from repro.core.maximal import DominatedSet, SequenceExpander
from repro.core.phase import CountingOptions, SequencePhaseResult
from repro.core.protocols import TransformedView
from repro.core.sequence import IdSequence


def backward_phase(
    tdb: TransformedView,
    threshold: int,
    result: SequencePhaseResult,
    candidates_by_length: dict[int, Collection[IdSequence]],
    counted_lengths: set[int],
    *,
    counting: CountingOptions = CountingOptions(),
    sequences: CountableSequences | None = None,
) -> None:
    """Count all skipped candidate lengths, mutating ``result`` in place.

    ``sequences`` is the per-run database form the forward phase already
    prepared (the inverted id-list database under the vertical
    strategy); when omitted it is derived from ``counting`` —
    inverting at most once for all backward passes combined.
    Under the vertical strategy each pass here, like every other pass,
    builds its candidates' prefix lists from the base vertical lists.
    """
    skipped = [
        length
        for length in candidates_by_length
        if length > 1 and length not in counted_lengths
    ]
    if not skipped:
        return
    if sequences is None:
        sequences = counting.prepare_sequences(tdb.sequences)
    expander = SequenceExpander(tdb.catalog)
    covered = DominatedSet()
    stats = result.stats
    # Nothing below the lowest skipped length is ever pruned, so the walk
    # stops there instead of closing over the shorter counted lengths.
    for length in range(max(candidates_by_length), min(skipped) - 1, -1):
        if length in counted_lengths:
            for sequence in result.large_by_length.get(length, ()):
                covered.add(expander.expand(sequence))
            continue
        candidates = candidates_by_length.get(length, ())
        if not candidates:
            continue
        remaining = [
            candidate
            for candidate in candidates
            if expander.expand(candidate) not in covered
        ]
        stats.skipped_by_containment += len(candidates) - len(remaining)
        started = time.perf_counter()
        counts = count_candidates(sequences, remaining, **counting.kwargs())
        result.record_counts(length, counts)
        large = filter_large(counts, threshold)
        stats.record_pass(
            length=length,
            phase="backward",
            num_candidates=len(remaining),
            num_large=len(large),
            elapsed_seconds=time.perf_counter() - started,
        )
        if large:
            result.large_by_length[length] = large
            for sequence in large:
                covered.add(expander.expand(sequence))
