"""AprioriAll (Section 3.3 of the paper).

The straightforward level-wise algorithm: every pass k generates candidate
k-sequences from the large (k−1)-sequences, counts them all in one scan of
the transformed database, and keeps the large ones. It terminates when a
pass produces no large sequences (anti-monotonicity of support guarantees
nothing longer can be large) or no candidates at all. Non-maximal large
sequences are *not* filtered here — the maximal phase does that — which is
exactly the work AprioriSome's backward phase avoids.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.core.candidates import apriori_generate
from repro.core.counting import (
    count_candidates,
    count_length2,
    filter_large,
    pair_floor,
)
from repro.core.phase import CountingOptions, SequencePhaseResult
from repro.core.protocols import TransformedView
from repro.core.sequence import IdSequence


def apriori_all(
    tdb: TransformedView,
    threshold: int,
    *,
    counting: CountingOptions = CountingOptions(),
    max_length: int | None = None,
    collect_counts: bool = False,
) -> SequencePhaseResult:
    """Find all large sequences with the AprioriAll algorithm.

    ``threshold`` is the integer customer count from
    :func:`repro.db.database.support_threshold`. ``max_length`` optionally
    caps the pattern length (``None`` = run to fixpoint, as the paper
    does). ``collect_counts`` retains every pass's full counts for the
    incremental subsystem (see :class:`SequencePhaseResult`).
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    result = SequencePhaseResult.start(
        "aprioriall", tdb.catalog.one_sequence_supports(), collect_counts
    )
    # One-time per-run database preparation: the vertical strategy
    # inverts the rows into per-id occurrence-mask lists here, so the
    # per-length passes below never rebuild them.
    sequences = counting.prepare_sequences(tdb.sequences)
    count_level_wise(
        result,
        threshold,
        lambda floor: count_length2(
            sequences, floor=floor, checkpoint=counting.checkpoint
        ),
        lambda candidates: count_candidates(
            sequences, candidates, **counting.kwargs()
        ),
        phase="forward",
        max_length=max_length,
        floor=pair_floor(
            threshold, collect_counts=collect_counts, checkpoint=counting.checkpoint
        ),
    )
    return result


def count_level_wise(
    result: SequencePhaseResult,
    threshold: int,
    count_pairs: Callable[[int], dict[IdSequence, int]],
    count: Callable[[list[IdSequence]], dict[IdSequence, int]],
    *,
    phase: str,
    max_length: int | None,
    floor: int,
) -> None:
    """The level-wise loop of the sequence phase, from the L_1 that
    ``result`` starts with: generate each length's candidates from the
    last length's large sequences, count them, keep the large ones, and
    stop at the first length with no candidates or no large sequences
    (or past ``max_length``). Each pass is recorded in ``result`` under
    ``phase``.

    Length 2 is all |L_1|² ordered pairs, never materialized:
    ``count_pairs(floor)`` returns the counts of the pairs supported by
    at least ``floor`` customers (see
    :func:`~repro.core.counting.count_length2` and
    :func:`~repro.core.counting.pair_floor`), and the pass reports the
    analytic |L_1|² as its candidate count; only a pass at floor 1
    leaves ``result.length2_complete`` set. Every longer length calls
    ``count(candidates)`` for a count of each candidate.
    """
    num_ids = len(result.large_by_length[1])
    k = 2
    while result.large_by_length.get(k - 1):
        if max_length is not None and k > max_length:
            break
        started = time.perf_counter()
        if k == 2:
            num_candidates = num_ids * num_ids
            counts = count_pairs(floor)
            result.length2_complete = floor == 1
        else:
            candidates = apriori_generate(result.large_by_length[k - 1].keys())
            num_candidates = len(candidates)
            if not candidates:
                result.stats.record_generated(k, 0)
                break
            counts = count(candidates)
        result.stats.record_generated(k, num_candidates)
        result.record_counts(k, counts)
        large = filter_large(counts, threshold)
        result.stats.record_pass(
            length=k,
            phase=phase,
            num_candidates=num_candidates,
            num_large=len(large),
            elapsed_seconds=time.perf_counter() - started,
        )
        if not large:
            break
        result.large_by_length[k] = large
        k += 1
