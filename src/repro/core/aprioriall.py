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

from repro.core.candidates import apriori_generate
from repro.core.counting import count_candidates, count_length2, filter_large
from repro.core.phase import CountingOptions, SequencePhaseResult
from repro.core.protocols import TransformedView
from repro.core.stats import AlgorithmStats


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
    stats = AlgorithmStats("aprioriall")
    result = SequencePhaseResult(stats=stats, collect_counts=collect_counts)

    # One-time per-run database preparation: the vertical strategy
    # inverts the rows into per-id occurrence-mask lists here, so the
    # per-length passes below never rebuild them.
    sequences = counting.prepare_sequences(tdb.sequences)

    # L_1 comes for free from the litemset phase: the support of <(X)>
    # equals the support of the itemset X, and every catalog entry meets
    # the threshold by construction.
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

    k = 2
    while result.large_by_length.get(k - 1):
        if max_length is not None and k > max_length:
            break
        started = time.perf_counter()
        if k == 2:
            # C_2 is all |L_1|² ordered pairs; count occurring pairs
            # directly instead of materializing them (see count_length2).
            num_candidates = len(l1) * len(l1)
            counts = count_length2(sequences, checkpoint=counting.checkpoint)
            result.length2_complete = True
        else:
            candidates = apriori_generate(result.large_by_length[k - 1].keys())
            num_candidates = len(candidates)
            if not candidates:
                stats.record_generated(k, 0)
                break
            counts = count_candidates(sequences, candidates, **counting.kwargs())
        stats.record_generated(k, num_candidates)
        result.record_counts(k, counts)
        large = filter_large(counts, threshold)
        stats.record_pass(
            length=k,
            phase="forward",
            num_candidates=num_candidates,
            num_large=len(large),
            elapsed_seconds=time.perf_counter() - started,
        )
        if not large:
            break
        result.large_by_length[k] = large
        k += 1
    return result
