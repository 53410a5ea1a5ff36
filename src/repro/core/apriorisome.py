"""AprioriSome (Section 3.4 of the paper).

AprioriSome exploits the fact that only *maximal* sequences are reported:
counting a length whose large sequences will mostly turn out to be
contained in longer ones is wasted work. Its forward phase therefore
counts only *some* lengths, chosen by the ``next(k)`` heuristic — skip
further ahead when the previous counted pass had a high hit ratio
``|L_k| / |C_k|`` (many large candidates ⇒ probably long maximal
sequences ⇒ intermediate lengths are mostly non-maximal). Candidates for
an uncounted length are generated from the previous *candidate* set, a
superset of the unknown large set, so completeness is preserved.
Generation stops at the longest transformed customer sequence: no
longer sequence can have support.

The backward phase (shared with DynamicSome, see
:mod:`repro.core.backward`) then counts the skipped lengths longest-first,
after deleting candidates contained in already-found longer large
sequences.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.backward import backward_phase
from repro.core.candidates import apriori_generate
from repro.core.counting import count_candidates, count_length2, filter_large
from repro.core.phase import CountingOptions, SequencePhaseResult
from repro.core.protocols import TransformedView
from repro.core.sequence import IdSequence
from repro.core.stats import AlgorithmStats


@dataclass(frozen=True, slots=True)
class NextLengthPolicy:
    """The paper's ``next(k)`` heuristic as a configurable object.

    ``breakpoints`` maps hit-ratio upper bounds to skip distances: with the
    defaults, hit ratio < 0.666 counts the very next length, < 0.75 skips
    one, < 0.80 skips two, < 0.85 skips three, and anything denser skips
    ``max_skip − 1`` lengths. The length-2 pass is always counted: the
    hit ratio at length 1 is 1.0 by construction (every litemset is a
    large 1-sequence), which would otherwise trigger a maximal skip before
    any evidence has been seen.
    """

    breakpoints: tuple[tuple[float, int], ...] = (
        (0.666, 1),
        (0.75, 2),
        (0.80, 3),
        (0.85, 4),
    )
    max_skip: int = 5

    def __post_init__(self) -> None:
        previous = 0.0
        for bound, step in self.breakpoints:
            if bound <= previous:
                raise ValueError("breakpoints must be strictly increasing")
            if step < 1:
                raise ValueError("skip distances must be >= 1")
            previous = bound
        if self.max_skip < 1:
            raise ValueError("max_skip must be >= 1")

    def next_length(self, last_counted: int, hit_ratio: float) -> int:
        """The next length to count after counting ``last_counted``."""
        if last_counted == 1:
            return 2
        for bound, step in self.breakpoints:
            if hit_ratio < bound:
                return last_counted + step
        return last_counted + self.max_skip


def apriori_some(
    tdb: TransformedView,
    threshold: int,
    *,
    counting: CountingOptions = CountingOptions(),
    next_policy: NextLengthPolicy = NextLengthPolicy(),
    max_length: int | None = None,
    collect_counts: bool = False,
) -> SequencePhaseResult:
    """Find all large sequences with the AprioriSome algorithm.

    ``collect_counts`` retains every pass's full counts for the
    incremental subsystem (see :class:`SequencePhaseResult`).
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    stats = AlgorithmStats("apriorisome")
    result = SequencePhaseResult(stats=stats, collect_counts=collect_counts)

    # Vertical strategy: invert the database once for the whole run —
    # forward passes and the backward phase all reuse the prepared form.
    # Under the vertical strategy the backward phase's skipped lengths
    # find no memoized parent lists and rebuild them from the base
    # vertical lists (see repro.core.vertical).
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
    last_counted = 1
    next_to_count = next_policy.next_length(1, 1.0)

    k = 2
    while candidates_by_length.get(k - 1) and result.large_by_length.get(last_counted):
        if max_length is not None and k > max_length:
            break
        if k > tdb.max_sequence_length:
            # No customer sequence holds k events, so no k-sequence or
            # longer one has support. Candidates generated from skipped
            # (uncounted) lengths are not support-pruned and grow as
            # |L_1|^k, so going on would only build and count empty sets.
            break
        if k == 2:
            # The policy always counts length 2, and C_2 is all |L_1|²
            # ordered pairs — use the occurring-pairs fast path instead of
            # materializing them (see count_length2).
            started = time.perf_counter()
            counts = count_length2(sequences, **counting.sharding_kwargs())
            result.length2_complete = True
            num_candidates = len(l1) * len(l1)
            candidates = sorted(counts)
        else:
            if (k - 1) in counted:
                candidates, parents = apriori_generate(
                    result.large_by_length[k - 1].keys(), with_parents=True
                )
            else:
                previous = candidates_by_length[k - 1]
                candidates, parents = apriori_generate(
                    previous, prune_universe=previous, with_parents=True
                )
            num_candidates = len(candidates)
        stats.record_generated(k, num_candidates)
        if not candidates:
            break
        candidates_by_length[k] = candidates
        if k == next_to_count:
            if k != 2:
                started = time.perf_counter()
                counts = count_candidates(
                    sequences, candidates, parents=parents, **counting.kwargs()
                )
            result.record_counts(k, counts)
            large = filter_large(counts, threshold)
            counting.note_large(sequences, large)
            stats.record_pass(
                length=k,
                phase="forward",
                num_candidates=num_candidates,
                num_large=len(large),
                elapsed_seconds=time.perf_counter() - started,
            )
            result.large_by_length[k] = large
            counted.add(k)
            last_counted = k
            next_to_count = next_policy.next_length(
                k, len(large) / num_candidates if num_candidates else 0.0
            )
            if not large:
                break
        k += 1

    # Lengths that have candidates but were skipped in the forward phase
    # are counted backward, longest first, with containment pruning.
    backward_phase(
        tdb,
        threshold,
        result,
        candidates_by_length,
        counted,
        counting=counting,
        sequences=sequences,
    )
    # Drop empty length entries (a counted-forward empty L_k terminator).
    result.large_by_length = {
        length: large for length, large in result.large_by_length.items() if large
    }
    return result
