"""Shared types for the sequence phase (phase 4).

All three algorithms — AprioriAll, AprioriSome, DynamicSome — consume a
:class:`~repro.db.transform.TransformedDatabase` plus an integer support
threshold, and produce a :class:`SequencePhaseResult`: the large sequences
of every length, over the litemset-id alphabet, with exact support counts
and instrumentation. The maximal phase then runs once, identically, over
whichever algorithm produced the result — which is what makes the
three-way equivalence property tests possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import Any, Mapping

from repro.core.counting import (
    COUNTING_STRATEGIES,
    CountableSequences,
    CountingStrategy,
    TransformedSequences,
)
from repro.core.protocols import PartitionedCountable, PassCheckpoint
from repro.core.sequence import IdSequence
from repro.core.stats import AlgorithmStats
from repro.core.vertical import ensure_vertical


@dataclass(frozen=True, slots=True)
class CountingOptions:
    """Knobs of the support-counting engine, threaded through every pass.

    ``strategy`` picks the per-pass engine: ``"hashtree"`` (the paper's
    candidate hash tree over a per-pass occurrence index) or
    ``"vertical"`` (the once-per-run inverted id-list database — each
    pass counts a candidate by one temporal join of its prefix's support
    list, no database scan, and keeps no state for the next pass; see
    :mod:`repro.core.vertical`). Counts are identical for either
    strategy; only wall-clock time changes. Every pass counts serially
    in-process; the one worker option,
    :attr:`repro.miner.MiningParams.workers`, applies to PrefixSpan
    only.

    ``checkpoint`` (``None`` by default — zero cost when unused) plugs a
    durable pass store (:class:`~repro.core.protocols.PassCheckpoint`)
    into every counting pass: completed passes are recorded as they
    finish and replayed in order on resume, which is what backs
    ``seqmine mine --checkpoint-dir`` / ``seqmine resume``. It changes
    no counts, only whether a pass is recomputed.
    """

    strategy: CountingStrategy = "hashtree"
    checkpoint: PassCheckpoint | None = None

    def __post_init__(self) -> None:
        if self.strategy not in COUNTING_STRATEGIES:
            raise ValueError(
                f"unknown counting strategy {self.strategy!r}; "
                f"expected one of {COUNTING_STRATEGIES}"
            )

    def prepare_sequences(
        self, sequences: TransformedSequences | PartitionedCountable
    ) -> CountableSequences:
        """The per-run database form every counting pass should scan.

        The vertical strategy inverts the transformed rows into per-id
        vertical lists exactly once here; every later list-joining pass
        (forward, backward) reuses the returned
        :class:`~repro.core.vertical.VerticalDatabase`, and the row
        sweeps (the length-2 pass and DynamicSome's on-the-fly join)
        scan the rows it keeps. The hash tree scans the rows unchanged.

        A disk-backed partitioned countable (structurally, anything
        satisfying :class:`~repro.core.protocols.PartitionedCountable`)
        is returned unchanged under either strategy: the counting layer
        counts it one partition at a time, inverting each partition on
        its first list join (see ``load_prepared``), and the row sweeps
        stream its rows.
        """
        if self.strategy == "vertical" and not isinstance(
            sequences, PartitionedCountable
        ):
            return ensure_vertical(sequences)
        return sequences

    def kwargs(self) -> dict[str, Any]:
        """Keyword arguments for :func:`repro.core.counting.count_candidates`."""
        return {"strategy": self.strategy, "checkpoint": self.checkpoint}


@dataclass(slots=True)
class SequencePhaseResult:
    """Large sequences by length, with supports, plus run counters.

    With ``collect_counts`` enabled (the algorithms take it as a
    keyword; :func:`repro.miner.mine` sets it for
    ``collect_state=True`` runs), ``counted_by_length`` retains every
    counting pass's full result — the large sequences *and* the
    negative border (candidates counted but below threshold), with
    exact supports. A key's presence means its count is exact for this
    database; absence means the run never counted it (it may have been
    skipped, pruned, or never generated). ``length2_complete`` marks
    that the length-2 pass counted **every occurring pair** over the
    run's litemset alphabet, so an absent length-2 pair over that
    alphabet has support exactly 0. Both feed the incremental
    subsystem's :class:`~repro.incremental.state.MiningState` snapshot.
    Runs that never asked for a snapshot keep ``collect_counts`` off,
    so each pass's counts are dropped after its support filter exactly
    as before — no retention cost.
    """

    large_by_length: dict[int, dict[IdSequence, int]] = field(default_factory=dict)
    stats: AlgorithmStats = field(default_factory=lambda: AlgorithmStats("unknown"))
    counted_by_length: dict[int, dict[IdSequence, int]] = field(
        default_factory=dict
    )
    length2_complete: bool = False
    collect_counts: bool = False

    @classmethod
    def start(
        cls,
        algorithm: str,
        l1: dict[IdSequence, int],
        collect_counts: bool,
    ) -> "SequencePhaseResult":
        """A result holding only L_1, which comes for free from the
        litemset phase: the support of <(X)> equals the support of the
        itemset X, and every catalog entry meets the threshold by
        construction. Its row is the ``litemset`` pass, counted in no
        time."""
        stats = AlgorithmStats(algorithm)
        result = cls(stats=stats, collect_counts=collect_counts)
        result.large_by_length[1] = l1
        stats.record_generated(1, len(l1))
        stats.record_pass(
            length=1,
            phase="litemset",
            num_candidates=len(l1),
            num_large=len(l1),
            elapsed_seconds=0.0,
        )
        return result

    def record_counts(self, length: int, counts: Mapping[IdSequence, int]) -> None:
        """Retain one pass's exact counts (large and small alike); no-op
        unless this run collects state."""
        if self.collect_counts:
            self.counted_by_length.setdefault(length, {}).update(counts)

    def all_large(self) -> dict[IdSequence, int]:
        """Union of large sequences across lengths (id alphabet)."""
        merged: dict[IdSequence, int] = {}
        for by_len in self.large_by_length.values():
            merged.update(by_len)
        return merged

    def counts_by_length(self) -> dict[int, int]:
        """Number of large sequences per length, in length order."""
        return {
            length: len(large)
            for length, large in sorted(self.large_by_length.items())
        }

    @property
    def max_length(self) -> int:
        lengths = [k for k, v in self.large_by_length.items() if v]
        return max(lengths, default=0)

    def num_large(self) -> int:
        return sum(len(v) for v in self.large_by_length.values())
