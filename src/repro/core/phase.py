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

from typing import Any, Collection, Mapping

from repro.core.counting import (
    COUNTING_STRATEGIES,
    CountableSequences,
    CountingStrategy,
    TransformedSequences,
)
from repro.core.protocols import PartitionedCountable, PassCheckpoint
from repro.core.sequence import IdSequence
from repro.core.stats import AlgorithmStats
from repro.core.vertical import VerticalDatabase, ensure_vertical


@dataclass(frozen=True, slots=True)
class CountingOptions:
    """Knobs of the support-counting engine, threaded through every pass.

    ``strategy`` picks the per-pass engine: ``"hashtree"`` (the paper's
    candidate hash tree over a per-pass occurrence index) or
    ``"vertical"`` (the once-per-run inverted id-list database with
    cross-pass support-list memoization — candidates are counted by
    joining their parents' lists, no database scan; see
    :mod:`repro.core.vertical`). ``workers`` selects the sharded-parallel
    executor: ``1`` (default) counts serially in-process, ``N > 1``
    partitions the work into shards counted by ``N`` worker processes
    (customer shards for the hash tree, candidate shards for
    vertical), and ``0`` means one worker per CPU. ``chunk_size``
    optionally fixes the items-per-shard (default: one near-equal shard
    per worker). Counts are identical for every setting; only wall-clock
    time changes. See :mod:`repro.parallel`.

    ``checkpoint`` (``None`` by default — zero cost when unused) plugs a
    durable pass store (:class:`~repro.core.protocols.PassCheckpoint`)
    into every counting pass: completed passes are recorded as they
    finish and replayed in order on resume, which is what backs
    ``seqmine mine --checkpoint-dir`` / ``seqmine resume``. It changes
    no counts, only whether a pass is recomputed.
    """

    strategy: CountingStrategy = "hashtree"
    workers: int = 1
    chunk_size: int | None = None
    checkpoint: PassCheckpoint | None = None

    def __post_init__(self) -> None:
        if self.strategy not in COUNTING_STRATEGIES:
            raise ValueError(
                f"unknown counting strategy {self.strategy!r}; "
                f"expected one of {COUNTING_STRATEGIES}"
            )
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")

    def prepare_sequences(
        self, sequences: TransformedSequences | PartitionedCountable
    ) -> CountableSequences:
        """The per-run database form every counting pass should scan.

        The vertical strategy inverts the transformed rows into per-id
        vertical lists exactly once here — every later list-joining pass
        (forward, backward, sharded-parallel) reuses it, and the returned
        :class:`~repro.core.vertical.VerticalDatabase` carries the
        cross-pass support-list cache for the whole run. The row sweeps
        (the length-2 pass and DynamicSome's on-the-fly join) scan the
        rows it keeps. The hash tree scans the rows unchanged.

        A disk-backed partitioned countable (structurally, anything
        satisfying :class:`~repro.core.protocols.PartitionedCountable` —
        concretely :class:`~repro.db.partitioned.PartitionedSequences`)
        prepares *itself*: under vertical it inverts each partition once
        and caches the inversion on disk, so later list-joining passes
        (and worker processes) unpickle instead of re-inverting; it is
        returned unchanged, the counting layer counts it one partition at
        a time, and the row sweeps stream its rows.
        """
        if isinstance(sequences, PartitionedCountable):
            return sequences.prepare(self.strategy)
        if self.strategy == "vertical":
            return ensure_vertical(sequences)
        return sequences

    def note_large(
        self, sequences: CountableSequences, large: Collection[IdSequence]
    ) -> None:
        """Tell a stateful backend which candidates survived a pass.

        The vertical backend memoizes a support list per counted
        candidate; only the *large* ones can be join parents of the next
        pass, so the losers' lists are dropped here. A no-op for the
        stateless strategies — algorithms call it unconditionally after
        every support filter. (Partitioned databases are also a no-op:
        their per-partition vertical inversions live only for the
        duration of one partition's count.)
        """
        if isinstance(sequences, VerticalDatabase):
            sequences.cache.retain_surviving(large)

    def kwargs(self) -> dict[str, Any]:
        """Keyword arguments for :func:`repro.core.counting.count_candidates`."""
        return {
            "strategy": self.strategy,
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "checkpoint": self.checkpoint,
        }

    def sharding_kwargs(self) -> dict[str, Any]:
        """Keyword arguments for passes that only shard (no strategy knobs),
        like :func:`repro.core.counting.count_length2`."""
        return {
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "checkpoint": self.checkpoint,
        }


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
