"""The five-phase mining pipeline (Section 3 of the paper).

This module is the public entry point of the library:

>>> from repro import SequenceDatabase, mine_sequential_patterns
>>> db = SequenceDatabase.from_sequences([
...     [(30,), (90,)],
...     [(10, 20), (30,), (40, 60, 70)],
...     [(30, 50, 70)],
...     [(30,), (40, 70), (90,)],
...     [(90,)],
... ])
>>> result = mine_sequential_patterns(db, minsup=0.25)
>>> [str(p.sequence) for p in result.patterns]
['<(30)(90)>', '<(30)(40 70)>']

The pipeline runs the paper's phases in order — sort (done by the
database constructors), litemset, transformation, sequence, maximal — with
the sequence phase delegating to AprioriAll, AprioriSome or DynamicSome
per :class:`MiningParams`. All three algorithms yield the same patterns;
they differ in how much counting work they do, which the attached
:class:`~repro.core.stats.AlgorithmStats` records.

A fourth algorithm, ``"prefixspan"``, bypasses the candidate pipeline
entirely and mines by pattern growth (:mod:`repro.core.prefixspan`);
its maximal output is byte-identical to the candidate family's, but the
candidate-only knobs — counting strategies, pass checkpoints,
incremental state — do not apply and are rejected loudly, as is a
partitioned database: pattern growth mines in memory only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Literal, Mapping

if TYPE_CHECKING:
    from repro.incremental.state import MiningState

from repro.core.aprioriall import apriori_all
from repro.core.apriorisome import NextLengthPolicy, apriori_some
from repro.core.dynamicsome import dynamic_some
from repro.core.maximal import EventsTuple, maximal_sequences, sequence_of_events
from repro.core.phase import CountingOptions, SequencePhaseResult
from repro.core.prefixspan import mine_prefixspan
from repro.core.sequence import Sequence
from repro.core.stats import AlgorithmStats, PhaseTimings
from repro.db.database import SequenceDatabase
from repro.db.partitioned import PartitionedDatabase
from repro.db.records import Transaction
from repro.db.transform import TransformedDatabase, transform_database
from repro.itemsets.apriori import (
    LitemsetPassStats,
    LitemsetResult,
    find_litemsets,
)
from repro.itemsets.litemsets import LitemsetCatalog

AlgorithmName = Literal[
    "aprioriall", "apriorisome", "dynamicsome", "prefixspan"
]

#: The paper's candidate-generation family. Knobs that only make sense
#: for candidate counting — counting strategies, pass checkpoints,
#: ``dynamic_step``, incremental state — are defined over exactly these;
#: tests and benches that exercise those knobs parametrize over this
#: tuple.
ALGORITHM_NAMES: tuple[AlgorithmName, ...] = (
    "aprioriall",
    "apriorisome",
    "dynamicsome",
)

#: Every mining algorithm, the pattern-growth engine included. All four
#: produce byte-identical maximal patterns (the differential-oracle
#: suite holds them to it); ``"prefixspan"`` differs in *how* — no
#: candidate generation, no transformed database, no counting
#: strategies (see :mod:`repro.core.prefixspan`).
ALL_ALGORITHM_NAMES: tuple[AlgorithmName, ...] = ALGORITHM_NAMES + (
    "prefixspan",
)

__all__ = [
    "ALGORITHM_NAMES",
    "ALL_ALGORITHM_NAMES",
    "AlgorithmName",
    "MiningParams",
    "MiningResult",
    "Pattern",
    "assemble_patterns",
    "mine",
    "mine_from_transactions",
    "mine_sequential_patterns",
]


@dataclass(frozen=True, slots=True)
class MiningParams:
    """Everything that configures one mining run.

    ``workers`` is the process count of PrefixSpan's seed growth: ``1``
    (default) grows in-process, ``N > 1`` shards the frequent seed items
    over ``N`` worker processes, and ``0`` means one per CPU (see
    :mod:`repro.parallel`). The patterns are identical for every value.
    The apriori family counts serially, so it rejects any value but
    ``1``.
    """

    minsup: float
    algorithm: AlgorithmName = "aprioriall"
    counting: CountingOptions = CountingOptions()
    next_policy: NextLengthPolicy = NextLengthPolicy()
    dynamic_step: int = 2
    max_pattern_length: int | None = None
    max_litemset_size: int | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.minsup <= 1.0:
            raise ValueError(f"minsup must be in (0, 1], got {self.minsup}")
        if self.algorithm not in ALL_ALGORITHM_NAMES:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; "
                f"expected one of {ALL_ALGORITHM_NAMES}"
            )
        if self.dynamic_step < 1:
            raise ValueError("dynamic_step must be >= 1")
        for name, cap in (
            ("max_pattern_length", self.max_pattern_length),
            ("max_litemset_size", self.max_litemset_size),
        ):
            if cap is not None and cap < 1:
                raise ValueError(f"{name} must be >= 1 or None, got {cap}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.algorithm != "prefixspan" and self.workers != 1:
            raise ValueError(
                f"workers={self.workers} applies to prefixspan only: "
                f"{self.algorithm} counts serially; use workers=1 or the "
                f"prefixspan algorithm"
            )
        if self.algorithm == "prefixspan":
            # Pattern growth has no candidate counting passes: a
            # checkpoint store would never record anything and a
            # non-default counting strategy would never run. Reject both
            # loudly rather than silently ignore the knob.
            if self.counting.checkpoint is not None:
                raise ValueError(
                    "prefixspan has no counting passes to checkpoint; "
                    "drop the checkpoint or use an apriori-family algorithm"
                )
            if self.counting.strategy != "hashtree":
                raise ValueError(
                    "counting strategies do not apply to prefixspan; "
                    "drop the strategy or use an apriori-family algorithm"
                )

    def with_(self, **changes: Any) -> "MiningParams":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True, slots=True)
class Pattern:
    """One maximal sequential pattern with its exact support."""

    sequence: Sequence
    count: int
    support: float

    def __str__(self) -> str:
        return f"{self.sequence}  (support {self.support:.2%}, {self.count} customers)"


def assemble_patterns(
    counts: Mapping[EventsTuple, int], num_customers: int
) -> list[Pattern]:
    """``{events: count}`` as :class:`Pattern` objects in sequence sort-key
    order, support ``count / num_customers`` (``0.0`` for no customers).

    The one pattern assembly behind every producer: :func:`mine` on both
    engines, the incremental update and the time-constrained miner.
    """
    return sorted(
        (
            Pattern(
                sequence=sequence_of_events(events),
                count=count,
                support=count / num_customers if num_customers else 0.0,
            )
            for events, count in counts.items()
        ),
        key=lambda p: p.sequence.sort_key(),
    )


@dataclass(slots=True)
class MiningResult:
    """The answer plus full instrumentation of one mining run."""

    patterns: list[Pattern]
    num_customers: int
    threshold: int
    params: MiningParams
    timings: PhaseTimings
    algorithm_stats: AlgorithmStats
    litemset_result: LitemsetResult
    large_counts_by_length: dict[int, int] = field(default_factory=dict)
    #: Snapshot for the incremental subsystem; populated when the run
    #: was asked to collect one (``mine(..., collect_state=True)``).
    state: "MiningState | None" = None

    @property
    def num_patterns(self) -> int:
        return len(self.patterns)

    @property
    def num_litemsets(self) -> int:
        return len(self.litemset_result)

    def sequences(self) -> list[Sequence]:
        """Just the pattern sequences, in deterministic order."""
        return [p.sequence for p in self.patterns]

    def summary(self) -> str:
        lengths = (
            ", ".join(
                f"L{length}={count}"
                for length, count in sorted(self.large_counts_by_length.items())
            )
            or "none"
        )
        return (
            f"{self.params.algorithm}: {self.num_patterns} maximal patterns "
            f"(threshold {self.threshold}/{self.num_customers} customers, "
            f"{self.num_litemsets} litemsets, large by length: {lengths}, "
            f"{self.timings.total_seconds:.3f}s)"
        )


def _sequence_phase_runner(
    params: MiningParams, collect_counts: bool
) -> Callable[[TransformedDatabase, int], SequencePhaseResult]:
    if params.algorithm == "aprioriall":
        return lambda tdb, threshold: apriori_all(
            tdb,
            threshold,
            counting=params.counting,
            max_length=params.max_pattern_length,
            collect_counts=collect_counts,
        )
    if params.algorithm == "apriorisome":
        return lambda tdb, threshold: apriori_some(
            tdb,
            threshold,
            counting=params.counting,
            next_policy=params.next_policy,
            max_length=params.max_pattern_length,
            collect_counts=collect_counts,
        )
    return lambda tdb, threshold: dynamic_some(
        tdb,
        threshold,
        step=params.dynamic_step,
        counting=params.counting,
        max_length=params.max_pattern_length,
        collect_counts=collect_counts,
    )


def _mine_with_prefixspan(
    db: SequenceDatabase,
    params: MiningParams,
    *,
    sort_seconds: float,
) -> MiningResult:
    """The pattern-growth pipeline behind ``algorithm="prefixspan"``.

    PrefixSpan has no litemset/transform/candidate phases of its own, so
    the paper's phase structure is mapped onto what it does do: the
    length-1 seed scan is reported as the litemset phase (its supports
    *are* the large-itemset supports — every large itemset appears as a
    single-event frequent sequence), growth as the sequence phase, the
    shared maximal filter as the maximal phase, transform as zero. The
    result is a fully populated :class:`MiningResult` whose patterns are
    byte-identical to the candidate family's.
    """
    threshold = db.threshold(params.minsup)

    started = time.perf_counter()
    grown = mine_prefixspan(
        db,
        params.minsup,
        max_pattern_length=params.max_pattern_length,
        workers=params.workers,
    )
    sequence_seconds = time.perf_counter() - started - grown.seed_seconds

    started = time.perf_counter()
    patterns = assemble_patterns(
        maximal_sequences(grown.frequent), db.num_customers
    )
    maximal_seconds = time.perf_counter() - started

    supports = grown.litemset_supports()
    large_itemsets_by_size: dict[int, int] = {}
    for itemset in supports:
        size = len(itemset)
        large_itemsets_by_size[size] = large_itemsets_by_size.get(size, 0) + 1
    litemset_result = LitemsetResult(
        supports=supports,
        passes=tuple(
            LitemsetPassStats(
                length=size,
                # Pattern growth never generates candidates: only the
                # single-item scan has an honest candidate count.
                num_candidates=(
                    len(grown.item_counts) if size == 1 else num_large
                ),
                num_large=num_large,
            )
            for size, num_large in sorted(large_itemsets_by_size.items())
        ),
        item_counts=grown.item_counts,
    )

    return MiningResult(
        patterns=patterns,
        num_customers=db.num_customers,
        threshold=threshold,
        params=params,
        timings=PhaseTimings(
            sort_seconds=sort_seconds,
            litemset_seconds=grown.seed_seconds,
            transform_seconds=0.0,
            sequence_seconds=sequence_seconds,
            maximal_seconds=maximal_seconds,
        ),
        algorithm_stats=grown.stats,
        litemset_result=litemset_result,
        large_counts_by_length=grown.counts_by_length(),
        state=None,
    )


def mine(
    db: "SequenceDatabase | PartitionedDatabase",
    params: MiningParams,
    *,
    sort_seconds: float = 0.0,
    collect_state: bool = False,
) -> MiningResult:
    """Run phases 2–5 over an already-sorted database.

    ``db`` is an in-memory :class:`~repro.db.database.SequenceDatabase`
    or a disk-backed
    :class:`~repro.db.partitioned.PartitionedDatabase`; with the latter
    every phase streams partition by partition and peak memory stays at
    one partition, not the database (see :mod:`repro.db.partitioned`).
    ``algorithm="prefixspan"`` holds its projected database in memory,
    so it raises :class:`ValueError` on a partitioned one.

    With ``collect_state=True`` the result additionally carries a
    :class:`~repro.incremental.state.MiningState` snapshot — the large
    sets and the negative border with exact supports — which makes the
    run updatable by :func:`repro.incremental.update.update_mining`
    after the database grows (see :mod:`repro.incremental`).
    """
    if params.algorithm == "prefixspan":
        if collect_state:
            raise ValueError(
                "prefixspan does not build incremental mining state; "
                "use an apriori-family algorithm with collect_state=True"
            )
        if isinstance(db, PartitionedDatabase):
            raise ValueError(
                "prefixspan mines in memory only; mine a partitioned "
                "database with an apriori-family algorithm"
            )
        return _mine_with_prefixspan(db, params, sort_seconds=sort_seconds)
    threshold = db.threshold(params.minsup)

    started = time.perf_counter()
    litemset_result = find_litemsets(
        db,
        params.minsup,
        max_length=params.max_litemset_size,
        checkpoint=params.counting.checkpoint,
        collect_counts=collect_state,
    )
    litemset_seconds = time.perf_counter() - started

    started = time.perf_counter()
    catalog = LitemsetCatalog.from_result(litemset_result)
    tdb = transform_database(db, catalog)
    transform_seconds = time.perf_counter() - started

    started = time.perf_counter()
    phase_result = _sequence_phase_runner(params, collect_state)(tdb, threshold)
    sequence_seconds = time.perf_counter() - started

    started = time.perf_counter()
    all_large = phase_result.all_large()
    expanded = {
        catalog.expand_events(id_sequence): count
        for id_sequence, count in all_large.items()
    }
    patterns = assemble_patterns(maximal_sequences(expanded), db.num_customers)
    maximal_seconds = time.perf_counter() - started

    state = None
    if collect_state:
        # Imported lazily: the incremental package's public surface
        # imports this module back.
        from repro.incremental.state import build_mining_state

        state = build_mining_state(
            minsup=params.minsup,
            algorithm=params.algorithm,
            strategy=params.counting.strategy,
            num_customers=db.num_customers,
            generation=getattr(db, "generation", 0),
            litemset_result=litemset_result,
            catalog=catalog,
            phase_result=phase_result,
            max_pattern_length=params.max_pattern_length,
            max_litemset_size=params.max_litemset_size,
        )

    return MiningResult(
        patterns=patterns,
        num_customers=db.num_customers,
        threshold=threshold,
        params=params,
        timings=PhaseTimings(
            sort_seconds=sort_seconds,
            litemset_seconds=litemset_seconds,
            transform_seconds=transform_seconds,
            sequence_seconds=sequence_seconds,
            maximal_seconds=maximal_seconds,
        ),
        algorithm_stats=phase_result.stats,
        litemset_result=litemset_result,
        large_counts_by_length=phase_result.counts_by_length(),
        state=state,
    )


def mine_from_transactions(
    transactions: Iterable[Transaction], params: MiningParams
) -> MiningResult:
    """Run all five phases, starting from raw (unsorted) records."""
    started = time.perf_counter()
    db = SequenceDatabase.from_transactions(transactions)
    sort_seconds = time.perf_counter() - started
    return mine(db, params, sort_seconds=sort_seconds)


def mine_sequential_patterns(
    db: "SequenceDatabase | PartitionedDatabase",
    minsup: float,
    *,
    algorithm: AlgorithmName = "aprioriall",
    collect_state: bool = False,
    **kwargs: Any,
) -> MiningResult:
    """Convenience wrapper: mine ``db`` at ``minsup`` with one algorithm.

    ``db`` may be in-memory or partitioned, as in :func:`mine` —
    including ``collect_state`` for an updatable result. Extra keyword
    arguments are forwarded to :class:`MiningParams`.
    """
    return mine(
        db,
        MiningParams(minsup=minsup, algorithm=algorithm, **kwargs),
        collect_state=collect_state,
    )
