"""The delta re-mine: update mined patterns after ``append_delta``.

Given a :class:`~repro.db.partitioned.PartitionedDatabase` that has
grown past a :class:`~repro.incremental.state.MiningState` snapshot,
:func:`update_mining` produces exactly what a full re-mine of the grown
database would — the identical maximal pattern set with identical
supports — while touching the pre-existing data as little as possible.

The update *is* the pipeline's own level-wise loops —
:func:`~repro.itemsets.apriori.apriori_itemsets` for the litemset phase
and :func:`~repro.core.aprioriall.count_level_wise` for the sequence
phase — with a cached count source in place of a database scan:

1. **Delta isolation.** :meth:`~repro.db.partitioned.PartitionedDatabase.
   delta_since` yields the appended generations as *additions* (new
   customers, plus overlaid customers' merged sequences) and *removals*
   (overlaid customers' pre-delta sequences). Customer support is
   additive across disjoint customer sets — the invariant the
   partitioned counting layer already relies on — so for any candidate
   the snapshot counted::

       new_count = old_count + count(additions) − count(removals)

2. **One recount rule** (:class:`_Recount`), the same for itemsets and
   sequences. Each level's candidates split in two: a candidate whose
   exact old count is in the snapshot — the large sets *and* the
   negative border — is counted against the delta only; one the
   snapshot never counted (generated from a promoted or brand-new
   parent) has no old count, and all such candidates of one level are
   counted in a single streaming scan of the merged database. That
   full scan is the only path that reads old data, and it vanishes
   when the frontier is stable. Border candidates whose updated count
   crosses the (new) threshold are promoted and grow candidates at the
   next level exactly as in a fresh run.

3. **Maximal phase.** Re-run from scratch over the updated large sets
   (it is cheap and purely in-memory).

Correctness does not depend on the snapshot's completeness: the
snapshot is a count *cache*, and every cache miss is recounted. That is
what makes the update algorithm-agnostic — AprioriSome/DynamicSome
snapshots have sparser borders (skipped or containment-pruned lengths
were never counted) and simply cause more fallback work.

Delta counting runs through the ordinary counting engines, so both
strategies (hashtree, vertical) work unchanged; the counts are
identical for both. The full scan is the one exception: it must
re-transform each customer through the *new* catalog on the fly (the
shared :meth:`~repro.itemsets.litemsets.LitemsetCatalog.transform`), so
it always streams serially — through the occurring-pairs sweep
(:func:`~repro.core.counting.count_length2`) at length 2 and the
hash-tree scan (:func:`~repro.core.counting.count_hashtree`) above it —
regardless of the strategy, which still governs every cached delta pass
around it.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Collection, Hashable, Iterator, Mapping, TypeVar
from typing import Sequence as PySequence

from repro.core.aprioriall import count_level_wise
from repro.core.counting import (
    CountableSequences,
    count_candidates,
    count_hashtree,
    count_length2,
)
from repro.core.maximal import maximal_sequences
from repro.miner import MiningParams, MiningResult, assemble_patterns
from repro.core.phase import CountingOptions, SequencePhaseResult
from repro.core.protocols import CountingStrategy, TransformedSequence
from repro.core.sequence import IdSequence, Itemset
from repro.core.stats import PhaseTimings
from repro.db.database import CustomerSequence, support_threshold
from repro.db.partitioned import PartitionedDatabase
from repro.incremental.state import MiningState, build_mining_state
from repro.itemsets.apriori import (
    LitemsetResult,
    apriori_itemsets,
    count_customer_items,
    count_itemset_supports,
)
from repro.itemsets.litemsets import LitemsetCatalog

#: A candidate: an itemset in the litemset phase, an id sequence in the
#: sequence phase.
K = TypeVar("K", bound=Hashable)

#: Counts of candidates over the added and over the removed customers.
DeltaCounts = tuple[Mapping[K, int], Mapping[K, int]]


@dataclass(slots=True)
class UpdateStats:
    """How much work the delta re-mine did, and of which kind."""

    new_customers: int = 0
    overlaid_customers: int = 0
    cached_itemset_candidates: int = 0
    new_itemset_candidates: int = 0
    cached_sequence_candidates: int = 0
    new_sequence_candidates: int = 0
    full_scan_passes: int = 0
    promoted_from_border: int = 0
    demoted_from_large: int = 0

    def summary(self) -> str:
        return (
            f"delta: {self.new_customers} new + {self.overlaid_customers} "
            f"overlaid customers; candidates from cache: "
            f"{self.cached_itemset_candidates} itemsets + "
            f"{self.cached_sequence_candidates} sequences; recounted in "
            f"{self.full_scan_passes} full scans: "
            f"{self.new_itemset_candidates} itemsets + "
            f"{self.new_sequence_candidates} sequences; "
            f"{self.promoted_from_border} promoted, "
            f"{self.demoted_from_large} demoted"
        )


@dataclass(slots=True)
class UpdateOutcome:
    """Everything one ``update`` run produces."""

    result: MiningResult
    state: MiningState
    update_stats: UpdateStats = field(default_factory=UpdateStats)


@dataclass(frozen=True, slots=True)
class _Recount:
    """The update's one recount rule, for itemsets and sequences alike.

    A cached candidate's count is its old count plus its count over the
    added customers minus its count over the removed ones; the uncached
    ones are counted in one full scan of the merged database. Each
    generation has its own threshold (appending customers raises the
    integer cutoff for an unchanged minsup), so a cached candidate can
    cross it in either direction.
    """

    stats: UpdateStats
    old_threshold: int
    threshold: int

    def __call__(
        self,
        cached: Mapping[K, int],
        new: list[K],
        count_delta: Callable[[Collection[K]], DeltaCounts[K]],
        count_merged: Callable[[list[K]], Mapping[K, int]],
    ) -> dict[K, int]:
        """Counts of ``cached`` (candidate → old count) and ``new``,
        cached first."""
        counts: dict[K, int] = {}
        if cached:
            added, removed = count_delta(cached)
            for candidate, old in cached.items():
                counts[candidate] = (
                    old + added.get(candidate, 0) - removed.get(candidate, 0)
                )
                self.note_flips(old, counts[candidate])
        if new:
            counts.update(count_merged(new))
            self.stats.full_scan_passes += 1
        return counts

    def note_flips(self, old: int, new: int) -> None:
        """Record a cached count crossing its threshold."""
        if old < self.old_threshold and new >= self.threshold:
            self.stats.promoted_from_border += 1
        elif old >= self.old_threshold and new < self.threshold:
            self.stats.demoted_from_large += 1


def _split(
    candidates: list[K], old_count: Callable[[K], int | None]
) -> tuple[dict[K, int], list[K]]:
    """The candidates the cache holds (with their old counts) and the
    ones it does not, each in candidate order."""
    cached: dict[K, int] = {}
    new: list[K] = []
    for candidate in candidates:
        old = old_count(candidate)
        if old is None:
            new.append(candidate)
        else:
            cached[candidate] = old
    return cached, new


def update_mining(
    db: PartitionedDatabase,
    state: MiningState,
    *,
    strategy: CountingStrategy = "hashtree",
) -> UpdateOutcome:
    """Re-mine ``db`` incrementally from ``state`` (see module docstring).

    ``state`` must describe an earlier generation of exactly this
    database (``ValueError`` otherwise). ``strategy`` picks the engine
    of the delta counting passes, independently of what the snapshot
    run used. Returns the updated :class:`~repro.miner.MiningResult`
    (identical patterns and supports to a full re-mine), the successor
    snapshot covering the grown database, and work statistics.
    """
    if state.generation > db.generation:
        raise ValueError(
            f"mining state is at generation {state.generation} but the "
            f"database is at {db.generation}: the snapshot does not "
            f"belong to this database"
        )
    expected = db.num_customers_at(state.generation)
    if state.num_customers != expected:
        raise ValueError(
            f"mining state covers {state.num_customers} customers but the "
            f"database held {expected} at generation {state.generation}: "
            f"the snapshot does not belong to this database"
        )
    counting = CountingOptions(strategy=strategy)
    threshold = support_threshold(state.minsup, db.num_customers)
    stats = UpdateStats()
    recount = _Recount(stats, state.threshold, threshold)

    view = db.delta_since(state.generation)
    touched = view.touched_customers()
    additions: list[CustomerSequence] = list(view.new_customers())
    stats.new_customers = len(additions)
    stats.overlaid_customers = len(touched)
    additions.extend(after for _before, after in touched)
    removals = [before for before, _after in touched]

    # ---- Litemset phase: border-seeded customer-support Apriori. ----
    started = time.perf_counter()
    litemset_result = _update_litemsets(db, state, additions, removals, recount)
    litemset_seconds = time.perf_counter() - started

    # ---- Transformation phase, delta only. ----
    started = time.perf_counter()
    catalog = LitemsetCatalog.from_result(litemset_result)
    pos_sequences = [t for c in additions if (t := catalog.transform(c.events))]
    neg_sequences = [t for c in removals if (t := catalog.transform(c.events))]
    pos_prepared = counting.prepare_sequences(pos_sequences)
    neg_prepared = counting.prepare_sequences(neg_sequences)
    transform_seconds = time.perf_counter() - started

    # ---- Sequence phase: frontier replay over the new id alphabet. ----
    started = time.perf_counter()
    phase = SequencePhaseResult.start(
        "incremental", catalog.one_sequence_supports(), collect_counts=True
    )
    old_catalog = set(state.large_itemsets())
    old_ids = frozenset(
        lid for lid in catalog.ids if catalog.itemset_of(lid) in old_catalog
    )

    def count_delta(candidates: Collection[IdSequence]) -> DeltaCounts[IdSequence]:
        return (
            count_candidates(pos_prepared, candidates, **counting.kwargs())
            if pos_sequences else {},
            count_candidates(neg_prepared, candidates, **counting.kwargs())
            if neg_sequences else {},
        )

    def count_sequences(candidates: list[IdSequence]) -> dict[IdSequence, int]:
        cached, new = _split(
            candidates,
            lambda c: state.sequence_counts.get(
                tuple(catalog.itemset_of(lid) for lid in c)
            ),
        )
        stats.cached_sequence_candidates += len(cached)
        stats.new_sequence_candidates += len(new)
        return recount(
            cached,
            new,
            count_delta,
            lambda uncached: count_hashtree(_merged_rows(db, catalog), uncached),
        )

    count_level_wise(
        phase,
        threshold,
        lambda _floor: _update_length2(
            db, state, catalog, old_ids,
            pos_prepared if pos_sequences else None,
            neg_prepared if neg_sequences else None,
            recount,
        ),
        count_sequences,
        phase="incremental",
        max_length=state.max_pattern_length,
        floor=1,
    )
    sequence_seconds = time.perf_counter() - started

    # ---- Maximal phase: from scratch, exactly as in a full mine. ----
    started = time.perf_counter()
    expanded = {
        catalog.expand_events(id_sequence): count
        for id_sequence, count in phase.all_large().items()
    }
    patterns = assemble_patterns(maximal_sequences(expanded), db.num_customers)
    maximal_seconds = time.perf_counter() - started

    params = MiningParams(
        minsup=state.minsup,
        algorithm=state.algorithm,
        counting=counting,
        max_pattern_length=state.max_pattern_length,
        max_litemset_size=state.max_litemset_size,
    )
    result = MiningResult(
        patterns=patterns,
        num_customers=db.num_customers,
        threshold=threshold,
        params=params,
        timings=PhaseTimings(
            sort_seconds=0.0,
            litemset_seconds=litemset_seconds,
            transform_seconds=transform_seconds,
            sequence_seconds=sequence_seconds,
            maximal_seconds=maximal_seconds,
        ),
        algorithm_stats=phase.stats,
        litemset_result=litemset_result,
        large_counts_by_length=phase.counts_by_length(),
    )
    new_state = build_mining_state(
        minsup=state.minsup,
        algorithm=state.algorithm,
        strategy=strategy,
        num_customers=db.num_customers,
        generation=db.generation,
        litemset_result=litemset_result,
        catalog=catalog,
        phase_result=phase,
        max_pattern_length=state.max_pattern_length,
        max_litemset_size=state.max_litemset_size,
    )
    result.state = new_state
    return UpdateOutcome(result=result, state=new_state, update_stats=stats)


def _update_litemsets(
    db: PartitionedDatabase,
    state: MiningState,
    additions: PySequence[CustomerSequence],
    removals: PySequence[CustomerSequence],
    recount: _Recount,
) -> LitemsetResult:
    """The litemset phase seeded from the snapshot's itemset border.

    Item counts (level 1) never need old data: the snapshot holds every
    base item's exact count, and an item absent from it has base support
    0. Higher levels consume the snapshot's counted candidates through
    the recount rule.
    """
    item_counts = Counter(state.item_counts)
    item_counts.update(count_customer_items(c.events for c in additions))
    item_counts.subtract(count_customer_items(c.events for c in removals))
    for item, count in item_counts.items():
        recount.note_flips(state.item_counts.get(item, 0), count)

    def count_delta(candidates: Collection[Itemset]) -> DeltaCounts[Itemset]:
        return (
            count_itemset_supports(additions, candidates) if additions else {},
            count_itemset_supports(removals, candidates) if removals else {},
        )

    def count_itemsets(candidates: list[Itemset]) -> dict[Itemset, int]:
        cached, new = _split(candidates, state.itemset_counts.get)
        recount.stats.cached_itemset_candidates += len(cached)
        recount.stats.new_itemset_candidates += len(new)
        return recount(
            cached,
            new,
            count_delta,
            lambda uncached: count_itemset_supports(db, uncached),
        )

    return apriori_itemsets(
        item_counts,
        lambda items: count_itemsets(list(combinations(items, 2))),
        count_itemsets,
        recount.threshold,
        max_length=state.max_litemset_size,
        collect_counts=True,
    )


def _update_length2(
    db: PartitionedDatabase,
    state: MiningState,
    catalog: LitemsetCatalog,
    old_ids: frozenset[int],
    pos_prepared: CountableSequences | None,
    neg_prepared: CountableSequences | None,
    recount: _Recount,
) -> dict[IdSequence, int]:
    """The length-2 pass of the frontier replay.

    C₂ is all |L₁|² ordered pairs, never materialized: when the
    snapshot's length-2 border is *complete* (every occurring pair over
    its alphabet is present), a pair of old-alphabet ids that is absent
    has base support exactly 0, so all old-alphabet pairs are served by
    cache + delta arithmetic and only pairs involving an id **new to
    the catalog** are full-scanned. The full scan sweeps the merged
    database for its occurring pairs once, like every length-2 pass.
    """
    pos2 = count_length2(pos_prepared) if pos_prepared is not None else {}
    neg2 = count_length2(neg_prepared) if neg_prepared is not None else {}
    encode = {catalog.itemset_of(lid): lid for lid in catalog.ids}
    cached2: dict[IdSequence, int] = {}
    for sequence, old in state.sequence_counts.items():
        if len(sequence) != 2:
            continue
        first = encode.get(sequence[0])
        second = encode.get(sequence[1])
        if first is not None and second is not None:
            cached2[(first, second)] = old
    if state.length2_complete:
        cached = {
            pair: cached2.get(pair, 0)
            for pair in set(cached2) | set(pos2) | set(neg2)
            if pair[0] in old_ids and pair[1] in old_ids
        }
        new = [
            (first, second)
            for first in catalog.ids
            for second in catalog.ids
            if first not in old_ids or second not in old_ids
        ]
    else:
        # Snapshot without a complete length-2 border (e.g. a run capped
        # at max_pattern_length=1): only explicitly cached pairs can use
        # delta arithmetic; everything else is recounted.
        cached = cached2
        new = [
            (first, second)
            for first in catalog.ids
            for second in catalog.ids
            if (first, second) not in cached2
        ]
    recount.stats.cached_sequence_candidates += len(cached)
    recount.stats.new_sequence_candidates += len(new)

    def count_merged(pairs: list[IdSequence]) -> dict[IdSequence, int]:
        occurring = count_length2(_merged_rows(db, catalog))
        return {pair: occurring.get(pair, 0) for pair in pairs}

    return recount(cached, new, lambda _: (pos2, neg2), count_merged)


def _merged_rows(
    db: PartitionedDatabase, catalog: LitemsetCatalog
) -> Iterator[TransformedSequence]:
    """The merged database's rows for a full scan, streamed one customer
    at a time and transformed through the new catalog on the fly (the
    old transformed partitions were built against the old alphabet, so
    they cannot serve a new-alphabet candidate)."""
    return (catalog.transform(customer.events) for customer in db.iter_unordered())
