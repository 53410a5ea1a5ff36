"""The delta re-mine: update mined patterns after ``append_delta``.

Given a :class:`~repro.db.partitioned.PartitionedDatabase` that has
grown past a :class:`~repro.incremental.state.MiningState` snapshot,
:func:`update_mining` produces exactly what a full re-mine of the grown
database would — the identical maximal pattern set with identical
supports — while touching the pre-existing data as little as possible:

1. **Delta isolation.** :meth:`~repro.db.partitioned.PartitionedDatabase.
   delta_since` yields the appended generations as *additions* (new
   customers, plus overlaid customers' merged sequences) and *removals*
   (overlaid customers' pre-delta sequences). Customer support is
   additive across disjoint customer sets — the invariant the
   partitioned counting layer already relies on — so for any candidate
   the snapshot counted::

       new_count = old_count + count(additions) − count(removals)

2. **Frontier replay.** Both Apriori loops (litemset and sequence
   phase) re-run level-wise, but each candidate whose exact old count
   is in the snapshot — the large sets *and* the negative border — is
   counted against the delta only. Border candidates whose updated
   count crosses the (new) threshold are promoted and grow candidates
   at the next level exactly as in a fresh run.

3. **Full-scan fallback.** A candidate the snapshot never counted
   (generated from a promoted or brand-new parent) has no old count;
   all such candidates of one level are counted in a single streaming
   scan of the merged database. This is the only path that reads old
   data, and it vanishes when the frontier is stable.

4. **Maximal phase.** Re-run from scratch over the updated large sets
   (it is cheap and purely in-memory).

Correctness does not depend on the snapshot's completeness: the
snapshot is a count *cache*, and every cache miss is recounted. That is
what makes the update algorithm-agnostic — AprioriSome/DynamicSome
snapshots have sparser borders (skipped or containment-pruned lengths
were never counted) and simply cause more fallback work.

Delta counting runs through the ordinary counting engines, so both
strategies (hashtree, vertical) work unchanged; the counts are
identical for both. The full-scan
fallback is the one exception: it must re-transform each customer
through the *new* catalog on the fly (the shared
:meth:`~repro.itemsets.litemsets.LitemsetCatalog.transform`), so it
always streams serially through the counting layer's hash-tree scan
(:func:`~repro.core.counting.count_hashtree`) regardless of
``counting.strategy`` — acceptable because it is the rare path (zero
passes when the frontier is stable), and the strategy still governs
every cached delta pass around it.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence as PySequence

from repro.core.candidates import apriori_generate
from repro.core.counting import (
    CountableSequences,
    count_candidates,
    count_hashtree,
    count_length2,
    filter_large,
)
from repro.core.maximal import maximal_sequences
from repro.miner import MiningParams, MiningResult, assemble_patterns
from repro.core.phase import CountingOptions, SequencePhaseResult
from repro.core.sequence import IdSequence
from repro.core.stats import AlgorithmStats, PhaseTimings
from repro.db.database import CustomerSequence, support_threshold
from repro.db.partitioned import PartitionedDatabase
from repro.incremental.state import MiningState, build_mining_state
from repro.itemsets.apriori import (
    LitemsetPassStats,
    LitemsetResult,
    count_customer_items,
    count_itemset_supports,
    generate_candidate_itemsets,
)
from repro.itemsets.litemsets import LitemsetCatalog


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


def update_mining(
    db: PartitionedDatabase,
    state: MiningState,
    *,
    counting: CountingOptions = CountingOptions(),
) -> UpdateOutcome:
    """Re-mine ``db`` incrementally from ``state`` (see module docstring).

    ``state`` must describe an earlier generation of exactly this
    database (``ValueError`` otherwise). ``counting`` configures the
    delta counting passes — its strategy — independently of
    what the snapshot run used. Returns the updated
    :class:`~repro.miner.MiningResult` (identical patterns and
    supports to a full re-mine), the successor snapshot covering the
    grown database, and work statistics.
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
    threshold = support_threshold(state.minsup, db.num_customers)
    stats = UpdateStats()

    view = db.delta_since(state.generation)
    touched = view.touched_customers()
    additions: list[CustomerSequence] = list(view.new_customers())
    stats.new_customers = len(additions)
    stats.overlaid_customers = len(touched)
    additions.extend(after for _before, after in touched)
    removals = [before for before, _after in touched]

    # ---- Litemset phase: border-seeded customer-support Apriori. ----
    started = time.perf_counter()
    litemset_result = _update_litemsets(
        db, state, additions, removals, threshold, stats
    )
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
    phase = SequencePhaseResult(
        stats=AlgorithmStats("incremental"), collect_counts=True
    )
    l1 = catalog.one_sequence_supports()
    if l1:
        phase.large_by_length[1] = l1
    phase.stats.record_generated(1, len(l1))
    phase.stats.record_pass(
        length=1, phase="litemset", num_candidates=len(l1),
        num_large=len(l1), elapsed_seconds=0.0,
    )

    old_threshold = state.threshold
    old_catalog = set(state.large_itemsets())
    old_ids = frozenset(
        lid for lid in catalog.ids if catalog.itemset_of(lid) in old_catalog
    )

    def expand(candidate: IdSequence) -> tuple:
        return tuple(catalog.itemset_of(lid) for lid in candidate)

    k = 2
    while phase.large_by_length.get(k - 1):
        if state.max_pattern_length is not None and k > state.max_pattern_length:
            break
        pass_started = time.perf_counter()
        if k == 2:
            counts, num_cached, num_new = _update_length2(
                db, state, catalog, old_ids,
                pos_prepared if pos_sequences else None,
                neg_prepared if neg_sequences else None,
                counting, stats,
            )
            phase.length2_complete = True
            num_generated = len(catalog.ids) * len(catalog.ids)
        else:
            candidates = apriori_generate(phase.large_by_length[k - 1].keys())
            num_generated = len(candidates)
            if not candidates:
                phase.stats.record_generated(k, 0)
                break
            cached: dict[IdSequence, int] = {}
            new: list[IdSequence] = []
            for candidate in candidates:
                old = state.sequence_counts.get(expand(candidate))
                if old is None:
                    new.append(candidate)
                else:
                    cached[candidate] = old
            counts = {}
            if cached:
                pos_counts = (
                    count_candidates(pos_prepared, cached, **counting.kwargs())
                    if pos_sequences else {}
                )
                neg_counts = (
                    count_candidates(neg_prepared, cached, **counting.kwargs())
                    if neg_sequences else {}
                )
                for candidate, old in cached.items():
                    counts[candidate] = (
                        old
                        + pos_counts.get(candidate, 0)
                        - neg_counts.get(candidate, 0)
                    )
            if new:
                counts.update(_count_full_scan(db, catalog, new))
                stats.full_scan_passes += 1
            num_cached, num_new = len(cached), len(new)
            for candidate, old in cached.items():
                _note_flips(stats, old, counts[candidate],
                            old_threshold, threshold)
        stats.cached_sequence_candidates += num_cached
        stats.new_sequence_candidates += num_new
        phase.stats.record_generated(k, num_generated)
        phase.record_counts(k, counts)
        large = filter_large(counts, threshold)
        phase.stats.record_pass(
            length=k, phase="incremental",
            num_candidates=len(counts), num_large=len(large),
            elapsed_seconds=time.perf_counter() - pass_started,
        )
        if not large:
            break
        phase.large_by_length[k] = large
        k += 1
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
        strategy=counting.strategy,
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


def _note_flips(
    stats: UpdateStats, old: int, new: int,
    old_threshold: int, threshold: int,
) -> None:
    """Record a cached candidate crossing its threshold in either
    direction (each generation has its own threshold: appending
    customers raises the integer cutoff for an unchanged minsup)."""
    if old < old_threshold and new >= threshold:
        stats.promoted_from_border += 1
    elif old >= old_threshold and new < threshold:
        stats.demoted_from_large += 1


def _update_litemsets(
    db: PartitionedDatabase,
    state: MiningState,
    additions: PySequence[CustomerSequence],
    removals: PySequence[CustomerSequence],
    threshold: int,
    stats: UpdateStats,
) -> LitemsetResult:
    """The litemset phase seeded from the snapshot's itemset border.

    Item counts (level 1) never need old data: the snapshot holds every
    base item's exact count, and an item absent from it has base support
    0. Higher levels consume the snapshot's counted candidates the same
    way the sequence phase does, falling back to one streaming scan of
    the merged database per level that generated uncached candidates.
    """
    item_counts = Counter(state.item_counts)
    item_counts.update(count_customer_items(c.events for c in additions))
    item_counts.subtract(count_customer_items(c.events for c in removals))
    old_threshold = state.threshold
    for item, count in item_counts.items():
        _note_flips(stats, state.item_counts.get(item, 0), count,
                    old_threshold, threshold)
    supports: dict[tuple[int, ...], int] = {}
    counted: dict[tuple[int, ...], int] = {}
    current_large = sorted(
        (item,) for item, count in item_counts.items() if count >= threshold
    )
    passes = [
        LitemsetPassStats(
            length=1, num_candidates=len(item_counts),
            num_large=len(current_large),
        )
    ]
    for itemset in current_large:
        supports[itemset] = item_counts[itemset[0]]

    length = 2
    while current_large and (
        state.max_litemset_size is None or length <= state.max_litemset_size
    ):
        candidates = generate_candidate_itemsets(current_large)
        if not candidates:
            break
        cached = [c for c in candidates if c in state.itemset_counts]
        new = [c for c in candidates if c not in state.itemset_counts]
        counts: dict[tuple[int, ...], int] = {}
        if cached:
            pos = (
                count_itemset_supports(additions, cached)
                if additions else Counter()
            )
            neg = (
                count_itemset_supports(removals, cached)
                if removals else Counter()
            )
            for candidate in cached:
                old = state.itemset_counts[candidate]
                counts[candidate] = old + pos[candidate] - neg[candidate]
                _note_flips(stats, old, counts[candidate],
                            old_threshold, threshold)
        if new:
            full = count_itemset_supports(db, new)
            for candidate in new:
                counts[candidate] = full[candidate]
            stats.full_scan_passes += 1
        stats.cached_itemset_candidates += len(cached)
        stats.new_itemset_candidates += len(new)
        counted.update(counts)
        current_large = sorted(
            c for c in candidates if counts[c] >= threshold
        )
        passes.append(
            LitemsetPassStats(
                length=length, num_candidates=len(candidates),
                num_large=len(current_large),
            )
        )
        for itemset in current_large:
            supports[itemset] = counts[itemset]
        length += 1
    return LitemsetResult(
        supports=supports,
        passes=tuple(passes),
        item_counts=dict(item_counts),
        counted_supports=counted,
    )


def _update_length2(
    db: PartitionedDatabase,
    state: MiningState,
    catalog: LitemsetCatalog,
    old_ids: frozenset[int],
    pos_prepared: CountableSequences | None,
    neg_prepared: CountableSequences | None,
    counting: CountingOptions,
    stats: UpdateStats,
) -> tuple[dict[IdSequence, int], int, int]:
    """The length-2 pass of the frontier replay.

    C₂ is all |L₁|² ordered pairs, never materialized: when the
    snapshot's length-2 border is *complete* (every occurring pair over
    its alphabet is present), a pair of old-alphabet ids that is absent
    has base support exactly 0, so all old-alphabet pairs are served by
    cache + delta arithmetic and only pairs involving an id **new to
    the catalog** are full-scanned. Returns ``(counts, num_cached,
    num_full_scanned)``.
    """
    pos2 = (
        count_length2(pos_prepared, checkpoint=counting.checkpoint)
        if pos_prepared is not None else {}
    )
    neg2 = (
        count_length2(neg_prepared, checkpoint=counting.checkpoint)
        if neg_prepared is not None else {}
    )
    encode = {catalog.itemset_of(lid): lid for lid in catalog.ids}
    cached2: dict[IdSequence, int] = {}
    for sequence, old in state.sequence_counts.items():
        if len(sequence) != 2:
            continue
        first = encode.get(sequence[0])
        second = encode.get(sequence[1])
        if first is not None and second is not None:
            cached2[(first, second)] = old
    counts: dict[IdSequence, int] = {}
    old_threshold = state.threshold
    threshold = support_threshold(state.minsup, db.num_customers)
    if state.length2_complete:
        for pair in set(cached2) | set(pos2) | set(neg2):
            if pair[0] in old_ids and pair[1] in old_ids:
                old = cached2.get(pair, 0)
                counts[pair] = old + pos2.get(pair, 0) - neg2.get(pair, 0)
                _note_flips(stats, old, counts[pair],
                            old_threshold, threshold)
        full_pairs = [
            (first, second)
            for first in catalog.ids
            for second in catalog.ids
            if first not in old_ids or second not in old_ids
        ]
    else:
        # Snapshot without a complete length-2 border (e.g. a run capped
        # at max_pattern_length=1): only explicitly cached pairs can use
        # delta arithmetic; everything else is recounted.
        for pair, old in cached2.items():
            counts[pair] = old + pos2.get(pair, 0) - neg2.get(pair, 0)
            _note_flips(stats, old, counts[pair], old_threshold, threshold)
        full_pairs = [
            (first, second)
            for first in catalog.ids
            for second in catalog.ids
            if (first, second) not in cached2
        ]
    num_cached = len(counts)
    if full_pairs:
        counts.update(_count_full_scan(db, catalog, full_pairs))
        stats.full_scan_passes += 1
    return counts, num_cached, len(full_pairs)


def _count_full_scan(
    db: PartitionedDatabase,
    catalog: LitemsetCatalog,
    candidates: PySequence[IdSequence],
) -> dict[IdSequence, int]:
    """Exact supports of uncached candidates: one streaming scan of the
    merged database, transforming each customer through the new catalog
    on the fly (the old transformed partitions were built against the
    old alphabet, so they cannot serve a new-alphabet candidate).

    Always a serial hash-tree scan: the per-customer transform dominates
    and the candidate batch is small, so the run's strategy applies
    only to the cached delta passes, not here."""
    return count_hashtree(
        (catalog.transform(customer.events) for customer in db.iter_unordered()),
        candidates,
    )
