"""PrefixSpan pattern-growth engine (Pei et al., IEEE TKDE 2004).

The production counterpart of the oracle in
:mod:`repro.baselines.prefixspan`: where the 1995 paper's AprioriAll
family *generates* every candidate of length k and then counts it,
pattern growth only ever touches sequences that actually occur — it
extends a known-frequent *prefix* one item at a time and counts the
extensions in the prefix's own projected database. No candidate
generation means no candidate explosion, which is exactly the low-minsup
regime where the candidate family melts down (``BENCH_counting.json``,
``lowminsup`` rows).

Design points, in the order they matter:

* **Pseudo-projection.** A projected database is never copied. For a
  prefix it is a list of ``(customer index, event position)`` pairs per
  partition — the position where the prefix's greedy (earliest) match
  ends. Earliest-match positions dominate every alternative match for
  both extension kinds, so the greedy projection is lossless.
* **Full itemset-element semantics.** Two extension kinds are counted in
  one scan of the projected customers, exactly as in the baseline:
  an **s-extension** opens a new event (item ``x`` strictly after the
  matched position) and an **i-extension** joins the prefix's last event
  ``e`` (some event at-or-after the matched position contains
  ``e ∪ {x}``, enumerated canonically with ``x > max(e)``).
* **Level-synchronous growth.** The frontier of frequent prefixes is
  grown one round at a time: a *counting sweep* streams every partition
  once and accumulates global extension counts, then a *projection
  sweep* streams them again and builds the surviving children's
  projections from their parents' positions. Two linear passes per round
  is the price of never needing more than one partition in memory.
* **Out-of-core streaming.** The engine dispatches on the structural
  :class:`~repro.core.protocols.PartitionedRecordStream` protocol: a
  disk-backed database (:class:`~repro.db.partitioned.PartitionedDatabase`)
  is re-read partition by partition every sweep, so peak memory stays at
  one *projected* partition plus the frontier's index pairs — the same
  budget contract as every other out-of-core counting pass. An in-memory
  database is projected once and treated as a single resident partition.
* **Frequent-item projection.** Pass 1 streams the database once to
  count per-item customer support (the litemset phase's own pass-1
  counter, :func:`repro.itemsets.apriori.count_item_supports`, re-exported
  here); every later sweep sees events
  filtered to the frequent items (infrequent items can appear in no
  frequent pattern, and dropping then-empty events changes no
  containment relation over the surviving alphabet). The baseline oracle
  shares these helpers (:func:`project_events`,
  :func:`first_event_containing`, :func:`count_item_supports`).
* **Prefix-sharded parallelism.** ``workers > 1`` shards the frequent
  length-1 seed items across a process pool
  (:func:`repro.parallel.executor.parallel_prefixspan`): each shard runs
  :func:`grow_seed_range` on its seed slice over the customers
  :func:`project_customers` projected once in the parent. Every pattern
  is grown from exactly one seed (the minimum of its first event), so
  per-shard results are disjoint and their merge is a plain union.

The result is the **complete frequent-sequence set** with exact customer
supports; :func:`repro.miner.mine` applies the shared maximal filter and
``Pattern`` rendering, which is what makes the engine's output
byte-identical to the Apriori family's (the differential-oracle suite
holds it to that).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence as PySequence

from repro.core.maximal import EventsTuple
from repro.core.protocols import (
    CustomerRecord,
    Itemset,
    PartitionedRecordStream,
    SequenceDatabaseLike,
)
from repro.core.stats import AlgorithmStats
from repro.itemsets.apriori import count_item_supports

__all__ = [
    "PrefixSpanResult",
    "count_item_supports",
    "first_event_containing",
    "first_event_with_item",
    "grow_seed_range",
    "mine_prefixspan",
    "project_customers",
    "project_events",
]

#: One pseudo-projection entry: ``(customer index, matched position)``.
#: The customer index addresses the *projected* partition list (stable
#: across sweeps: file order, empty-projection customers skipped).
ProjectionEntry = tuple[int, int]

#: A prefix's pseudo-projection, one entry list per partition.
Projections = list[list[ProjectionEntry]]


def project_events(
    events: Iterable[Itemset], keep: frozenset[int]
) -> EventsTuple:
    """``events`` frozen and filtered to the items in ``keep``.

    Events left empty by the filter are dropped: they can match no
    pattern element over the ``keep`` alphabet, and relative order of
    the survivors — all that containment semantics depend on — is
    preserved. Shared by the engine and the baseline oracle so both see
    the identical projected view.
    """
    projected = []
    for event in events:
        kept = frozenset(event) & keep
        if kept:
            projected.append(kept)
    return tuple(projected)


def project_customers(
    customers: Iterable[CustomerRecord], keep: frozenset[int]
) -> list[EventsTuple]:
    """Every customer's events projected to ``keep``, in order, skipping
    customers whose projection is empty (they can support no pattern).
    The in-memory database the engine grows over, serial or sharded."""
    projected = []
    for customer in customers:
        events = project_events(customer.events, keep)
        if events:
            projected.append(events)
    return projected


def first_event_containing(
    events: EventsTuple, needed: frozenset[int], start: int
) -> int | None:
    """Index of the first event at or after ``start`` with ``needed`` ⊆
    event, or ``None``. The i-extension (and prefix re-match) probe."""
    for index in range(start, len(events)):
        if needed <= events[index]:
            return index
    return None


def first_event_with_item(
    events: EventsTuple, item: int, start: int
) -> int | None:
    """Index of the first event at or after ``start`` containing
    ``item``, or ``None``. The s-extension probe (membership, not
    subset — cheaper than :func:`first_event_containing` on a
    singleton)."""
    for index in range(start, len(events)):
        if item in events[index]:
            return index
    return None


# --------------------------------------------------------------------- #
# Projected sources: the per-partition resident view of one sweep
# --------------------------------------------------------------------- #


class _ProjectedSource:
    """Partition-addressable projected customers with *stable indices*.

    ``load(p)`` returns partition ``p``'s customers as projected event
    tuples, in a file order that is identical on every call (it depends
    only on the stored partition and the frequent-item set), so the
    ``(customer index, position)`` pairs a sweep records remain valid
    for every later sweep. Customers whose projection is empty are
    skipped — they can support no pattern.
    """

    __slots__ = ("_stream", "_keep", "_cache")

    def __init__(
        self,
        db: SequenceDatabaseLike | PartitionedRecordStream | None,
        keep: frozenset[int],
        *,
        cache: list[EventsTuple] | None = None,
    ) -> None:
        self._keep = keep
        self._stream: PartitionedRecordStream | None = None
        self._cache: list[EventsTuple] | None = cache
        if cache is not None:
            return  # already-projected customers supplied directly
        if isinstance(db, PartitionedRecordStream):
            self._stream = db
        elif db is not None:
            # In-memory database: project once, keep resident — it is the
            # caller's data, already in memory.
            self._cache = project_customers(db, keep)
        else:
            raise ValueError("either a database or a projected cache required")

    @property
    def num_partitions(self) -> int:
        if self._cache is not None:
            return 1
        assert self._stream is not None
        return self._stream.num_partitions

    def load(self, index: int) -> list[EventsTuple]:
        """One partition's projected customers (re-read from storage on
        the partitioned path; the single cached list in memory)."""
        if self._cache is not None:
            return self._cache
        assert self._stream is not None
        return project_customers(self._stream.iter_partition(index), self._keep)


# --------------------------------------------------------------------- #
# Level-synchronous pattern growth
# --------------------------------------------------------------------- #


@dataclass(slots=True)
class _Node:
    """One frontier prefix with its pseudo-projection."""

    prefix: EventsTuple
    projections: Projections

    @property
    def count(self) -> int:
        return sum(len(entries) for entries in self.projections)


@dataclass(slots=True)
class _Extension:
    """One frequent extension of a frontier node, awaiting projection."""

    prefix: EventsTuple
    #: The subset probe of the projection sweep: the extended last event
    #: for an i-extension, ``None`` for an s-extension (item probe).
    i_event: frozenset[int] | None
    item: int


@dataclass(slots=True)
class PrefixSpanResult:
    """The complete frequent-sequence set of one pattern-growth run.

    ``frequent`` maps every frequent sequence — as a tuple of frozenset
    events — to its exact customer-support count. ``item_counts`` is
    pass 1's full negative border (every item seen, frequent or not),
    and ``stats`` records one :class:`~repro.core.stats.PassStats` row
    per growth round (``num_candidates`` = extensions counted,
    ``num_large`` = extensions that reached the threshold).
    """

    frequent: dict[EventsTuple, int]
    item_counts: dict[int, int]
    threshold: int
    num_customers: int
    seed_seconds: float
    stats: AlgorithmStats = field(
        default_factory=lambda: AlgorithmStats("prefixspan")
    )

    def litemset_supports(self) -> dict[Itemset, int]:
        """Single-event frequent sequences as itemset supports.

        Pattern growth discovers every large itemset ``X`` as the
        1-sequence ``<(X)>``, so this is the same mapping the Apriori
        litemset phase reports — the surrogate the mining pipeline uses
        for its instrumentation.
        """
        return {
            tuple(sorted(events[0])): count
            for events, count in self.frequent.items()
            if len(events) == 1
        }

    def counts_by_length(self) -> dict[int, int]:
        """Number of frequent sequences per event-count."""
        by_length: dict[int, int] = {}
        for events in self.frequent:
            by_length[len(events)] = by_length.get(len(events), 0) + 1
        return dict(sorted(by_length.items()))


def _seed_frontier(
    source: _ProjectedSource, seed_items: PySequence[int]
) -> list[_Node]:
    """Length-1 frontier: one node per seed item, projections built with
    one sweep (per-customer earliest position of every seed item)."""
    wanted = set(seed_items)
    projections: dict[int, Projections] = {
        item: [[] for _ in range(source.num_partitions)] for item in seed_items
    }
    for part in range(source.num_partitions):
        for cust_index, events in enumerate(source.load(part)):
            first_at: dict[int, int] = {}
            for position, event in enumerate(events):
                for item in event:
                    if item in wanted and item not in first_at:
                        first_at[item] = position
            for item, position in first_at.items():
                projections[item][part].append((cust_index, position))
    return [
        _Node(prefix=(frozenset((item,)),), projections=projections[item])
        for item in seed_items
    ]


def _count_extensions(
    source: _ProjectedSource, frontier: list[_Node], can_s_extend: bool
) -> list[tuple[Counter[int], Counter[int]]]:
    """Counting sweep: global (s, i) extension counts per frontier node."""
    counts = [(Counter[int](), Counter[int]()) for _ in frontier]
    for part in range(source.num_partitions):
        customers = source.load(part)
        for node, (s_counts, i_counts) in zip(frontier, counts):
            last_event = node.prefix[-1]
            last_max = max(last_event)
            for cust_index, position in node.projections[part]:
                events = customers[cust_index]
                if can_s_extend:
                    s_seen: set[int] = set()
                    for index in range(position + 1, len(events)):
                        s_seen |= events[index]
                    for item in s_seen:
                        s_counts[item] += 1
                i_seen: set[int] = set()
                for index in range(position, len(events)):
                    event = events[index]
                    if last_event <= event:
                        for item in event:
                            if item > last_max:
                                i_seen.add(item)
                for item in i_seen:
                    i_counts[item] += 1
    return counts


def _project_children(
    source: _ProjectedSource,
    frontier: list[_Node],
    survivors: list[list[_Extension]],
) -> list[_Node]:
    """Projection sweep: the surviving extensions' pseudo-projections,
    derived from their parents' matched positions."""
    children = [
        [
            _Node(
                prefix=extension.prefix,
                projections=[[] for _ in range(source.num_partitions)],
            )
            for extension in extensions
        ]
        for extensions in survivors
    ]
    for part in range(source.num_partitions):
        customers = source.load(part)
        for node, extensions, nodes in zip(frontier, survivors, children):
            if not extensions:
                continue
            for cust_index, position in node.projections[part]:
                events = customers[cust_index]
                for extension, child in zip(extensions, nodes):
                    if extension.i_event is not None:
                        matched = first_event_containing(
                            events, extension.i_event, position
                        )
                    else:
                        matched = first_event_with_item(
                            events, extension.item, position + 1
                        )
                    if matched is not None:
                        child.projections[part].append((cust_index, matched))
    return [node for nodes in children for node in nodes]


def _grow_frontier(
    source: _ProjectedSource,
    seed_items: PySequence[int],
    threshold: int,
    max_pattern_length: int | None,
    stats: AlgorithmStats | None = None,
) -> dict[EventsTuple, int]:
    """Level-synchronous pattern growth from ``seed_items``.

    Every round streams the source twice: once to count every node's s-
    and i-extensions globally, once to build the frequent children's
    projections. Returns the complete frequent set rooted at the seeds.
    """
    results: dict[EventsTuple, int] = {}
    frontier = _seed_frontier(source, seed_items)
    for node in frontier:
        results[node.prefix] = node.count
    round_number = 1
    while frontier:
        started = time.perf_counter()
        # All frontier prefixes of one round share an event count only at
        # round 1; afterwards i-extensions keep some prefixes short, so
        # the cap is evaluated per node.
        can_extend = [
            max_pattern_length is None or len(node.prefix) < max_pattern_length
            for node in frontier
        ]
        counts = _count_extensions(
            source,
            frontier,
            can_s_extend=any(can_extend),
        )
        num_candidates = 0
        survivors: list[list[_Extension]] = []
        for node, (s_counts, i_counts), s_allowed in zip(
            frontier, counts, can_extend
        ):
            last_event = node.prefix[-1]
            extensions: list[_Extension] = []
            num_candidates += len(i_counts)
            for item in sorted(i for i, c in i_counts.items() if c >= threshold):
                extended = last_event | {item}
                extensions.append(
                    _Extension(
                        prefix=node.prefix[:-1] + (extended,),
                        i_event=extended,
                        item=item,
                    )
                )
            if s_allowed:
                num_candidates += len(s_counts)
                for item in sorted(
                    i for i, c in s_counts.items() if c >= threshold
                ):
                    extensions.append(
                        _Extension(
                            prefix=node.prefix + (frozenset((item,)),),
                            i_event=None,
                            item=item,
                        )
                    )
            survivors.append(extensions)
        frontier = _project_children(source, frontier, survivors)
        for node in frontier:
            results[node.prefix] = node.count
        if stats is not None:
            stats.record_pass(
                length=round_number,
                phase="growth",
                num_candidates=num_candidates,
                num_large=len(frontier),
                elapsed_seconds=time.perf_counter() - started,
            )
        round_number += 1
    return results


# --------------------------------------------------------------------- #
# Public entry points
# --------------------------------------------------------------------- #


def grow_seed_range(
    data: PartitionedRecordStream | list[EventsTuple],
    seed_items: PySequence[int],
    frequent_items: frozenset[int],
    threshold: int,
    max_pattern_length: int | None,
) -> dict[EventsTuple, int]:
    """Grow the complete frequent set rooted at ``seed_items``.

    The unit of work one parallel shard executes (and the serial engine
    calls once with every seed): ``data`` is either a partitioned record
    stream the worker re-reads itself, or an already-projected in-memory
    customer list. Distinct seed items root disjoint pattern sets —
    every pattern is grown exactly once, from the smallest item of its
    first event — so shard results merge by plain union.
    """
    if isinstance(data, list):
        source = _ProjectedSource(None, frequent_items, cache=data)
    else:
        source = _ProjectedSource(data, frequent_items)
    return _grow_frontier(source, seed_items, threshold, max_pattern_length)


def mine_prefixspan(
    db: SequenceDatabaseLike,
    minsup: float,
    *,
    max_pattern_length: int | None = None,
    workers: int = 1,
    chunk_size: int | None = None,
) -> PrefixSpanResult:
    """Mine the complete frequent-sequence set of ``db`` with PrefixSpan.

    ``db`` is any :class:`~repro.core.protocols.SequenceDatabaseLike`;
    a disk-backed partitioned database is streamed partition by
    partition and never materialized. ``max_pattern_length`` caps the
    number of *events* exactly as the Apriori miners' knob does: at the
    cap a prefix stops opening new events (s-extensions) but may still
    grow its last event (i-extensions), which add items, not events.
    ``workers > 1`` shards the frequent seed items across a process pool
    (``chunk_size`` = seeds per shard); counts are identical for every
    worker setting.
    """
    if not 0.0 < minsup <= 1.0:
        raise ValueError(f"minsup must be in (0, 1], got {minsup}")
    if max_pattern_length is not None and max_pattern_length < 1:
        raise ValueError(
            f"max_pattern_length must be >= 1, got {max_pattern_length}"
        )
    threshold = db.threshold(minsup)
    stats = AlgorithmStats("prefixspan")

    started = time.perf_counter()
    item_counts = count_item_supports(db)
    seed_items = sorted(
        item for item, count in item_counts.items() if count >= threshold
    )
    frequent_items = frozenset(seed_items)
    seed_seconds = time.perf_counter() - started
    stats.record_pass(
        length=0,
        phase="items",
        num_candidates=len(item_counts),
        num_large=len(seed_items),
        elapsed_seconds=seed_seconds,
    )

    frequent: dict[EventsTuple, int]
    if not seed_items:
        frequent = {}
    elif workers != 1:
        from repro.parallel.executor import parallel_prefixspan

        frequent = parallel_prefixspan(
            db,
            seed_items,
            frequent_items,
            threshold,
            max_pattern_length,
            workers=workers,
            chunk_size=chunk_size,
        )
    else:
        source = _ProjectedSource(db, frequent_items)
        frequent = _grow_frontier(
            source, seed_items, threshold, max_pattern_length, stats
        )

    return PrefixSpanResult(
        frequent=frequent,
        item_counts=dict(item_counts),
        threshold=threshold,
        num_customers=db.num_customers,
        seed_seconds=seed_seconds,
        stats=stats,
    )
