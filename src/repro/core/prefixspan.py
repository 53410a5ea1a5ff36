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
  one visit of each projected customer, exactly as in the baseline:
  an **s-extension** opens a new event (item ``x`` strictly after the
  matched position) and an **i-extension** joins the prefix's last event
  ``e`` (some event at-or-after the matched position contains
  ``e ∪ {x}``, enumerated canonically with ``x > max(e)``).
* **Per-customer item-position index.** Each projected customer is
  indexed once per load (:class:`_IndexedCustomer`): ``after[p]``, the
  distinct items of the events after ``p``; ``where[x]``, the ascending
  positions of the events holding ``x``; and each event's items in
  sorted order. Counting a node's extensions then never rescans a
  suffix: its s-extensions are ``after[position]``, and its i-extensions
  come only from the events of ``where[max(e)]`` at or after the
  position (checked for ``e ⊆ event`` only when ``e`` has several
  items), each giving its items above ``max(e)`` by ``bisect``. Every
  node's per-partition item list becomes counts in one
  ``Counter.update``. Projecting a child is a lookup too: an s-child
  matches at ``where[x]``'s first position after the parent's, an
  i-child at the first position of ``where[x]`` at or after it whose
  event holds the extended event. In memory the index is built once per
  run; parallel shards build it from the projected customers they are
  sent, so it is never pickled.
* **Level-synchronous growth, one sweep per round.** The frontier of
  frequent prefixes is grown one round at a time. A sweep loads each
  partition once: it projects the round's surviving extensions from
  their parents' positions and, on the same load, counts the new nodes'
  extensions; the global counts then decide the next survivors. One
  linear pass per round is the price of never needing more than one
  partition in memory.
* **Out-of-core streaming.** The engine dispatches on the structural
  :class:`~repro.core.protocols.PartitionedRecordStream` protocol: a
  disk-backed database (:class:`~repro.db.partitioned.PartitionedDatabase`)
  is re-read, projected and indexed partition by partition every sweep,
  so peak memory stays at one indexed partition plus the frontier's
  index pairs and counts — the same budget contract as every other
  out-of-core counting pass. An in-memory database is projected once and
  treated as a single resident partition.
* **Frequent-item projection.** Pass 1 streams the database once to
  count per-item customer support (the litemset phase's own pass-1
  counter, :func:`repro.itemsets.apriori.count_item_supports`, re-exported
  here); every later sweep sees events
  filtered to the frequent items (infrequent items can appear in no
  frequent pattern, and dropping then-empty events changes no
  containment relation over the surviving alphabet). The baseline oracle
  shares :func:`project_events` and :func:`count_item_supports`; the
  scanning probes :func:`first_event_containing` and
  :func:`first_event_with_item` live here beside them but only the
  oracle calls them.
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
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence as PySequence

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
    event, or ``None``. The oracle's i-extension (and prefix re-match)
    probe: :mod:`repro.baselines.prefixspan` scans with it, while the
    engine looks positions up in its :class:`_IndexedCustomer`."""
    for index in range(start, len(events)):
        if needed <= events[index]:
            return index
    return None


def first_event_with_item(
    events: EventsTuple, item: int, start: int
) -> int | None:
    """Index of the first event at or after ``start`` containing
    ``item``, or ``None``. The oracle's s-extension probe (membership,
    not subset — cheaper than :func:`first_event_containing` on a
    singleton); the engine answers it with one ``bisect`` instead."""
    for index in range(start, len(events)):
        if item in events[index]:
            return index
    return None


class _IndexedCustomer(NamedTuple):
    """One projected customer with its item-position index.

    Built once per load of the customer (:func:`_index_customer`) and
    shared by every frontier node whose projection holds it, so a sweep
    looks extensions and positions up instead of rescanning the suffix
    once per node.
    """

    events: EventsTuple
    #: ``after[p]``: the distinct items of ``events[p + 1:]`` — one
    #: customer's s-extensions of a prefix matched at ``p``.
    after: list[tuple[int, ...]]
    #: ``where[x]``: the ascending positions of the events holding ``x``.
    where: dict[int, list[int]]
    #: Each event's items in ascending order, so the items above a
    #: prefix's ``max(last event)`` are one ``bisect`` away.
    ordered: list[tuple[int, ...]]


def _index_customer(events: EventsTuple) -> _IndexedCustomer:
    """``events`` with its :class:`_IndexedCustomer` index."""
    ordered = [tuple(sorted(event)) for event in events]
    where: dict[int, list[int]] = {}
    for position, items in enumerate(ordered):
        for item in items:
            positions = where.get(item)
            if positions is None:
                where[item] = [position]
            else:
                positions.append(position)
    after: list[tuple[int, ...]] = [()] * len(events)
    seen: set[int] = set()
    suffix: tuple[int, ...] = ()
    for position in range(len(events) - 1, 0, -1):
        event = events[position]
        if not event <= seen:
            seen |= event
            suffix = tuple(seen)
        after[position - 1] = suffix
    return _IndexedCustomer(events, after, where, ordered)


# --------------------------------------------------------------------- #
# Projected sources: the per-partition resident view of one sweep
# --------------------------------------------------------------------- #


class _ProjectedSource:
    """Partition-addressable indexed customers with *stable indices*.

    ``load(p)`` returns partition ``p``'s customers as projected event
    tuples with their item-position index (:class:`_IndexedCustomer`),
    in a file order that is identical on every call (it depends only on
    the stored partition and the frequent-item set), so the
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
        projected: list[EventsTuple] | None = None,
    ) -> None:
        self._keep = keep
        self._stream: PartitionedRecordStream | None = None
        self._cache: list[_IndexedCustomer] | None = None
        if projected is None:
            if isinstance(db, PartitionedRecordStream):
                self._stream = db
                return
            if db is None:
                raise ValueError(
                    "either a database or projected customers required"
                )
            # In-memory database: project and index once, keep resident —
            # it is the caller's data, already in memory.
            projected = project_customers(db, keep)
        self._cache = [_index_customer(events) for events in projected]

    @property
    def num_partitions(self) -> int:
        if self._cache is not None:
            return 1
        assert self._stream is not None
        return self._stream.num_partitions

    def load(self, index: int) -> list[_IndexedCustomer]:
        """One partition's indexed customers (re-read, projected and
        indexed in one pass on the partitioned path; the single resident
        list in memory)."""
        if self._cache is not None:
            return self._cache
        assert self._stream is not None
        return [
            _index_customer(events)
            for events in project_customers(
                self._stream.iter_partition(index), self._keep
            )
        ]


# --------------------------------------------------------------------- #
# Level-synchronous pattern growth
# --------------------------------------------------------------------- #


@dataclass(slots=True)
class _Node:
    """One frontier prefix with its pseudo-projection and the global
    counts of its extensions, accumulated partition by partition."""

    prefix: EventsTuple
    projections: Projections
    #: Whether the prefix may still open a new event: the
    #: ``max_pattern_length`` cap counts events, so at the cap only
    #: i-extensions are counted.
    s_allowed: bool
    s_counts: Counter[int] = field(default_factory=Counter)
    i_counts: Counter[int] = field(default_factory=Counter)

    @property
    def count(self) -> int:
        return sum(len(entries) for entries in self.projections)


@dataclass(slots=True)
class _Extension:
    """One frequent extension of a frontier node, awaiting projection."""

    prefix: EventsTuple
    #: The subset probe of the projection: the extended last event for an
    #: i-extension, ``None`` for an s-extension (item lookup).
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


def _new_node(
    prefix: EventsTuple, num_partitions: int, max_pattern_length: int | None
) -> _Node:
    return _Node(
        prefix=prefix,
        projections=[[] for _ in range(num_partitions)],
        s_allowed=max_pattern_length is None
        or len(prefix) < max_pattern_length,
    )


def _count_extensions(
    customers: list[_IndexedCustomer], nodes: list[_Node], part: int
) -> None:
    """Add partition ``part``'s extension counts to every node's.

    Per projected customer, the s-extensions are ``after[position]`` and
    the i-extensions come from the events holding ``max(last event)`` at
    or after the position, each contributing its items above that
    maximum. Every customer adds each item at most once to a node's item
    list, and each list becomes counts in one ``Counter.update`` per
    node and partition.
    """
    for node in nodes:
        entries = node.projections[part]
        if not entries:
            continue
        s_allowed = node.s_allowed
        last_event = node.prefix[-1]
        last_max = max(last_event)
        check_subset = len(last_event) > 1
        s_items: list[int] = []
        i_items: list[int] = []
        for cust_index, position in entries:
            events, after, where, ordered = customers[cust_index]
            if s_allowed:
                s_items.extend(after[position])
            # The matched event holds the whole last event, so it is
            # where[last_max]'s first entry at or after ``position``.
            holding = where[last_max]
            first = bisect_left(holding, position)
            if first == len(holding) - 1:
                items = ordered[position]
                i_items.extend(items[bisect_right(items, last_max):])
                continue
            seen: set[int] = set()
            for index in holding[first:]:
                if check_subset and not last_event <= events[index]:
                    continue
                items = ordered[index]
                seen.update(items[bisect_right(items, last_max):])
            i_items.extend(seen)
        if s_items:
            node.s_counts.update(s_items)
        if i_items:
            node.i_counts.update(i_items)


def _frequent_extensions(node: _Node, threshold: int) -> list[_Extension]:
    """``node``'s extensions that reached ``threshold``: i-extensions,
    then s-extensions, each in item order."""
    last_event = node.prefix[-1]
    extensions: list[_Extension] = []
    for item in sorted(i for i, c in node.i_counts.items() if c >= threshold):
        extended = last_event | {item}
        extensions.append(
            _Extension(
                prefix=node.prefix[:-1] + (extended,),
                i_event=extended,
                item=item,
            )
        )
    for item in sorted(i for i, c in node.s_counts.items() if c >= threshold):
        extensions.append(
            _Extension(
                prefix=node.prefix + (frozenset((item,)),),
                i_event=None,
                item=item,
            )
        )
    return extensions


def _project_children(
    customers: list[_IndexedCustomer],
    entries: list[ProjectionEntry],
    extensions: list[_Extension],
    children: list[_Node],
    part: int,
) -> None:
    """Partition ``part``'s projections of ``children`` (one per
    extension), looked up from their parent's matched positions
    ``entries`` in each customer's item-position index."""
    for extension, child in zip(extensions, children):
        item, i_event = extension.item, extension.i_event
        matches = child.projections[part]
        for cust_index, position in entries:
            customer = customers[cust_index]
            holding = customer.where.get(item)
            if holding is None:
                continue
            if i_event is None:
                # s-child: the first event after ``position`` with ``item``.
                first = bisect_right(holding, position)
                if first < len(holding):
                    matches.append((cust_index, holding[first]))
                continue
            # i-child: the first event at or after ``position`` holding
            # ``item`` and the rest of the extended event.
            events = customer.events
            for index in holding[bisect_left(holding, position):]:
                if i_event <= events[index]:
                    matches.append((cust_index, index))
                    break


def _seed_frontier(
    source: _ProjectedSource,
    seed_items: PySequence[int],
    max_pattern_length: int | None,
) -> list[_Node]:
    """Length-1 frontier, with its extensions counted: one sweep records
    every customer's earliest position of each seed item and counts the
    seeds' extensions in the same load of each partition."""
    frontier = [
        _new_node(
            (frozenset((item,)),), source.num_partitions, max_pattern_length
        )
        for item in seed_items
    ]
    by_item = dict(zip(seed_items, frontier))
    for part in range(source.num_partitions):
        customers = source.load(part)
        for cust_index, customer in enumerate(customers):
            for item, positions in customer.where.items():
                node = by_item.get(item)
                if node is not None:
                    node.projections[part].append((cust_index, positions[0]))
        _count_extensions(customers, frontier, part)
    return frontier


def _grow_children(
    source: _ProjectedSource,
    frontier: list[_Node],
    survivors: list[list[_Extension]],
    max_pattern_length: int | None,
) -> list[_Node]:
    """The next frontier, with its extensions counted: one sweep projects
    the surviving extensions from their parents' positions and counts
    the new nodes' extensions in the same load of each partition."""
    children = [
        [
            _new_node(extension.prefix, source.num_partitions, max_pattern_length)
            for extension in extensions
        ]
        for extensions in survivors
    ]
    grown = [node for nodes in children for node in nodes]
    for part in range(source.num_partitions):
        customers = source.load(part)
        for node, extensions, nodes in zip(frontier, survivors, children):
            if extensions:
                _project_children(
                    customers, node.projections[part], extensions, nodes, part
                )
        _count_extensions(customers, grown, part)
    return grown


def _grow_frontier(
    source: _ProjectedSource,
    seed_items: PySequence[int],
    threshold: int,
    max_pattern_length: int | None,
    stats: AlgorithmStats | None = None,
) -> dict[EventsTuple, int]:
    """Level-synchronous pattern growth from ``seed_items``.

    Every round streams the source once: each partition is loaded once,
    to project the frequent extensions of the round's frontier and to
    count the extensions of those new nodes. Returns the complete
    frequent set rooted at the seeds.
    """
    results: dict[EventsTuple, int] = {}
    frontier = _seed_frontier(source, seed_items, max_pattern_length)
    for node in frontier:
        results[node.prefix] = node.count
    round_number = 1
    while frontier:
        started = time.perf_counter()
        num_candidates = 0
        survivors: list[list[_Extension]] = []
        for node in frontier:
            survivors.append(_frequent_extensions(node, threshold))
            num_candidates += len(node.i_counts) + len(node.s_counts)
            # Counted and decided: only the projection is still needed.
            node.i_counts.clear()
            node.s_counts.clear()
        frontier = _grow_children(
            source, frontier, survivors, max_pattern_length
        )
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
        source = _ProjectedSource(None, frequent_items, projected=data)
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
