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
  prefix it is one list of ``(customer index, event position)`` pairs —
  the position where the prefix's greedy (earliest) match ends.
  Earliest-match positions dominate every alternative match for both
  extension kinds, so the greedy projection is lossless.
* **Full itemset-element semantics.** Two extension kinds are counted in
  one visit of each projected customer, exactly as in the baseline:
  an **s-extension** opens a new event (item ``x`` strictly after the
  matched position) and an **i-extension** joins the prefix's last event
  ``e`` (some event at-or-after the matched position contains
  ``e ∪ {x}``, enumerated canonically with ``x > max(e)``).
* **Per-customer item-position index.** Each projected customer is
  indexed once per run (:class:`_IndexedCustomer`): ``after[p]``, the
  distinct items of the events after ``p``; ``where[x]``, the ascending
  positions of the events holding ``x``; and each event's items in
  sorted order. Counting a node's extensions then never rescans a
  suffix: its s-extensions are ``after[position]``, and its i-extensions
  come only from the events of ``where[max(e)]`` at or after the
  position (checked for ``e ⊆ event`` only when ``e`` has several
  items), each giving its items above ``max(e)`` by ``bisect``. Every
  node's item list becomes counts in one ``Counter.update``. Projecting
  a child is a lookup too: an s-child matches at ``where[x]``'s first
  position after the parent's, an i-child at the first position of
  ``where[x]`` at or after it whose event holds the extended event.
  Parallel shards build the index from the projected customers they are
  sent, so it is never pickled.
* **In memory.** The database is read twice — once to count items,
  once to project the customers to the frequent items — and the
  projected, indexed list stays resident for the whole run, so
  :func:`repro.miner.mine` refuses a partitioned database for this
  engine.
* **Level-synchronous growth, one sweep per round.** The frontier of
  frequent prefixes is grown one round at a time. A sweep projects the
  round's surviving extensions from their parents' positions and counts
  the new nodes' extensions; the global counts then decide the next
  survivors.
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
  per-shard results are disjoint and their merge is a plain union. The
  shards also return their growth rounds, which the parent sums round
  by round into the run's ``stats``.

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
from repro.core.protocols import CustomerRecord, Itemset, SequenceDatabaseLike
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
#: The customer index addresses the projected customer list
#: (empty-projection customers skipped).
ProjectionEntry = tuple[int, int]


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
    The resident database the engine grows over, serial or sharded."""
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

    Built once per run (:func:`_index_customer`) and shared by every
    frontier node whose projection holds it, so a sweep
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
# Level-synchronous pattern growth
# --------------------------------------------------------------------- #


@dataclass(slots=True)
class _Node:
    """One frontier prefix with its pseudo-projection and the counts of
    its extensions."""

    prefix: EventsTuple
    projections: list[ProjectionEntry]
    #: Whether the prefix may still open a new event: the
    #: ``max_pattern_length`` cap counts events, so at the cap only
    #: i-extensions are counted.
    s_allowed: bool
    s_counts: Counter[int] = field(default_factory=Counter)
    i_counts: Counter[int] = field(default_factory=Counter)

    @property
    def count(self) -> int:
        return len(self.projections)


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


def _new_node(prefix: EventsTuple, max_pattern_length: int | None) -> _Node:
    return _Node(
        prefix=prefix,
        projections=[],
        s_allowed=max_pattern_length is None
        or len(prefix) < max_pattern_length,
    )


def _count_extensions(
    customers: list[_IndexedCustomer], nodes: list[_Node]
) -> None:
    """Count every node's extensions over its projected customers.

    Per projected customer, the s-extensions are ``after[position]`` and
    the i-extensions come from the events holding ``max(last event)`` at
    or after the position, each contributing its items above that
    maximum. Every customer adds each item at most once to a node's item
    list, and each list becomes counts in one ``Counter.update`` per
    node.
    """
    for node in nodes:
        entries = node.projections
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
) -> None:
    """The projections of ``children`` (one per extension), looked up
    from their parent's matched positions ``entries`` in each customer's
    item-position index."""
    for extension, child in zip(extensions, children):
        item, i_event = extension.item, extension.i_event
        matches = child.projections
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
    customers: list[_IndexedCustomer],
    seed_items: PySequence[int],
    max_pattern_length: int | None,
) -> list[_Node]:
    """Length-1 frontier, with its extensions counted: one sweep records
    every customer's earliest position of each seed item, then the
    seeds' extensions are counted."""
    frontier = [
        _new_node((frozenset((item,)),), max_pattern_length)
        for item in seed_items
    ]
    by_item = dict(zip(seed_items, frontier))
    for cust_index, customer in enumerate(customers):
        for item, positions in customer.where.items():
            node = by_item.get(item)
            if node is not None:
                node.projections.append((cust_index, positions[0]))
    _count_extensions(customers, frontier)
    return frontier


def _grow_children(
    customers: list[_IndexedCustomer],
    frontier: list[_Node],
    survivors: list[list[_Extension]],
    max_pattern_length: int | None,
) -> list[_Node]:
    """The next frontier, with its extensions counted: the surviving
    extensions are projected from their parents' positions, then the new
    nodes' extensions are counted."""
    children = [
        [
            _new_node(extension.prefix, max_pattern_length)
            for extension in extensions
        ]
        for extensions in survivors
    ]
    for node, extensions, nodes in zip(frontier, survivors, children):
        if extensions:
            _project_children(customers, node.projections, extensions, nodes)
    grown = [node for nodes in children for node in nodes]
    _count_extensions(customers, grown)
    return grown


# --------------------------------------------------------------------- #
# Public entry points
# --------------------------------------------------------------------- #


def grow_seed_range(
    projected: list[EventsTuple],
    seed_items: PySequence[int],
    threshold: int,
    max_pattern_length: int | None,
    stats: AlgorithmStats | None = None,
) -> dict[EventsTuple, int]:
    """Level-synchronous growth of the complete frequent set rooted at
    ``seed_items``.

    ``projected`` is the customer list :func:`project_customers` made;
    it is indexed here and stays resident for the whole growth. Every
    round projects the frequent extensions of the round's frontier and
    counts the extensions of those new nodes, recording one ``stats``
    row. The serial engine calls this once with every seed, and each
    parallel shard with its seed slice. Distinct seed items root
    disjoint pattern sets — every pattern is grown exactly once, from
    the smallest item of its first event — so shard results merge by
    plain union.
    """
    customers = [_index_customer(events) for events in projected]
    results: dict[EventsTuple, int] = {}
    frontier = _seed_frontier(customers, seed_items, max_pattern_length)
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
            customers, frontier, survivors, max_pattern_length
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


def mine_prefixspan(
    db: SequenceDatabaseLike,
    minsup: float,
    *,
    max_pattern_length: int | None = None,
    workers: int = 1,
) -> PrefixSpanResult:
    """Mine the complete frequent-sequence set of ``db`` with PrefixSpan.

    ``db`` is any :class:`~repro.core.protocols.SequenceDatabaseLike`.
    It is iterated twice, to count the items and to project the
    customers to the frequent ones; the projected customers then stay in
    memory until growth ends. ``max_pattern_length`` caps the
    number of *events* exactly as the Apriori miners' knob does: at the
    cap a prefix stops opening new events (s-extensions) but may still
    grow its last event (i-extensions), which add items, not events.
    ``workers > 1`` shards the frequent seed items across a process pool,
    one shard per worker; counts and growth-round statistics are
    identical for every worker setting (the rounds' times are summed
    over the shards).
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
            stats=stats,
        )
    else:
        frequent = grow_seed_range(
            project_customers(db, frequent_items),
            seed_items,
            threshold,
            max_pattern_length,
            stats,
        )

    return PrefixSpanResult(
        frequent=frequent,
        item_counts=dict(item_counts),
        threshold=threshold,
        num_customers=db.num_customers,
        seed_seconds=seed_seconds,
        stats=stats,
    )
