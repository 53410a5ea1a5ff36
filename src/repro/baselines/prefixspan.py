"""PrefixSpan baseline (Pei et al., IEEE TKDE 2004).

The pattern-growth successor to the 1995 paper's candidate-generate-and-
test algorithms, included as an independently-implemented comparator:

* it shares **no code path** with the Apriori* miners — no litemset
  phase, no transformation, no candidate generation — so agreement
  between the two families is strong evidence both are right
  (``tests/test_prefixspan.py`` makes that a property test);
* it is the baseline every follow-up paper compares against, which makes
  the AprioriAll-vs-PrefixSpan bench (``benchmarks/bench_baselines.py``)
  the natural "who wins" ablation.

The algorithm grows patterns depth-first. For a current pattern (the
*prefix*) it keeps a pseudo-projection — per customer, the index of the
event where the prefix's last element matched earliest — and counts two
kinds of single-item extensions in one scan:

* **s-extension**: item ``x`` opens a new event; it counts for a customer
  if ``x`` occurs in any event strictly after the matched position.
* **i-extension**: item ``x`` joins the last event ``e``; it counts if
  some event at or after the matched position contains ``e ∪ {x}``.
  Enumeration stays canonical by requiring ``x > max(e)``.

Earliest-match positions dominate all alternatives for both extension
kinds, so the greedy projection is lossless. PrefixSpan reports **all**
frequent sequences; apply :func:`repro.core.maximal.maximal_sequences`
to compare with the 1995 answer (the miner's ``maximal=True`` does it).

The projection helpers are shared with the production engine
(:mod:`repro.core.prefixspan`), so the two implementations see the
identical projected view of a database; the scanning probes
(``first_event_with_item``, ``first_event_containing``) live beside
them there, but only this module calls them. What stays independent —
and is what the differential oracle leans on — is the *search itself*
(this module recurses depth-first with per-prefix suffix scans; the
engine grows a level-synchronous frontier, one streaming sweep per
round, through a per-customer item-position index).
The database is consumed in two streaming scans: an item-support scan
that retains nothing but a counter, and one materializing scan that
keeps only the frequent-item projection — never the raw database, so a
disk-backed :class:`~repro.db.partitioned.PartitionedDatabase` is
scanned via its merge-free unordered stream instead of paying a full
K-way-merge materialization.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.core.maximal import maximal_sequences
from repro.core.prefixspan import (
    count_item_supports,
    first_event_containing,
    first_event_with_item,
    project_events,
)
from repro.core.protocols import SequenceDatabaseLike
from repro.miner import Pattern
from repro.core.sequence import Sequence


def prefixspan_mine(
    db: SequenceDatabaseLike,
    minsup: float,
    *,
    max_pattern_length: int | None = None,
    maximal: bool = False,
) -> list[Pattern]:
    """Mine frequent sequences with PrefixSpan.

    ``max_pattern_length`` caps the number of events, matching the core
    miner's knob. With ``maximal=True`` the result is filtered to maximal
    sequences — the 1995 paper's answer set.
    """
    threshold = db.threshold(minsup)
    results: dict[tuple[frozenset[int], ...], int] = {}

    # Scan 1 (streaming): per-item customer supports — the length-1
    # seeds. Shared with the engine; retains only the counter.
    item_counts = count_item_supports(db)
    frequent_items = frozenset(
        item for item, count in item_counts.items() if count >= threshold
    )

    # Scan 2 (streaming): keep only each customer's frequent-item
    # projection (infrequent items can appear in no frequent pattern;
    # events left empty are dropped). Unordered is fine — projection
    # scans below are order-independent — and lets a partitioned
    # database stream partition files directly, skipping the merge.
    unordered = getattr(db, "iter_unordered", None)
    stream = unordered() if unordered is not None else iter(db)
    customers: list[tuple[frozenset[int], ...]] = []
    for customer in stream:
        events = project_events(customer.events, frequent_items)
        if events:
            customers.append(events)

    for item in sorted(frequent_items):
        projection = []
        for cust_index, events in enumerate(customers):
            position = first_event_with_item(events, item, 0)
            if position is not None:
                projection.append((cust_index, position))
        prefix = (frozenset((item,)),)
        results[prefix] = len(projection)
        _grow(
            prefix,
            projection,
            customers,
            threshold,
            max_pattern_length,
            results,
        )

    if maximal:
        results = maximal_sequences(results)

    num_customers = db.num_customers
    patterns = [
        Pattern(
            sequence=Sequence(tuple(sorted(event)) for event in events),
            count=count,
            support=count / num_customers if num_customers else 0.0,
        )
        for events, count in results.items()
    ]
    patterns.sort(key=lambda p: p.sequence.sort_key())
    return patterns


def _grow(
    prefix: tuple[frozenset[int], ...],
    projection: list[tuple[int, int]],
    customers: list[tuple[frozenset[int], ...]],
    threshold: int,
    max_pattern_length: int | None,
    results: dict[tuple[frozenset[int], ...], int],
) -> None:
    last_event = prefix[-1]
    last_max = max(last_event)
    can_s_extend = (
        max_pattern_length is None or len(prefix) < max_pattern_length
    )

    s_counts: Counter[int] = Counter()
    i_counts: Counter[int] = Counter()
    for cust_index, position in projection:
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

    for item in sorted(i for i, c in i_counts.items() if c >= threshold):
        extended_event = last_event | {item}
        new_projection = []
        for cust_index, position in projection:
            new_position = first_event_containing(
                customers[cust_index], extended_event, position
            )
            if new_position is not None:
                new_projection.append((cust_index, new_position))
        new_prefix = prefix[:-1] + (extended_event,)
        results[new_prefix] = len(new_projection)
        _grow(
            new_prefix,
            new_projection,
            customers,
            threshold,
            max_pattern_length,
            results,
        )

    if not can_s_extend:
        return
    for item in sorted(i for i, c in s_counts.items() if c >= threshold):
        needed = frozenset((item,))
        new_projection = []
        for cust_index, position in projection:
            new_position = first_event_with_item(
                customers[cust_index], item, position + 1
            )
            if new_position is not None:
                new_projection.append((cust_index, new_position))
        new_prefix = prefix + (needed,)
        results[new_prefix] = len(new_projection)
        _grow(
            new_prefix,
            new_projection,
            customers,
            threshold,
            max_pattern_length,
            results,
        )


def prefixspan_frequent_set(
    db: SequenceDatabaseLike, minsup: float
) -> dict[Sequence, int]:
    """Convenience: the full frequent set as a {Sequence: count} map."""
    return {
        p.sequence: p.count for p in prefixspan_mine(db, minsup)
    }


def iter_frequent_counts(
    patterns: Iterable[Pattern],
) -> Iterable[tuple[str, int]]:
    """(rendered sequence, count) pairs — handy for goldens and reports."""
    for pattern in patterns:
        yield str(pattern.sequence), pattern.count
