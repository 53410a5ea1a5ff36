"""Brute-force reference miner — the test oracle.

Enumerates, for every customer, *every* sequence contained in that
customer's history (every ordered choice of transactions crossed with
every non-empty subset of each chosen transaction), counts supports by
direct containment scans, filters by the threshold, and keeps the maximal
survivors. Exponential, deliberately so: it encodes the problem statement
with no algorithmic cleverness, which makes it the ground truth that the
property-based equivalence tests hold AprioriAll, AprioriSome and
DynamicSome against.

A safety limit guards against accidentally feeding it a real dataset.
"""

from __future__ import annotations

from itertools import combinations
from typing import Collection, Iterable, Mapping

from repro.core.maximal import EventsTuple, sequence_of_events
from repro.core.sequence import (
    IdEventSeq,
    IdSequence,
    Itemset,
    Sequence,
    id_sequence_contains,
    sequence_contains,
)
from repro.db.database import SequenceDatabase


def count_candidates_naive(
    sequences: Iterable[IdEventSeq], candidates: Collection[IdSequence]
) -> dict[IdSequence, int]:
    """Quadratic reference for :func:`repro.core.counting.count_candidates`:
    test every candidate against every customer with the greedy matcher.
    Returns a count for every candidate, zeros included."""
    counts = {candidate: 0 for candidate in candidates}
    for events in sequences:
        for candidate in counts:
            if id_sequence_contains(candidate, events):
                counts[candidate] += 1
    return counts


def maximal_sequences_naive(
    supported: Mapping[EventsTuple, int]
) -> dict[EventsTuple, int]:
    """Reference for :func:`repro.core.maximal.maximal_sequences`: keep
    each key no other key properly contains, in the input's key order.

    The keys are walked in descending total item count, each checked
    against the maximal keys kept so far only: a proper container has
    strictly more items, so it comes first, and containment is
    transitive, so a key inside a dominated key is inside the maximal
    key that dominates that one.
    """
    kept: list[EventsTuple] = []
    for pattern in sorted(supported, key=lambda events: -sum(map(len, events))):
        if not any(sequence_contains(other, pattern) for other in kept):
            kept.append(pattern)
    maximal = set(kept)
    return {
        pattern: count for pattern, count in supported.items() if pattern in maximal
    }


class BruteForceLimitError(RuntimeError):
    """Raised when enumeration exceeds the configured safety limit."""


def nonempty_subsets(itemset: Itemset) -> list[Itemset]:
    """All non-empty subsets of an itemset, as canonical tuples."""
    items = tuple(sorted(itemset))
    subsets: list[Itemset] = []
    for size in range(1, len(items) + 1):
        subsets.extend(combinations(items, size))
    return subsets


def enumerate_contained_sequences(
    events: tuple[Itemset, ...],
    *,
    max_pattern_length: int | None = None,
    limit: int = 500_000,
) -> set[EventsTuple]:
    """Every sequence contained in a single customer history."""
    subsets_per_event = [nonempty_subsets(event) for event in events]
    found: set[EventsTuple] = set()
    max_len = len(events) if max_pattern_length is None else min(
        len(events), max_pattern_length
    )
    for length in range(1, max_len + 1):
        for positions in combinations(range(len(events)), length):
            stack: list[tuple[int, tuple[frozenset[int], ...]]] = [(0, ())]
            while stack:
                depth, prefix = stack.pop()
                if depth == length:
                    found.add(prefix)
                    if len(found) > limit:
                        raise BruteForceLimitError(
                            f"more than {limit} contained sequences; "
                            "this database is too large for the oracle"
                        )
                    continue
                for subset in subsets_per_event[positions[depth]]:
                    stack.append((depth + 1, prefix + (frozenset(subset),)))
    return found


def brute_force_mine(
    db: SequenceDatabase,
    minsup: float,
    *,
    max_pattern_length: int | None = None,
    limit: int = 500_000,
) -> list[tuple[Sequence, int]]:
    """All maximal sequential patterns with supports, by exhaustion.

    Returns ``(sequence, support_count)`` pairs in deterministic order.
    ``max_pattern_length`` restricts the pattern length the same way the
    miner's ``max_pattern_length`` parameter does.
    """
    threshold = db.threshold(minsup)
    candidates: set[EventsTuple] = set()
    for customer in db:
        candidates |= enumerate_contained_sequences(
            customer.events, max_pattern_length=max_pattern_length, limit=limit
        )
        if len(candidates) > limit:
            raise BruteForceLimitError(
                f"more than {limit} candidate sequences; "
                "this database is too large for the oracle"
            )

    supported: dict[EventsTuple, int] = {}
    customer_events = [customer.events for customer in db]
    for pattern in candidates:
        count = sum(
            1 for events in customer_events if sequence_contains(events, pattern)
        )
        if count >= threshold:
            supported[pattern] = count

    maximal = maximal_sequences_naive(supported)
    results = [
        (sequence_of_events(events), count) for events, count in maximal.items()
    ]
    results.sort(key=lambda pair: pair[0].sort_key())
    return results
