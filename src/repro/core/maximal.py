"""The maximal phase (phase 5) and the dominated-set closure behind it.

The answer to the mining problem is the set of *maximal* large sequences.
Containment here is the paper's itemset-subset-aware relation — e.g.
``<(a)(c)>`` is contained in ``<(ab)(cd)>`` even though, over the
litemset-id alphabet, the two share no symbol. The sequence phase works on
ids, so this module expands id sequences back to item events (via the
litemset catalog) before testing.

Note a subtlety the paper's prose glosses over: containment can hold
between sequences of *equal* length (``<(a)(c)> ⊆ <(ab)(c)>``, both
2-sequences). The maximal filter therefore tests proper containment
against all other large sequences, not only longer ones.

Both questions the pipeline asks — "is this sequence maximal?" here and
"is this candidate inside a longer large sequence?" in the backward phase
of AprioriSome/DynamicSome (:mod:`repro.core.backward`) — are answered by
one :class:`DominatedSet`.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.core.protocols import LitemsetCatalogLike
from repro.core.sequence import IdSequence, Sequence

#: A sequence expanded to bare events for containment checks.
EventsTuple = tuple[frozenset[int], ...]


def events_of_sequence(sequence: Sequence) -> EventsTuple:
    return tuple(frozenset(event) for event in sequence.events)


def sequence_of_events(events: EventsTuple) -> Sequence:
    return Sequence(tuple(sorted(event)) for event in events)


class SequenceExpander:
    """Cached id-sequence → events expansion through a litemset catalog."""

    def __init__(self, catalog: LitemsetCatalogLike) -> None:
        self._catalog = catalog
        self._cache: dict[IdSequence, EventsTuple] = {}

    def expand(self, id_sequence: IdSequence) -> EventsTuple:
        events = self._cache.get(id_sequence)
        if events is None:
            events = self._catalog.expand_events(id_sequence)
            self._cache[id_sequence] = events
        return events


def _one_item_removals(events: EventsTuple) -> Iterator[EventsTuple]:
    """Every sequence one item smaller than ``events``; an event the
    removal empties is dropped."""
    for position, event in enumerate(events):
        before, after = events[:position], events[position + 1:]
        if len(event) == 1:
            yield before + after
            continue
        for item in event:
            yield before + (event - {item},) + after


class DominatedSet:
    """Every sequence properly contained in some added sequence.

    Under the itemset-subset semantics a sequence properly contains
    another exactly when the other is reached from it by removing items
    one at a time, so :meth:`add` inserts the added sequence's one-item
    removals and walks into each one not seen before. Membership is then
    exact for any mix of added sequences — downward-closed or not — and
    the set stays downward-closed, which is what lets the walk stop at a
    sequence it already holds.

    Cost: the set holds the downward closure of the added sequences minus
    the maximal ones, and the work is one removal sweep per member. For a
    set of large sequences that closure is never larger than the full
    frequent set (every subsequence of a large sequence is large); for an
    arbitrary sequence of ``n`` items it can reach ``2**n``.
    """

    def __init__(self) -> None:
        self._dominated: set[EventsTuple] = set()

    def __contains__(self, events: object) -> bool:
        return events in self._dominated

    def add(self, events: EventsTuple) -> None:
        dominated = self._dominated
        pending = [events]
        while pending:
            for child in _one_item_removals(pending.pop()):
                if child not in dominated:
                    dominated.add(child)
                    pending.append(child)


def maximal_sequences(
    supported: Mapping[EventsTuple, int]
) -> dict[EventsTuple, int]:
    """Keep only sequences not properly contained in another key.

    Input and output map expanded event tuples to support counts.
    """
    dominated = DominatedSet()
    for events in supported:
        dominated.add(events)
    return {
        events: count
        for events, count in supported.items()
        if events not in dominated
    }
