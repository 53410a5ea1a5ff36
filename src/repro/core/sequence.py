"""Sequence algebra for sequential pattern mining.

This module is the foundation of the whole library. It defines the value
types of the ICDE 1995 paper — *itemsets* (sets of items bought together in
one transaction) and *sequences* (ordered lists of itemsets) — plus the two
containment relations the five-phase method relies on:

* **Itemset-aware containment** (:func:`sequence_contains`): the paper's
  Definition — ``<a1 ... an>`` is contained in ``<b1 ... bm>`` iff there are
  indices ``i1 < ... < in`` with each ``aj`` a *subset* of ``b_{ij}``. Used
  by the maximal phase and the brute-force oracle.
* **Id-alphabet containment** (:func:`id_sequence_contains`): after the
  transformation phase every transaction becomes the set of litemset ids it
  contains, and a candidate sequence is a tuple of single ids. Containment
  is then ordered *membership* instead of subset. Used by all support
  counting in the sequence phase.

Both relations are decided by greedy left-to-right matching, which is
optimal for subsequence containment: matching each pattern element at the
earliest possible position never rules out a completion that some other
assignment would allow.

Items are plain ``int`` throughout the core; mapping of user-facing labels
(strings, SKUs, ...) to ints belongs to the I/O layer.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Iterable, Iterator, Sequence as PySequence

# Canonical homes of the value aliases are in repro.core.protocols (the
# dependency leaf); re-exported here because this module is where the
# rest of the package historically imports them.
from repro.core.protocols import IdEventSeq, IdSequence, Item, Itemset

__all__ = [
    "IdEventSeq",
    "IdSequence",
    "Item",
    "Itemset",
    "OccurrenceIndex",
    "Sequence",
    "SequenceFormatError",
    "earliest_end_index",
    "format_sequence",
    "id_sequence_contains",
    "is_proper_subsequence",
    "itemset_contains",
    "latest_start_index",
    "make_itemset",
    "parse_sequence",
    "sequence_contains",
]

_EVENT_RE = re.compile(r"\(([^()]*)\)")


class SequenceFormatError(ValueError):
    """Raised when parsing a textual sequence fails."""


def make_itemset(items: Iterable[Item]) -> Itemset:
    """Canonicalize ``items`` into a sorted, duplicate-free itemset tuple.

    Raises :class:`ValueError` for empty input or non-integer items, since
    an empty event is meaningless in the paper's model.
    """
    canonical = tuple(sorted(set(items)))
    if not canonical:
        raise ValueError("an itemset must contain at least one item")
    for item in canonical:
        if not isinstance(item, int) or isinstance(item, bool):
            raise ValueError(f"items must be ints, got {item!r}")
    return canonical


def itemset_contains(superset: Iterable[Item], subset: Itemset) -> bool:
    """Return ``True`` iff ``subset`` ⊆ ``superset``."""
    container = superset if isinstance(superset, (set, frozenset)) else set(superset)
    return all(item in container for item in subset)


class Sequence:
    """An immutable sequence of itemsets — the paper's pattern type.

    ``Sequence`` is the public boundary type: mining results, oracle
    answers, and I/O all speak ``Sequence``. The hot inner loops of the
    sequence phase instead work on bare :data:`IdSequence` tuples and only
    inflate to ``Sequence`` when reporting.
    """

    __slots__ = ("_events", "_hash", "_frozen")

    def __init__(self, events: Iterable[Iterable[Item]]) -> None:
        self._events: tuple[Itemset, ...] = tuple(make_itemset(e) for e in events)
        if not self._events:
            raise ValueError("a sequence must contain at least one event")
        self._hash = hash(self._events)
        self._frozen: tuple[frozenset[Item], ...] | None = None

    @property
    def events(self) -> tuple[Itemset, ...]:
        """The events (itemsets) of this sequence, in order."""
        return self._events

    def frozen_events(self) -> tuple[frozenset[Item], ...]:
        """The events as frozensets, built once and cached.

        :func:`sequence_contains` skips its per-event ``set()`` rebuild
        when pattern events are already sets, so repeated containment
        probes with the same pattern (the maximal phase, the brute-force
        oracle) should pass this form.
        """
        frozen = self._frozen
        if frozen is None:
            frozen = tuple(frozenset(event) for event in self._events)
            self._frozen = frozen
        return frozen

    @property
    def length(self) -> int:
        """Number of itemsets — the paper's notion of sequence length."""
        return len(self._events)

    @property
    def size(self) -> int:
        """Total number of items across all events."""
        return sum(len(e) for e in self._events)

    def items(self) -> frozenset[Item]:
        """The set of distinct items appearing anywhere in the sequence."""
        return frozenset(item for event in self._events for item in event)

    def contains(self, other: "Sequence") -> bool:
        """Return ``True`` iff ``other`` is contained in ``self``."""
        return sequence_contains(self._events, other.frozen_events())

    def is_contained_in(self, other: "Sequence") -> bool:
        """Return ``True`` iff ``self`` is contained in ``other``."""
        return sequence_contains(other._events, self.frozen_events())

    def concat(self, other: "Sequence") -> "Sequence":
        """Concatenate two sequences event-wise."""
        return Sequence(self._events + other._events)

    def drop_event(self, index: int) -> "Sequence":
        """Return the sequence with event ``index`` removed.

        Only valid for sequences of length ≥ 2 (a sequence may not be
        empty).
        """
        if self.length < 2:
            raise ValueError("cannot drop the only event of a sequence")
        events = self._events[:index] + self._events[index + 1 :]
        return Sequence(events)

    def sort_key(self) -> tuple[int, tuple[Itemset, ...]]:
        """Deterministic ordering key: by length, then lexicographic."""
        return (len(self._events), self._events)

    def __iter__(self) -> Iterator[Itemset]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __getitem__(self, index: int) -> Itemset:
        return self._events[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self._events == other._events

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Sequence") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"Sequence({format_sequence(self)!r})"

    def __str__(self) -> str:
        return format_sequence(self)


def sequence_contains(
    container: PySequence[Itemset | frozenset[Item]],
    pattern: PySequence[Itemset | frozenset[Item]],
) -> bool:
    """Itemset-aware containment: is ``pattern`` contained in ``container``?

    Greedy matching over events; each pattern event must be a subset of a
    strictly later container event than the previous match. Pattern events
    that already are ``set``/``frozenset`` are used as-is — callers probing
    one pattern against many containers (the maximal phase, the oracle)
    pre-freeze the pattern once instead of rebuilding a set per probe.
    """
    if len(pattern) > len(container):
        return False
    pos = 0
    limit = len(container)
    for event in pattern:
        event_set = event if isinstance(event, (set, frozenset)) else set(event)
        while pos < limit and not event_set.issubset(container[pos]):
            pos += 1
        if pos == limit:
            return False
        pos += 1
    return True


def is_proper_subsequence(
    pattern: PySequence[Itemset], container: PySequence[Itemset]
) -> bool:
    """True iff ``pattern`` is contained in ``container`` and differs from it."""
    if tuple(pattern) == tuple(container):
        return False
    return sequence_contains(container, pattern)


def id_sequence_contains(pattern: IdSequence, events: IdEventSeq) -> bool:
    """Id-alphabet containment over a transformed customer sequence.

    ``pattern`` is a tuple of litemset ids; ``events`` is the customer's
    transformed transaction list. Each pattern id must be a member of a
    strictly later event than the previous one.
    """
    pos = 0
    limit = len(events)
    for wanted in pattern:
        while pos < limit and wanted not in events[pos]:
            pos += 1
        if pos == limit:
            return False
        pos += 1
    return True


def earliest_end_index(pattern: IdSequence, events: IdEventSeq) -> int | None:
    """Index of the event where the greedy (earliest) match of ``pattern``
    ends, or ``None`` if the pattern is not contained.

    Used by DynamicSome's on-the-fly join: ``x . y`` is contained in a
    customer sequence iff ``earliest_end_index(x) < latest_start_index(y)``.
    """
    pos = 0
    limit = len(events)
    end = None
    for wanted in pattern:
        while pos < limit and wanted not in events[pos]:
            pos += 1
        if pos == limit:
            return None
        end = pos
        pos += 1
    return end


def latest_start_index(pattern: IdSequence, events: IdEventSeq) -> int | None:
    """Index of the event where the latest possible match of ``pattern``
    starts, or ``None`` if the pattern is not contained.

    Computed by greedy right-to-left matching, the mirror image of
    :func:`earliest_end_index`.
    """
    pos = len(events) - 1
    start = None
    for wanted in reversed(pattern):
        while pos >= 0 and wanted not in events[pos]:
            pos -= 1
        if pos < 0:
            return None
        start = pos
        pos -= 1
    return start


class OccurrenceIndex:
    """Per-customer index of id occurrences for fast prefix matching.

    For a transformed customer sequence, records for every litemset id the
    sorted list of event indices where it occurs (``positions``). The
    sequence hash tree reads ``positions`` directly to extend a greedy
    prefix match by one id in O(log occurrences), instead of rescanning
    events; :meth:`first_after` is the same step as a method.

    The hash-tree pass (:func:`repro.core.counting.count_hashtree`)
    builds it over the customer's events cut down to the pass's
    candidate ids, with the events left empty dropped. Positions then
    index that shorter list; containment depends only on event order,
    so it is unchanged for every candidate.
    """

    __slots__ = ("positions", "num_events")

    def __init__(self, events: IdEventSeq) -> None:
        positions: dict[int, list[int]] = {}
        for index, event in enumerate(events):
            for litemset_id in event:
                positions.setdefault(litemset_id, []).append(index)
        self.positions = positions
        self.num_events = len(events)

    def first_after(self, litemset_id: int, after: int) -> int | None:
        """Earliest event index strictly greater than ``after`` containing
        ``litemset_id``, or ``None``."""
        occ = self.positions.get(litemset_id)
        if occ is None:
            return None
        i = bisect_right(occ, after)
        if i == len(occ):
            return None
        return occ[i]


def format_sequence(sequence: Sequence | PySequence[Itemset]) -> str:
    """Render a sequence in the paper's notation: ``<(30)(40 70)>``."""
    events = sequence.events if isinstance(sequence, Sequence) else sequence
    inner = "".join("(" + " ".join(str(i) for i in event) + ")" for event in events)
    return f"<{inner}>"


def parse_sequence(text: str) -> Sequence:
    """Parse the paper's notation: ``<(30) (40 70)>`` → ``Sequence``.

    Whitespace between events is ignored; items within an event are
    whitespace- or comma-separated integers.
    """
    stripped = text.strip()
    if not (stripped.startswith("<") and stripped.endswith(">")):
        raise SequenceFormatError(f"sequence must be wrapped in <>: {text!r}")
    body = stripped[1:-1]
    remainder = _EVENT_RE.sub("", body).strip()
    if remainder:
        raise SequenceFormatError(f"unparsable fragment {remainder!r} in {text!r}")
    events = []
    for match in _EVENT_RE.finditer(body):
        raw = match.group(1).replace(",", " ").split()
        if not raw:
            raise SequenceFormatError(f"empty event in {text!r}")
        try:
            events.append([int(tok) for tok in raw])
        except ValueError as exc:
            raise SequenceFormatError(f"non-integer item in {text!r}") from exc
    if not events:
        raise SequenceFormatError(f"no events found in {text!r}")
    return Sequence(events)
