"""Vertical id-list counting backend: SPADE-style temporal joins.

The hash-tree strategy is *data-driven*: each pass rescans every
customer against the whole candidate set, so a late pass with a small
candidate set still pays for a full database scan. The vertical-format
family (SPADE / Eclat) inverts the loop — support of a k-candidate is
computed by **joining id-lists**, touching only the customers that
supported the candidate's prefix. This module brings that idea to the
transformed database of the 1995 paper:

* :class:`VerticalDatabase` is a **one-time inversion** of the
  transformed rows: for every litemset id a vertical list
  ``{customer index → occurrence bitmask}``, an arbitrary-precision
  ``int`` with bit *e* set iff the id occurs in the customer's event
  *e* (Python ints have no word-size limit, and all mask arithmetic
  runs in C). A reference to the rows is kept alongside for the two
  per-customer sweeps that stay row-oriented: the length-2 pass and
  DynamicSome's on-the-fly forward pass.
* A *support list* ``{customer → earliest-end event index}`` records
  the supporting customers of a sequence together with where the greedy
  (earliest) match of the sequence ends. :func:`temporal_join` extends
  a support list by one id: per customer, one mask shift/AND tests "the
  id occurs strictly after the prefix's earliest end".
* :func:`count_candidates_vertical` counts one pass. A candidate's
  support is the size of the join of its prefix's list
  (``candidate[:-1]``) with its last id's vertical list. Prefix lists
  are built by a chain of joins from the base lists and shared by the
  candidates of the pass; nothing outlives the pass, so every pass —
  forward, skipped or backward — does the same kind of work and the
  database object carries no state between passes.

``INVERT_CALLS`` counts :meth:`VerticalDatabase.invert` invocations so
tests can assert the once-per-mining-run inversion contract (once per
partition per run out of core, where the inversion is cached on disk).
"""

from __future__ import annotations

from typing import Collection

from repro.core.protocols import TransformedSequences
from repro.core.sequence import IdSequence

#: Number of :meth:`VerticalDatabase.invert` calls since import — a test
#: hook for the once-per-mining-run inversion contract. Never reset by
#: library code; tests snapshot it before a run and diff after.
INVERT_CALLS = 0

#: A support list: supporting customer index → event index where the
#: greedy (earliest) match of the sequence ends.
SupportList = dict[int, int]

#: A vertical id-list: customer index → occurrence bitmask of one id.
MaskList = dict[int, int]

#: Shared empty mask list for ids that occur nowhere. Never mutated.
_EMPTY_MASKS: MaskList = {}


def temporal_join(prefix_list: SupportList, id_masks: MaskList) -> SupportList:
    """Extend a prefix's earliest-end list by one id.

    A customer survives iff it is in both lists and the id occurs in an
    event strictly after the prefix's earliest end; its new earliest end
    is that occurrence. Two int ops per customer: shift off everything
    up to the prefix end, isolate the lowest surviving bit.
    """
    out: SupportList = {}
    masks = id_masks.get
    for customer, end in prefix_list.items():
        mask = masks(customer)
        if mask is None:
            continue
        remaining = mask >> (end + 1)
        if remaining:
            out[customer] = end + (remaining & -remaining).bit_length()
    return out


class VerticalDatabase:
    """One-time inversion of the transformed rows into per-id vertical
    lists.

    Satisfies ``len()`` (number of customers) and keeps a reference to
    the rows it was inverted from in ``rows`` for the passes that sweep
    customer by customer (the length-2 fast path and DynamicSome's
    on-the-fly join);
    ``rows`` is ``None`` when inverted with ``keep_rows=False`` (the
    out-of-core cache, whose rows stay on disk). Picklable, which is how
    that cache stores it.
    """

    __slots__ = ("id_lists", "event_counts", "rows")

    def __init__(
        self,
        id_lists: dict[int, MaskList],
        event_counts: tuple[int, ...],
        rows: TransformedSequences | None,
    ) -> None:
        self.id_lists = id_lists
        self.event_counts = event_counts
        self.rows = rows

    @classmethod
    def invert(
        cls, rows: TransformedSequences, *, keep_rows: bool = True
    ) -> "VerticalDatabase":
        """Invert transformed rows into vertical id-lists, building each
        customer's per-id occurrence masks on the way. Counted in
        :data:`INVERT_CALLS`; callers invert once per run and reuse."""
        global INVERT_CALLS
        INVERT_CALLS += 1
        id_lists: dict[int, MaskList] = {}
        event_counts: list[int] = []
        for customer, events in enumerate(rows):
            event_counts.append(len(events))
            masks: dict[int, int] = {}
            for index, event in enumerate(events):
                bit = 1 << index
                for litemset_id in event:
                    masks[litemset_id] = masks.get(litemset_id, 0) | bit
            for litemset_id, mask in masks.items():
                id_lists.setdefault(litemset_id, {})[customer] = mask
        return cls(id_lists, tuple(event_counts), rows if keep_rows else None)

    def __len__(self) -> int:
        return len(self.event_counts)

    def id_list(self, litemset_id: int) -> MaskList:
        """The vertical list of one id (empty for ids occurring nowhere)."""
        return self.id_lists.get(litemset_id, _EMPTY_MASKS)

    def base_list(self, litemset_id: int) -> SupportList:
        """Earliest-end list of the 1-sequence ``<(id)>``: the lowest set
        bit of every customer's occurrence mask."""
        return {
            customer: (mask & -mask).bit_length() - 1
            for customer, mask in self.id_list(litemset_id).items()
        }


def ensure_vertical(
    sequences: TransformedSequences | VerticalDatabase,
) -> VerticalDatabase:
    """Pass through an already-inverted database; invert raw rows."""
    if isinstance(sequences, VerticalDatabase):
        return sequences
    return VerticalDatabase.invert(sequences)


def count_candidates_vertical(
    vdb: VerticalDatabase, candidates: Collection[IdSequence]
) -> dict[IdSequence, int]:
    """Count every candidate of one pass by temporal joins.

    A customer contains a candidate iff it contains the prefix
    ``candidate[:-1]`` and the last id occurs strictly after the
    prefix's earliest end, so the count is the size of one join of the
    prefix's support list with the last id's vertical list; the
    candidate's own list is not kept. Prefix lists are built by a chain
    of joins from :meth:`VerticalDatabase.base_list` and memoized for
    this pass only, so candidates sharing a prefix share its chain and
    the database carries no state into the next pass. The result holds
    a count for every candidate, in input order.
    """
    prefixes: dict[IdSequence, SupportList] = {}

    def prefix_list(seq: IdSequence) -> SupportList:
        lst = prefixes.get(seq)
        if lst is None:
            if len(seq) == 1:
                lst = vdb.base_list(seq[0])
            else:
                lst = temporal_join(prefix_list(seq[:-1]), vdb.id_list(seq[-1]))
            prefixes[seq] = lst
        return lst

    counts: dict[IdSequence, int] = {}
    for candidate in candidates:
        if len(candidate) == 1:
            counts[candidate] = len(vdb.id_list(candidate[0]))
        else:
            counts[candidate] = len(
                temporal_join(
                    prefix_list(candidate[:-1]), vdb.id_list(candidate[-1])
                )
            )
    return counts
