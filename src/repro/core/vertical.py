"""Vertical id-list counting backend: SPADE-style parent joins.

The hash-tree strategy is *data-driven*: each pass rescans every
customer against the whole candidate set, so a late pass with a small
candidate set still pays for a full database scan. The vertical-format
family (SPADE / Eclat) inverts the loop — support of a k-candidate is
computed by **joining the id-lists of its two (k−1)-parents**, touching
only the customers that supported both parents. This module brings that
idea to the transformed database of the 1995 paper:

* :class:`VerticalDatabase` is a **one-time inversion** of the
  transformed rows: for every litemset id a vertical list
  ``{customer index → occurrence bitmask}``, an arbitrary-precision
  ``int`` with bit *e* set iff the id occurs in the customer's event
  *e* (Python ints have no word-size limit, and all mask arithmetic
  runs in C). A reference to the rows is kept alongside for the two
  per-customer sweeps that stay row-oriented: the length-2 pass and
  DynamicSome's on-the-fly forward pass.
* :class:`SupportLists` memoizes, for every sequence a pass has counted,
  its *support list* ``{customer → earliest-end event index}``: the
  supporting customers together with where the greedy (earliest) match
  of the sequence ends. The cache rolls forward pass to pass — the
  lists produced when counting ``C_k`` are exactly the parent lists the
  ``C_{k+1}`` joins consume — so work shrinks as k grows.
* Counting one candidate is :func:`join_parent_lists`: intersect the two
  parents' customer sets (iterating the smaller one) and, per surviving
  customer, test "the candidate's last id occurs strictly after the
  prefix parent's earliest end" with one mask shift/AND. No database
  scan happens at all.

Memoized lists are pure functions of the database, so they can never
become *incorrect* — eviction (:meth:`SupportLists.evict_except`) is
purely a memory knob, and any miss is repaired by rebuilding the list
with a chain of single-id temporal joins from the base vertical lists
(:meth:`SupportLists.get`). That rebuild is the fallback for every pass
whose parents were never counted: AprioriSome's skipped lengths and the
shared backward phase's longest-first walk.

``INVERT_CALLS`` counts :meth:`VerticalDatabase.invert` invocations so
tests can assert the once-per-mining-run inversion contract (once per
partition per run out of core, where the inversion is cached on disk).
"""

from __future__ import annotations

from typing import Collection, Mapping

from repro.core.candidates import join_parents
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

#: Pickled form of :class:`VerticalDatabase` (``__slots__`` state plus the
#: memoized support lists), as the out-of-core inversion cache stores it.
_VerticalState = tuple[
    dict[int, MaskList],
    tuple[int, ...],
    TransformedSequences | None,
    dict[IdSequence, SupportList],
    int,
]


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


def join_parent_lists(
    prefix_list: SupportList, suffix_list: SupportList, id_masks: MaskList
) -> SupportList:
    """Join a candidate's two join-parents' support lists.

    Exact because containment is decided greedily: a customer contains
    the candidate iff it contains the prefix parent (``candidate[:-1]``)
    and the last id occurs strictly after the prefix's earliest end — and
    containing the candidate implies containing the suffix parent
    (``candidate[1:]``), so restricting the probe to the suffix's
    customer set loses nothing. Iterating whichever parent supports
    fewer customers skips, for free, the customers that support one
    parent but cannot support the candidate.
    """
    if len(suffix_list) < len(prefix_list):
        out: SupportList = {}
        prefix_end = prefix_list.get
        for customer in suffix_list:
            end = prefix_end(customer)
            if end is None:
                continue
            # The suffix parent ends with the candidate's last id, so a
            # suffix-supporting customer always has a mask for it.
            remaining = id_masks[customer] >> (end + 1)
            if remaining:
                out[customer] = end + (remaining & -remaining).bit_length()
        return out
    return temporal_join(prefix_list, id_masks)


class SupportLists:
    """Cross-pass memo of earliest-end support lists.

    Owned by a :class:`VerticalDatabase`; counting a pass stores the list
    of every candidate it counted, and the next pass's joins look their
    parents up here. ``joins`` counts temporal joins performed (the test
    hook for "pass k does exactly |C_k| joins when the parent lists
    rolled forward").
    """

    __slots__ = ("_vdb", "_lists", "joins")

    def __init__(self, vdb: "VerticalDatabase") -> None:
        self._vdb = vdb
        self._lists: dict[IdSequence, SupportList] = {}
        self.joins = 0

    def __len__(self) -> int:
        return len(self._lists)

    def __contains__(self, seq: IdSequence) -> bool:
        return seq in self._lists

    def get(self, seq: IdSequence) -> SupportList:
        """The sequence's support list — memoized, else rebuilt by a
        chain of single-id joins from the base vertical lists.

        The rebuild is the fallback for sequences no pass has counted
        (skipped lengths, backward-phase parents);
        intermediate prefixes are memoized on the way up, so candidates
        sharing a prefix share the rebuild work.
        """
        lst = self._lists.get(seq)
        if lst is None:
            if len(seq) == 1:
                lst = self._vdb.base_list(seq[0])
            else:
                self.joins += 1
                lst = temporal_join(
                    self.get(seq[:-1]), self._vdb.id_list(seq[-1])
                )
            self._lists[seq] = lst
        return lst

    def count_candidate(
        self, candidate: IdSequence, prefix: IdSequence, suffix: IdSequence
    ) -> SupportList:
        """Compute (and memoize) one candidate's list via its parents.

        Uses the suffix parent's list as a pre-filter only when it is
        already cached — rebuilding the suffix would cost a whole join
        chain just to shrink one probe, whereas the prefix-only join is
        already exact.
        """
        if len(candidate) == 1:
            return self.get(candidate)
        suffix_list = self._lists.get(suffix)
        self.joins += 1
        if suffix_list is None:
            lst = temporal_join(
                self.get(prefix), self._vdb.id_list(candidate[-1])
            )
        else:
            lst = join_parent_lists(
                self.get(prefix), suffix_list, self._vdb.id_list(candidate[-1])
            )
        self._lists[candidate] = lst
        return lst

    def retain_surviving(self, large: Collection[IdSequence]) -> None:
        """Drop memoized lists of the just-counted length(s) that did not
        survive the support filter — only large sequences can be parents
        of the next pass's candidates, so the losers' lists are dead
        weight. Lists of other lengths are untouched."""
        lengths = {len(seq) for seq in large}
        if not lengths:
            return
        keep = set(large)
        self._lists = {
            seq: lst
            for seq, lst in self._lists.items()
            if len(seq) not in lengths or seq in keep
        }

    def evict_except(self, lengths: Collection[int]) -> None:
        """Memory roll-forward: keep only lists of the given lengths.

        The base length-1 lists are always kept (they anchor every
        rebuild chain). Dropping a length is always safe — a later miss
        rebuilds from the vertical lists — so the backward phase's
        descent simply invalidates the longer, now-useless generations
        as it walks down.
        """
        keep = set(lengths) | {1}
        self._lists = {
            seq: lst for seq, lst in self._lists.items() if len(seq) in keep
        }

    def cached_lengths(self) -> set[int]:
        """The lengths currently memoized (a test/introspection hook)."""
        return {len(seq) for seq in self._lists}

    def snapshot(self) -> dict[IdSequence, SupportList]:
        """A shallow copy of the memo (lists are never mutated in place,
        so sharing them is safe). With :meth:`restore`, lets a benchmark
        repeat a pass from its exact entry state instead of timing a
        cache its own first repetition warmed."""
        return dict(self._lists)

    def restore(self, state: dict[IdSequence, SupportList]) -> None:
        """Reset the memo to a :meth:`snapshot` (the snapshot itself is
        not adopted, so it can be restored again)."""
        self._lists = dict(state)


class VerticalDatabase:
    """One-time inversion of the transformed rows into per-id vertical
    lists, plus the cross-pass support-list caches.

    Satisfies ``len()`` (number of customers) and keeps a reference to
    the rows it was inverted from in ``rows`` for the passes that sweep
    customer by customer (the length-2 fast path and DynamicSome's
    on-the-fly join);
    ``rows`` is ``None`` when inverted with ``keep_rows=False`` (the
    out-of-core cache, whose rows stay on disk). Picklable, which is how
    that cache stores it.
    """

    __slots__ = ("id_lists", "event_counts", "rows", "cache")

    def __init__(
        self,
        id_lists: dict[int, MaskList],
        event_counts: tuple[int, ...],
        rows: TransformedSequences | None,
    ) -> None:
        self.id_lists = id_lists
        self.event_counts = event_counts
        self.rows = rows
        self.cache = SupportLists(self)

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

    def __getstate__(self) -> _VerticalState:
        return (
            self.id_lists,
            self.event_counts,
            self.rows,
            self.cache._lists,
            self.cache.joins,
        )

    def __setstate__(self, state: _VerticalState) -> None:
        (
            self.id_lists,
            self.event_counts,
            self.rows,
            lists,
            joins,
        ) = state
        self.cache = SupportLists(self)
        self.cache._lists = lists
        self.cache.joins = joins

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
    vdb: VerticalDatabase,
    candidates: Collection[IdSequence],
    *,
    parents: Mapping[IdSequence, tuple[IdSequence, IdSequence]] | None = None,
) -> dict[IdSequence, int]:
    """Count every candidate by joining its parents' support lists.

    ``parents`` is the join parentage reported by
    ``apriori_generate(..., with_parents=True)``; when absent (backward
    phase, raw engine calls) it is derived by slicing — the join
    construction makes ``candidate[:-1]``/``candidate[1:]`` the parents
    always. Candidates are processed shortest-first so that, with mixed
    lengths, shorter lists are memoized before longer candidates need
    them. After the pass the cache retains only the counted length and
    its parent length (plus the base lists), rolling the memo forward.
    """
    counts: dict[IdSequence, int] = {candidate: 0 for candidate in candidates}
    if not counts:
        return counts
    cache = vdb.cache
    ordered = sorted(counts, key=len)
    for candidate in ordered:
        if parents is not None and candidate in parents:
            prefix, suffix = parents[candidate]
        else:
            prefix, suffix = join_parents(candidate)
        counts[candidate] = len(cache.count_candidate(candidate, prefix, suffix))
    longest = len(ordered[-1])
    cache.evict_except({longest - 1, longest})
    return counts

