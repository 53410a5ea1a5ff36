"""The litemset catalog: the itemset ↔ integer-id mapping (Section 3.1).

After the litemset phase, the paper maps each large itemset to an integer
so the sequence phase can "treat large itemsets as single entities" and
compare events in constant time. :class:`LitemsetCatalog` owns that
mapping, the litemset supports, and the transformation phase itself
(:meth:`LitemsetCatalog.transform`), whose itemset trie answers *which
litemsets does this transaction contain?*
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.core.protocols import TransformedSequence
from repro.core.sequence import IdSequence, Itemset, Sequence
from repro.itemsets.apriori import ItemsetTrie, LitemsetResult


class LitemsetCatalog:
    """Bidirectional litemset ↔ id mapping plus containment lookup.

    Ids are assigned 1..n in (length, lexicographic) order of the itemsets,
    making every downstream artifact (candidates, patterns, stats)
    deterministic for a given database and minsup.
    """

    def __init__(self, supports: Mapping[Itemset, int]) -> None:
        ordered = sorted(supports, key=lambda s: (len(s), s))
        self._itemsets: tuple[Itemset, ...] = tuple(ordered)
        self._id_of: dict[Itemset, int] = {
            itemset: index + 1 for index, itemset in enumerate(ordered)
        }
        self._supports: dict[int, int] = {
            self._id_of[itemset]: supports[itemset] for itemset in ordered
        }
        self._trie = ItemsetTrie(self._id_of.items())

    @classmethod
    def from_result(cls, result: LitemsetResult) -> "LitemsetCatalog":
        return cls(result.supports)

    def __len__(self) -> int:
        return len(self._itemsets)

    def __iter__(self) -> Iterator[Itemset]:
        return iter(self._itemsets)

    def __contains__(self, itemset: Itemset) -> bool:
        return itemset in self._id_of

    @property
    def ids(self) -> range:
        """All litemset ids (1-based, contiguous)."""
        return range(1, len(self._itemsets) + 1)

    def id_of(self, itemset: Itemset) -> int:
        """The id of a litemset; KeyError if the itemset is not large."""
        return self._id_of[itemset]

    def itemset_of(self, litemset_id: int) -> Itemset:
        """The itemset behind a litemset id."""
        return self._itemsets[litemset_id - 1]

    def support_of(self, litemset_id: int) -> int:
        """Customer-support count of a litemset (= of the 1-sequence)."""
        return self._supports[litemset_id]

    def one_sequence_supports(self) -> dict[IdSequence, int]:
        """Supports of all large 1-sequences over the id alphabet."""
        return {(lid,): support for lid, support in self._supports.items()}

    def contained_ids(self, transaction: Iterable[int]) -> frozenset[int]:
        """Ids of every litemset contained in ``transaction``: one trie
        walk."""
        return frozenset(self._trie.subsets_in((transaction,)))

    def transform(self, events: Iterable[Iterable[int]]) -> TransformedSequence:
        """The transformation phase for one customer: each transaction
        becomes the ids of the litemsets it contains, in order, and a
        transaction containing none is dropped (``()`` if all are).

        Every producer of transformed data (the in-memory and the
        partitioned database, the incremental update) calls this.
        """
        transformed = []
        for event in events:
            ids = self.contained_ids(event)
            if ids:
                transformed.append(ids)
        return tuple(transformed)

    def expand(self, id_sequence: IdSequence) -> Sequence:
        """Inflate an id-alphabet sequence back to an itemset Sequence."""
        return Sequence(self.itemset_of(lid) for lid in id_sequence)

    def expand_events(self, id_sequence: IdSequence) -> tuple[frozenset[int], ...]:
        """Inflate to bare frozenset events (for containment checks)."""
        return tuple(frozenset(self.itemset_of(lid)) for lid in id_sequence)
