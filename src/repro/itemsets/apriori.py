"""The litemset phase (phase 2): customer-support Apriori.

Finds all *large itemsets* — itemsets contained in some transaction of at
least ``minsup`` of the *customers*. This differs from the classic
market-basket Apriori in the support denominator only: a customer who buys
``(bread, butter)`` three times still contributes 1 to its support, because
sequence support is per customer (the paper, Section 3, notes this is the
one modification needed to the VLDB 1994 algorithm).

The output feeds the transformation phase: every large itemset becomes a
single symbol (litemset id) of the sequence-phase alphabet, and — because a
1-sequence ``<(X)>`` is contained in a customer iff the itemset ``X`` is —
the litemset supports double as the supports of all large 1-sequences.

Pass 2 never lists its candidates. They are all pairs of large items,
m(m−1)/2 of them, far more than ever co-occur in a transaction: the
pass codes each co-occurring pair of large items as an integer, dedups
the codes per customer and tallies them with one sort — the tail the
sequence phase's length-2 pass shares
(:func:`repro.core.counting.tally_pair_codes`) — and builds tuples only
for the pairs it keeps (:func:`count_item_pairs`). Passes k ≥ 3 store
their candidates in an :class:`ItemsetTrie` and each transaction
collects the stored subsets; the same trie, over the litemsets, serves
the transformation phase
(:class:`~repro.itemsets.litemsets.LitemsetCatalog`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import (
    Any, Callable, Collection, Generic, Iterable, Iterator, Mapping, TypeVar,
)

import numpy as np

from repro.core.counting import pair_floor, tally_pair_codes
from repro.core.passkey import checkpointed
from repro.core.protocols import CustomerRecord, PassCheckpoint, SequenceDatabaseLike
from repro.core.sequence import Itemset


V = TypeVar("V")

#: A trie node: child nodes keyed by item, plus the stored value under
#: the key ``_VALUE`` if an itemset ends here.
_Node = dict[int | None, Any]
_VALUE = None


class ItemsetTrie(Generic[V]):
    """Prefix trie over canonical (sorted-tuple) itemsets, each holding a
    value at its terminal node.

    :meth:`subsets_in` answers the question the counting passes k ≥ 3
    and the transformation phase both ask of a transaction: which stored
    itemsets does it contain? It cuts the transaction down to the items
    the trie holds anywhere and, unless fewer survive than the shortest
    stored itemset has, walks them in sorted order depth-first,
    descending only into stored prefixes. Cutting to the root's keys
    instead would only be right for a downward-closed store such as the
    litemsets; a candidate list like ``[(1, 5, 9)]`` needs item 5 below
    the root.
    """

    def __init__(self, entries: Iterable[tuple[Itemset, V]]) -> None:
        self._root: _Node = {}
        items: set[int] = set()
        lengths: set[int] = set()
        for itemset, value in entries:
            if not itemset:
                raise ValueError("cannot store an empty itemset")
            node = self._root
            for item in itemset:
                node = node.setdefault(item, {})
            node[_VALUE] = value
            items.update(itemset)
            lengths.add(len(itemset))
        self._items = frozenset(items)
        self._shortest = min(lengths, default=1)

    def subsets_in(self, transactions: Iterable[Iterable[int]]) -> list[V]:
        """The value of every stored itemset contained in one of
        ``transactions``, once per transaction that contains it.

        A counting pass hands over a whole customer per call: most of
        its transactions keep fewer items than the shortest candidate,
        and the cut alone costs them less than a call each would.
        """
        found: list[V] = []
        for transaction in transactions:
            items = self._items.intersection(transaction)
            if len(items) >= self._shortest:
                self._collect(self._root, sorted(items), 0, found)
        return found

    def _collect(
        self, node: _Node, items: list[int], start: int, found: list[V]
    ) -> None:
        for index in range(start, len(items)):
            child = node.get(items[index])
            if child is None:
                continue
            if _VALUE in child:
                found.append(child[_VALUE])
                if len(child) == 1:
                    continue
            self._collect(child, items, index + 1, found)


@dataclass(frozen=True, slots=True)
class LitemsetPassStats:
    """Per-level counters of the litemset phase."""

    length: int
    num_candidates: int
    num_large: int


@dataclass(frozen=True, slots=True)
class LitemsetResult:
    """All large itemsets with their customer-support counts.

    ``item_counts`` and ``counted_supports`` additionally retain the
    phase's *negative border* — everything that was counted but fell
    below the threshold: the exact support of every single item seen in
    the database, and of every candidate itemset of length ≥ 2 that a
    pass counted, zero included. The incremental subsystem
    (:mod:`repro.incremental`) snapshots these so a later delta only
    has to count what the border cannot answer. Like
    :attr:`~repro.core.phase.SequencePhaseResult.counted_by_length`,
    ``counted_supports`` stays empty unless the run collects counts
    (``collect_counts``), and only then is pass 2's candidate list of
    all large-item pairs ever built.
    """

    supports: Mapping[Itemset, int]
    passes: tuple[LitemsetPassStats, ...]
    item_counts: Mapping[int, int] = field(default_factory=dict)
    counted_supports: Mapping[Itemset, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.supports)

    def itemsets(self) -> list[Itemset]:
        """Litemsets in deterministic (length, lexicographic) order."""
        return sorted(self.supports, key=lambda s: (len(s), s))


def generate_candidate_itemsets(
    large_prev: Iterable[Itemset],
) -> list[Itemset]:
    """Apriori candidate generation for itemsets: join + prune.

    Joins (k−1)-itemsets sharing their first k−2 items, then prunes
    candidates with any (k−1)-subset outside ``large_prev``. For k = 2 the
    join degenerates to all unordered pairs, as in the original; both
    items of a pair are large, so nothing prunes, and pairs of the sorted
    items come out sorted.
    """
    prev = sorted(set(large_prev))
    if not prev:
        return []
    k_minus_1 = len(prev[0])
    if any(len(s) != k_minus_1 for s in prev):
        raise ValueError("all itemsets must have equal length for the join")
    if k_minus_1 == 1:
        return list(combinations([itemset[0] for itemset in prev], 2))
    prev_set = set(prev)
    candidates: list[Itemset] = []
    by_prefix: dict[Itemset, list[Itemset]] = {}
    for itemset in prev:
        by_prefix.setdefault(itemset[:-1], []).append(itemset)
    for siblings in by_prefix.values():
        for i, first in enumerate(siblings):
            for second in siblings[i + 1 :]:
                # siblings are sorted, so first[-1] < second[-1]
                candidate = first + (second[-1],)
                if _all_subsets_large(candidate, prev_set):
                    candidates.append(candidate)
    candidates.sort()
    return candidates


def _all_subsets_large(candidate: Itemset, prev_set: set[Itemset]) -> bool:
    for drop in range(len(candidate)):
        subset = candidate[:drop] + candidate[drop + 1 :]
        if subset not in prev_set:
            return False
    return True


def _iter_customers(db: SequenceDatabaseLike) -> Iterator[CustomerRecord]:
    """Customers of ``db`` in any order — support counting is
    order-independent, and a disk-partitioned database offers a cheaper
    unordered stream (no K-way merge) than its ordered ``__iter__``."""
    unordered = getattr(db, "iter_unordered", None)
    return iter(unordered()) if unordered is not None else iter(db)


def count_itemset_supports(
    db: SequenceDatabaseLike, candidates: Iterable[Itemset]
) -> Counter[Itemset]:
    """Customer-support counts of ``candidates`` in one database pass."""
    return count_customer_supports(
        (customer.events for customer in _iter_customers(db)), candidates
    )


def count_customer_supports(
    customers: Iterable[Iterable[Collection[int]]],
    candidates: Iterable[Itemset],
) -> Counter[Itemset]:
    """Customer-support counts of ``candidates`` over ``customers``, each
    given as its transactions. Only contained candidates carry entries.

    A candidate list of pairs only is counted by the pair kernel
    (:func:`count_item_pairs` over the candidates' items); any other
    goes through an :class:`ItemsetTrie` of the candidates.
    """
    candidate_list = list(candidates)
    if not candidate_list:
        return Counter()
    if set(map(len, candidate_list)) == {2}:
        occurring = count_item_pairs(
            customers, set(chain.from_iterable(candidate_list)), 1
        )
        return Counter(
            {c: occurring[c] for c in filter(occurring.__contains__, candidate_list)}
        )
    trie = ItemsetTrie((candidate, candidate) for candidate in candidate_list)
    counts: Counter[Itemset] = Counter()
    for events in customers:
        counts.update(set(trie.subsets_in(events)))
    return counts


def count_item_pairs(
    customers: Iterable[Iterable[Collection[int]]],
    items: Collection[int],
    floor: int,
) -> dict[Itemset, int]:
    """Pass 2: the customer support of every pair of ``items`` that
    occurs together in some transaction and is supported by at least
    ``floor`` customers.

    Each transaction's pairs of ``items`` are coded as one int over the
    items' ranks, ``rank(a)*m + rank(b)`` with ``a < b`` among the ``m``
    items (ranks keep the codes below m² whatever the item values),
    deduped per customer in a set of ints and tallied over all customers
    by :func:`~repro.core.counting.tally_pair_codes`; no candidate list
    is built. ``floor`` 1 keeps every co-occurring pair, the support
    threshold only the large ones.
    """
    ordered = sorted(frozenset(items))
    if len(ordered) < 2:
        return {}
    rank = {item: index for index, item in enumerate(ordered)}
    m = len(ordered)
    codes: list[int] = []
    for events in customers:
        pairs: set[int] = set()
        for event in events:
            kept = rank.keys() & event
            if len(kept) > 1:
                ranks = sorted([rank[item] for item in kept])
                for index, first in enumerate(ranks):
                    base = first * m
                    pairs.update([base + second for second in ranks[index + 1 :]])
        codes.extend(pairs)
    counted = tally_pair_codes(np.array(codes, dtype=np.int64), 0, m, floor)
    return {(ordered[a], ordered[b]): count for (a, b), count in counted.items()}


def count_item_supports(db: SequenceDatabaseLike) -> Counter[int]:
    """Pass 1: customer support of every single item of ``db``, in
    first-seen order, in one streaming scan that retains nothing but
    the counter. Shared by both engines: PrefixSpan seeds its growth
    with it (:mod:`repro.core.prefixspan`)."""
    return count_customer_items(customer.events for customer in _iter_customers(db))


def count_customer_items(
    customers: Iterable[Iterable[Collection[int]]],
) -> Counter[int]:
    """Customer support of every single item over ``customers``, each
    given as its transactions, in first-seen order."""
    item_counts: Counter[int] = Counter()
    for events in customers:
        item_counts.update(set(chain.from_iterable(events)))
    return item_counts


def apriori_itemsets(
    item_counts: Mapping[int, int],
    count_pairs: Callable[[list[int]], Mapping[Itemset, int]],
    count: Callable[[list[Itemset]], Mapping[Itemset, int]],
    threshold: int,
    *,
    max_length: int | None = None,
    collect_counts: bool = False,
) -> LitemsetResult:
    """The level-wise loop of the litemset phase, given pass 1's
    ``item_counts``: generate each level's candidates from the last
    level's large itemsets, count them, keep the large ones.

    Level 2 is all pairs of the large items, never built here:
    ``count_pairs(items)`` gets the sorted large items and returns at
    least the large pairs' supports (see :func:`count_item_pairs`), and
    the pass reports the analytic m(m−1)/2 as its candidate count. Every
    longer level calls ``count(candidates)``, which returns at least the
    contained candidates' customer supports. Where counts come from — a
    database scan, a checkpoint replay, window unions or a count cache
    plus a delta — is the caller's business. ``max_length`` optionally
    caps the itemset size; ``None`` runs to fixpoint.

    ``collect_counts`` fills :attr:`LitemsetResult.counted_supports`:
    every level's candidates with an explicit zero, overwritten by the
    counts the pass returned. Its callers must then count pass 2 at
    floor 1 (every co-occurring pair), or the border would hold zeros
    for pairs that occur.
    """
    supports: dict[Itemset, int] = {}
    passes: list[LitemsetPassStats] = []
    counted_supports: dict[Itemset, int] = {}

    current_large = sorted(
        (item,) for item, n in item_counts.items() if n >= threshold
    )
    passes.append(
        LitemsetPassStats(
            length=1, num_candidates=len(item_counts), num_large=len(current_large)
        )
    )
    for itemset in current_large:
        supports[itemset] = item_counts[itemset[0]]

    length = 2
    while current_large and (max_length is None or length <= max_length):
        candidates: Iterable[Itemset]
        if length == 2:
            items = [itemset[0] for itemset in current_large]
            if len(items) < 2:
                break
            num_candidates = len(items) * (len(items) - 1) // 2
            counts = count_pairs(items)
            candidates = combinations(items, 2)
        else:
            generated = generate_candidate_itemsets(current_large)
            if not generated:
                break
            num_candidates = len(generated)
            counts = count(generated)
            candidates = generated
        if collect_counts:
            # Every candidate enters the border in candidate order with
            # an explicit zero; the contained ones (the keys of
            # ``counts``) then take their counts in place.
            counted_supports.update(dict.fromkeys(candidates, 0))
            counted_supports.update(counts)
        # A candidate absent from ``counts`` is below the threshold.
        current_large = sorted(c for c, n in counts.items() if n >= threshold)
        passes.append(
            LitemsetPassStats(
                length=length,
                num_candidates=num_candidates,
                num_large=len(current_large),
            )
        )
        for itemset in current_large:
            supports[itemset] = counts[itemset]
        length += 1

    return LitemsetResult(
        supports=supports,
        passes=tuple(passes),
        item_counts=dict(item_counts),
        counted_supports=counted_supports,
    )


def find_litemsets(
    db: SequenceDatabaseLike,
    minsup: float,
    *,
    max_length: int | None = None,
    checkpoint: PassCheckpoint | None = None,
    collect_counts: bool = False,
) -> LitemsetResult:
    """Run the litemset phase: all itemsets with customer-support ≥ minsup.

    ``max_length`` optionally caps the itemset size (useful in stress tests
    on pathological dense data); ``None`` mines to fixpoint as the paper
    does. ``checkpoint`` optionally plugs in the durable pass store
    (see :class:`~repro.core.protocols.PassCheckpoint`): the raw-item
    scan and each per-level candidate pass are recorded as they
    complete, and replayed in order on resume — full counts, negative
    border included, so the resumed result is identical. The raw-item
    scan's input is the whole database, so its pass identity is the
    constant empty key set; a pair pass is identified by its candidate
    list, which a checkpointed run therefore builds. ``collect_counts``
    keeps the negative border in ``counted_supports`` (see
    :class:`LitemsetResult`). A run with neither counts pass 2 at the
    support threshold (see :func:`~repro.core.counting.pair_floor`).
    """
    threshold = db.threshold(minsup)
    floor = pair_floor(
        threshold, collect_counts=collect_counts, checkpoint=checkpoint
    )
    item_counts = checkpointed(
        checkpoint, "items", (), lambda: count_item_supports(db)
    )

    def count(candidates: list[Itemset]) -> Mapping[Itemset, int]:
        return checkpointed(
            checkpoint,
            "itemsets",
            candidates,
            lambda: count_itemset_supports(db, candidates),
        )

    def count_pairs(items: list[int]) -> Mapping[Itemset, int]:
        if checkpoint is not None:
            return count(list(combinations(items, 2)))
        return count_item_pairs(
            (customer.events for customer in _iter_customers(db)), items, floor
        )

    return apriori_itemsets(
        item_counts,
        count_pairs,
        count,
        threshold,
        max_length=max_length,
        collect_counts=collect_counts,
    )
