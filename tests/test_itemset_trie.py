"""Tests for the itemset trie."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.itemsets.apriori import ItemsetTrie
from tests import strategies as my


def naive_subsets(stored, transactions):
    """Every stored itemset once per transaction containing it."""
    return sorted(
        itemset
        for transaction in transactions
        for itemset in stored
        if frozenset(transaction).issuperset(itemset)
    )


def trie_of(itemsets):
    """A trie holding each itemset as its own value."""
    return ItemsetTrie((itemset, itemset) for itemset in itemsets)


class TestBasics:
    def test_empty_trie(self):
        assert trie_of([]).subsets_in([(1, 2, 3)]) == []

    def test_insert_and_lookup(self):
        trie = trie_of([(1, 2), (2, 3), (4,)])
        assert sorted(trie.subsets_in([(1, 2, 3)])) == [(1, 2), (2, 3)]
        assert trie.subsets_in([(4, 9)]) == [(4,)]
        assert trie.subsets_in([(9,)]) == []

    def test_empty_transaction(self):
        assert trie_of([(1,)]).subsets_in([()]) == []

    def test_accepts_frozenset_transactions(self):
        assert trie_of([(1, 2)]).subsets_in([frozenset({1, 2, 9})]) == [(1, 2)]

    def test_rejects_empty_itemset(self):
        with pytest.raises(ValueError):
            trie_of([()])

    def test_item_only_below_the_root(self):
        # Not downward closed: 5 and 9 are never first items, so the cut
        # must keep every item the trie holds, not only the root's keys.
        trie = trie_of([(1, 5, 9)])
        assert trie.subsets_in([(1, 5, 9, 12)]) == [(1, 5, 9)]
        assert trie.subsets_in([(1, 9)]) == []


class TestAgainstNaive:
    @given(
        st.lists(my.itemsets(max_item=8, max_size=4), min_size=0, max_size=30),
        st.lists(my.itemsets(max_item=8, max_size=6), min_size=0, max_size=3),
    )
    def test_subsets_match_naive(self, stored, transactions):
        stored = list(dict.fromkeys(stored))
        found = trie_of(stored).subsets_in(transactions)
        assert sorted(found) == naive_subsets(stored, transactions)
