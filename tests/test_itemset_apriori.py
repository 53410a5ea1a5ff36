"""Tests for the litemset phase (customer-support Apriori)."""

from collections import Counter
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.generator import generate_database
from repro.datagen.params import SyntheticParams
from repro.db.database import SequenceDatabase
from repro.itemsets.apriori import (
    count_itemset_supports,
    find_litemsets,
    generate_candidate_itemsets,
)
from tests import strategies as my
from tests.test_database import paper_db


def brute_force_litemsets(db, minsup):
    """Oracle: enumerate all subsets of all transactions, count customers."""
    threshold = db.threshold(minsup)
    universe = set()
    for customer in db:
        for event in customer.events:
            for size in range(1, len(event) + 1):
                universe.update(combinations(event, size))
    supports = {}
    for itemset in universe:
        needed = set(itemset)
        count = sum(
            1
            for customer in db
            if any(needed.issubset(event) for event in customer.events)
        )
        if count >= threshold:
            supports[itemset] = count
    return supports


class TestCandidateGeneration:
    def test_vldb94_example(self):
        # L3 = {123,124,134,135,234} → join {1234,1345}, prune 1345.
        large = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 4)]
        assert generate_candidate_itemsets(large) == [(1, 2, 3, 4)]

    def test_pairs_from_singletons(self):
        assert generate_candidate_itemsets([(1,), (2,), (3,)]) == [
            (1, 2),
            (1, 3),
            (2, 3),
        ]

    def test_empty_input(self):
        assert generate_candidate_itemsets([]) == []

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            generate_candidate_itemsets([(1,), (1, 2)])

    @given(my.databases())
    @settings(max_examples=50)
    def test_candidates_cover_all_large(self, db):
        """Every large k-itemset appears among candidates from L_{k-1}."""
        supports = brute_force_litemsets(db, minsup=0.3)
        by_len = {}
        for itemset in supports:
            by_len.setdefault(len(itemset), set()).add(itemset)
        for k in sorted(by_len):
            if k == 1:
                continue
            candidates = set(generate_candidate_itemsets(sorted(by_len[k - 1])))
            assert by_len[k] <= candidates


class TestCounting:
    def test_counts_per_customer_not_per_transaction(self):
        db = SequenceDatabase.from_sequences([[(1, 2), (1, 2), (1, 2)]])
        counts = count_itemset_supports(db, [(1, 2)])
        assert counts[(1, 2)] == 1

    def test_counts_across_customers(self):
        db = SequenceDatabase.from_sequences([[(1, 2)], [(1,), (2,)], [(1, 2, 3)]])
        counts = count_itemset_supports(db, [(1, 2)])
        assert counts[(1, 2)] == 2  # customer 2 never has both together

    def test_empty_candidates(self):
        assert count_itemset_supports(paper_db(), []) == {}


def join_and_prune(large_prev):
    """Oracle: the textbook Apriori join of every two (k−1)-itemsets
    sharing their first k−2 items, then the subset prune."""
    prev = sorted(set(large_prev))
    prev_set = set(prev)
    candidates = []
    for i, first in enumerate(prev):
        for second in prev[i + 1 :]:
            if first[:-1] != second[:-1]:
                continue
            candidate = first + (second[-1],)
            if all(
                candidate[:drop] + candidate[drop + 1 :] in prev_set
                for drop in range(len(candidate))
            ):
                candidates.append(candidate)
    return sorted(candidates)


def brute_force_counts(db, candidates):
    """Oracle: per-customer containment of each candidate, zeros dropped."""
    customers = [[frozenset(event) for event in c.events] for c in db]
    counts = {}
    for candidate in set(candidates):
        needed = frozenset(candidate)
        count = sum(
            1 for events in customers if any(needed <= event for event in events)
        )
        if count:
            counts[candidate] = count
    return counts


#: Items 1..5 occur in the databases below; 6..8 never do.
UNIVERSE = range(1, 9)


@st.composite
def counting_cases(draw):
    """A database with one of the three candidate lists the counter
    sees: all pairs of some items (a ``find_litemsets`` pass 2), any
    pair subset over items that may never occur (the incremental
    cached/new split), or a mixed-length list (the trie path)."""
    db = draw(my.databases(max_event_size=4))
    kind = draw(st.sampled_from(["all_pairs", "pair_subset", "mixed"]))
    if kind == "all_pairs":
        items = draw(st.sets(st.sampled_from(UNIVERSE), min_size=2))
        candidates = generate_candidate_itemsets([(i,) for i in items])
    elif kind == "pair_subset":
        pairs = list(combinations(UNIVERSE, 2))
        candidates = draw(st.lists(st.sampled_from(pairs), unique=True))
    else:
        candidates = draw(
            st.lists(my.itemsets(max_item=8, max_size=4), unique=True)
        )
    return db, candidates


class TestPairCounting:
    """Pass 2 counts pairs directly; every other list uses the trie.
    Both return one entry per contained candidate, nothing else."""

    @given(counting_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_tree_and_brute_force(self, case):
        db, candidates = case
        counts = count_itemset_supports(db, candidates)
        assert isinstance(counts, Counter)
        assert dict(counts) == brute_force_counts(db, candidates)
        assert set(counts) <= set(candidates)
        assert all(n > 0 for n in counts.values())

    def test_pairs_over_absent_items_have_no_entries(self):
        db = SequenceDatabase.from_sequences([[(1, 2)], [(1, 2, 3)]])
        counts = count_itemset_supports(db, [(1, 2), (1, 9), (2, 3), (8, 9)])
        assert counts == Counter({(1, 2): 2, (2, 3): 1})

    def test_non_candidate_pairs_are_not_returned(self):
        # (1, 3) and (2, 3) occur, but only (1, 2) was asked for.
        db = SequenceDatabase.from_sequences([[(1, 2, 3)]])
        assert count_itemset_supports(db, [(1, 2)]) == Counter({(1, 2): 1})

    def test_synthetic_database_matches_tree(self):
        db = generate_database(
            SyntheticParams.from_name("C10-T2.5-S4-I1.25", num_customers=60),
            seed=3,
        )
        items = sorted({item for c in db for e in c.events for item in e})
        candidates = generate_candidate_itemsets([(i,) for i in items[::5]])
        counts = count_itemset_supports(db, candidates)
        assert counts
        assert dict(counts) == brute_force_counts(db, candidates)


class TestPairGeneration:
    @given(st.lists(st.integers(min_value=0, max_value=30)))
    def test_pairs_equal_join_and_prune(self, items):
        singletons = [(i,) for i in items]
        assert generate_candidate_itemsets(singletons) == join_and_prune(
            singletons
        )

    @given(st.lists(my.itemsets(max_item=7, max_size=2), unique=True))
    def test_triples_equal_join_and_prune(self, itemsets):
        pairs = [s for s in itemsets if len(s) == 2]
        assert generate_candidate_itemsets(pairs) == join_and_prune(pairs)


class TestFindLitemsets:
    def test_paper_example(self):
        """The paper's Figure: litemsets at 25% are (30),(40),(70),(40 70),(90)."""
        result = find_litemsets(paper_db(), minsup=0.25)
        assert set(result.itemsets()) == {(30,), (40,), (70,), (40, 70), (90,)}
        assert result.supports[(30,)] == 4
        assert result.supports[(40,)] == 2
        assert result.supports[(70,)] == 3
        assert result.supports[(40, 70)] == 2
        assert result.supports[(90,)] == 3

    def test_itemsets_sorted_deterministically(self):
        result = find_litemsets(paper_db(), minsup=0.25)
        ordered = result.itemsets()
        assert ordered == sorted(ordered, key=lambda s: (len(s), s))

    def test_full_support_threshold(self):
        db = SequenceDatabase.from_sequences([[(1, 2)], [(1, 2)], [(1, 3)]])
        result = find_litemsets(db, minsup=1.0)
        assert set(result.itemsets()) == {(1,)}

    def test_max_length_cap(self):
        db = SequenceDatabase.from_sequences([[(1, 2, 3)], [(1, 2, 3)]])
        result = find_litemsets(db, minsup=0.5, max_length=2)
        assert max(len(s) for s in result.itemsets()) == 2

    def test_empty_database(self):
        result = find_litemsets(SequenceDatabase([]), minsup=0.5)
        assert len(result) == 0

    def test_pass_stats_recorded(self):
        result = find_litemsets(paper_db(), minsup=0.25)
        assert result.passes[0].length == 1
        assert result.passes[0].num_large == 5 - 1  # (30),(40),(70),(90)
        assert any(p.length == 2 for p in result.passes)

    @given(my.databases(), my.minsups())
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce(self, db, minsup):
        result = find_litemsets(db, minsup)
        assert dict(result.supports) == brute_force_litemsets(db, minsup)
