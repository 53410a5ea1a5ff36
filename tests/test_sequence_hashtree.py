"""Tests for the sequence hash tree and the counting engines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import count_candidates_naive
from repro.core import counting
from repro.core.candidates import apriori_generate
from repro.core.counting import (
    COUNTING_STRATEGIES,
    count_candidates,
    count_length2,
    filter_large,
)
from repro.core.hashtree import SequenceHashTree
from repro.core.sequence import OccurrenceIndex, id_sequence_contains
from repro.core.vertical import ensure_vertical
from repro.datagen.generator import generate_database
from repro.datagen.params import SyntheticParams
from repro.db.partitioned import PartitionedDatabase
from repro.db.transform import transform_database
from repro.itemsets.apriori import find_litemsets
from repro.itemsets.litemsets import LitemsetCatalog
from tests import strategies as my


def naive_contained(candidates, events):
    return {c for c in candidates if id_sequence_contains(c, events)}


def events_of(*ids_per_event):
    return tuple(frozenset(ids) for ids in ids_per_event)


class TestTreeBasics:
    def test_empty(self):
        tree = SequenceHashTree()
        assert len(tree) == 0
        assert tree.sequence_length is None
        events = (frozenset({1}),)
        assert tree.contained_in(OccurrenceIndex(events)) == set()

    def test_insert_and_lookup(self):
        tree = SequenceHashTree([(1, 2), (2, 1), (1, 1)])
        events = (frozenset({1}), frozenset({2}))
        assert tree.contained_in(OccurrenceIndex(events)) == {(1, 2)}

    def test_rejects_mixed_lengths(self):
        tree = SequenceHashTree([(1, 2)])
        with pytest.raises(ValueError):
            tree.insert((1, 2, 3))

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError):
            SequenceHashTree([()])

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            SequenceHashTree(leaf_capacity=0)
        with pytest.raises(ValueError):
            SequenceHashTree(branch_factor=1)

    def test_iter_returns_all(self):
        candidates = [(i, j) for i in range(1, 8) for j in range(1, 8)]
        tree = SequenceHashTree(candidates, leaf_capacity=2, branch_factor=3)
        assert sorted(tree) == sorted(candidates)

    def test_split_depth_capped_at_length(self):
        # Ten identical-hash 1-sequences cannot split below depth 1.
        tree = SequenceHashTree(
            [(i * 5,) for i in range(1, 11)], leaf_capacity=2, branch_factor=5
        )
        events = (frozenset({5, 10}),)
        assert tree.contained_in(OccurrenceIndex(events)) == {(5,), (10,)}

    def test_all_colliding_bucket_stays_one_leaf(self):
        # Every id ≡ 0 (mod 5) at every depth: no split can spread the
        # bucket, so the root must stay a single (over-full) leaf instead
        # of growing a chain of single-child nodes.
        candidates = [(5, 10), (10, 5), (15, 20), (20, 15)]
        tree = SequenceHashTree(candidates, leaf_capacity=2, branch_factor=5)
        assert tree._root.is_leaf
        assert sorted(tree._root.bucket) == sorted(candidates)
        events = (frozenset({5, 15}), frozenset({10, 20}))
        assert tree.contained_in(OccurrenceIndex(events)) == {(5, 10), (15, 20)}

    def test_bucket_spreading_only_at_deeper_depth_still_splits(self):
        # Colliding at depth 0 (all ≡ 0 mod 5) but spreading at depth 1:
        # the split must pass through the colliding level and separate
        # the bucket below it.
        candidates = [(5, 1), (10, 2), (15, 3), (20, 4)]
        tree = SequenceHashTree(candidates, leaf_capacity=2, branch_factor=5)
        assert not tree._root.is_leaf
        (child,) = tree._root.children.values()
        assert not child.is_leaf and len(child.children) == 4
        events = (frozenset({10}), frozenset({2}))
        assert tree.contained_in(OccurrenceIndex(events)) == {(10, 2)}

    def test_late_insert_can_unlock_a_split(self):
        # Three colliding candidates keep the root a leaf; a fourth that
        # hashes differently makes the bucket spreadable again.
        tree = SequenceHashTree(leaf_capacity=2, branch_factor=5)
        for candidate in [(5, 5), (10, 10), (15, 15)]:
            tree.insert(candidate)
        assert tree._root.is_leaf
        tree.insert((7, 5))
        assert not tree._root.is_leaf
        events = (frozenset({5, 7}), frozenset({5}))
        assert tree.contained_in(OccurrenceIndex(events)) == {(5, 5), (7, 5)}

    @given(
        st.sets(my.id_sequences(max_id=12, max_length=3), max_size=60),
        st.integers(1, 2),
        st.integers(2, 3),
    )
    @settings(max_examples=60)
    def test_over_capacity_leaves_only_where_unspreadable(self, candidates, leaf, branch):
        """Every over-capacity leaf holds a bucket no split could spread;
        iteration still returns every candidate exactly once."""
        candidates = {c for c in candidates if len(c) == 3}
        tree = SequenceHashTree(candidates, leaf_capacity=leaf, branch_factor=branch)
        assert sorted(tree) == sorted(candidates)

        def walk(node, depth):
            if node.is_leaf:
                if len(node.bucket) > leaf:
                    assert not tree._can_spread(node.bucket, depth)
                return
            for child in node.children.values():
                walk(child, depth + 1)

        walk(tree._root, 0)

    def test_hash_collisions_verified_exactly(self):
        # ids 1 and 4 collide mod 3; (4, 2) must not be reported for a
        # customer containing only 1-then-2.
        tree = SequenceHashTree([(1, 2), (4, 2)], branch_factor=3, leaf_capacity=1)
        events = (frozenset({1}), frozenset({2}))
        assert tree.contained_in(OccurrenceIndex(events)) == {(1, 2)}

    def test_position_constraint_respected(self):
        # (2, 1) requires a 1 strictly after a 2.
        tree = SequenceHashTree([(2, 1)])
        assert tree.contained_in(
            OccurrenceIndex((frozenset({1}), frozenset({2})))
        ) == set()
        assert tree.contained_in(
            OccurrenceIndex((frozenset({2}), frozenset({1}),))
        ) == {(2, 1)}

    @given(
        st.sets(my.id_sequences(max_id=6, max_length=3), max_size=40),
        my.id_event_sequences(max_id=6),
        st.integers(1, 3),
        st.integers(2, 5),
    )
    @settings(max_examples=100)
    def test_matches_naive_filtering(self, candidates, events, leaf, branch):
        candidates = {c for c in candidates if len(c) == 3}
        tree = SequenceHashTree(candidates, leaf_capacity=leaf, branch_factor=branch)
        index = OccurrenceIndex(events)
        assert tree.contained_in(index) == naive_contained(candidates, events)


class TestCounting:
    def test_counts_customers_once(self):
        sequences = [
            (frozenset({1}), frozenset({2}), frozenset({1}), frozenset({2})),
            (frozenset({1}),),
        ]
        counts = count_candidates(sequences, [(1, 2), (2, 2), (2, 1, 2)])
        assert counts == {(1, 2): 1, (2, 2): 1, (2, 1, 2): 1}

    def test_empty_candidates(self):
        assert count_candidates([], []) == {}

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            count_candidates([], [(1,)], strategy="bogus")

    def test_filter_large(self):
        counts = {(1,): 3, (2,): 1}
        assert filter_large(counts, 2) == {(1,): 3}

    @given(
        st.lists(my.id_event_sequences(max_id=5), max_size=6),
        st.sets(my.id_sequences(max_id=5, max_length=2), max_size=25),
    )
    @settings(max_examples=80)
    def test_strategies_agree(self, sequences, candidates):
        candidates = {c for c in candidates if len(c) == 2}
        slow = count_candidates_naive(sequences, candidates)
        for strategy in COUNTING_STRATEGIES:
            assert count_candidates(sequences, candidates, strategy=strategy) == slow


    def test_customer_short_of_candidate_ids_is_skipped(self, monkeypatch):
        # The second customer has five events but only two hold a
        # candidate id, fewer than the candidates' length 3: it is never
        # probed, and the counts are those of the first customer alone.
        sequences = [
            events_of({1}, {2}, {3, 9}),
            events_of({1}, {7}, {2, 8}, {8}, {9}),
        ]
        candidates = [(1, 2, 3), (2, 3, 1)]
        indexed = []

        def spy(kept):
            indexed.append(kept)
            return OccurrenceIndex(kept)

        monkeypatch.setattr(counting, "OccurrenceIndex", spy)
        counts = count_candidates(sequences, candidates)
        # One customer probed, its index over candidate ids only.
        assert indexed == [[frozenset({1}), frozenset({2}), frozenset({3})]]
        assert counts == {(1, 2, 3): 1, (2, 3, 1): 0}
        assert counts == count_candidates(sequences[:1], candidates)


class TestBenchScaleDifferential:
    """Every pass k >= 3 of AprioriAll on 1,000 customers of
    C10-T2.5-S4-I1.25 (generator seed 0) at minsup 0.0125 — thousands of
    candidates over long customers — gets the same full count dict from
    the hash tree and from the vertical strategy, in memory and
    partitioned, and from a tree shape where every bucket collides."""

    MINSUP = 0.0125

    @pytest.fixture(scope="class")
    def setup(self, tmp_path_factory):
        params = SyntheticParams.from_name("C10-T2.5-S4-I1.25", num_customers=1000)
        db = generate_database(params, seed=0)
        catalog = LitemsetCatalog.from_result(find_litemsets(db, self.MINSUP))
        sequences = list(transform_database(db, catalog).sequences)
        pdb = PartitionedDatabase.from_database(
            db, tmp_path_factory.mktemp("parts"), partitions=4
        )
        partitioned = transform_database(pdb, catalog).sequences
        return sequences, partitioned, db.threshold(self.MINSUP)

    def test_every_pass_agrees(self, setup):
        sequences, partitioned, threshold = setup
        vertical = ensure_vertical(sequences)
        head = sequences[:200]
        large = filter_large(count_length2(sequences), threshold)
        sizes = []
        while large:
            candidates = apriori_generate(sorted(large))
            if not candidates:
                break
            counts = count_candidates(sequences, candidates)
            assert len(counts) == len(candidates)
            assert count_candidates(vertical, candidates, strategy="vertical") == counts
            assert count_candidates(partitioned, candidates) == counts
            assert (
                count_candidates(partitioned, candidates, strategy="vertical")
                == counts
            )
            tiny = SequenceHashTree(candidates, leaf_capacity=1, branch_factor=2)
            tiny_counts = dict.fromkeys(candidates, 0)
            for events in head:
                for candidate in tiny.contained_in(OccurrenceIndex(events)):
                    tiny_counts[candidate] += 1
            assert tiny_counts == count_candidates(head, candidates)
            sizes.append(len(candidates))
            large = filter_large(counts, threshold)
        assert sizes == [3996, 1206, 31]


class TestCountLength2:
    def test_simple(self):
        sequences = [
            (frozenset({1}), frozenset({2})),
            (frozenset({1, 2}), frozenset({2})),
        ]
        counts = count_length2(sequences)
        assert counts == {(1, 2): 2, (2, 2): 1}

    def test_within_event_pairs_not_counted(self):
        counts = count_length2([(frozenset({1, 2}),)])
        assert counts == {}

    def test_self_pairs(self):
        counts = count_length2([(frozenset({3}), frozenset({3}))])
        assert counts == {(3, 3): 1}

    @given(st.lists(my.id_event_sequences(max_id=5), max_size=6))
    @settings(max_examples=80)
    def test_matches_generic_engine_over_all_pairs(self, sequences):
        """The fast path must agree with the generic engine on the fully
        materialized C_2 (all ordered id pairs)."""
        alphabet = sorted({i for seq in sequences for ev in seq for i in ev})
        all_pairs = [(a, b) for a in alphabet for b in alphabet]
        generic = count_candidates_naive(sequences, all_pairs)
        fast = count_length2(sequences)
        for pair in all_pairs:
            assert fast.get(pair, 0) == generic[pair]
        assert set(fast) <= set(all_pairs)
