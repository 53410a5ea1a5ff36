"""Property and unit tests for the pattern-serving index.

The load-bearing property: :meth:`PatternIndex.match` is byte-identical
to brute-force filtering of the pattern set with the paper's
``sequence_contains`` relation, and :meth:`PatternIndex.predict_next`
to the brute-force enumeration of (contained prefix → next event)
pairs. Both are fuzzed over the shared generators in
``tests/strategies.py`` plus hand-picked itemset-element edge cases
(multi-item events, repeated events, empty query, subsequence-not-
substring semantics).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sequence import Sequence, sequence_contains
from repro.datagen.generator import generate_database
from repro.datagen.params import SyntheticParams
from repro.io.patterns import write_patterns
from repro.miner import MiningParams, Pattern, mine
from repro.serving.index import (
    PatternIndex,
    Prediction,
    canonical_query,
    parse_query,
)
from tests.strategies import event_lists, itemsets, sequences

#: Denominator for generated supports: support == count / CUSTOMERS, as
#: in any real mined file. This keeps count ties support ties too, so
#: the ranking tie-break is fully determined by the event order.
CUSTOMERS = 16


def make_patterns(seqs: list[Sequence], counts: list[int]) -> list[Pattern]:
    return [
        Pattern(sequence=seq, count=count, support=count / CUSTOMERS)
        for seq, count in zip(seqs, counts)
    ]


def pattern_sets() -> st.SearchStrategy[list[Pattern]]:
    unique_seqs = st.lists(
        sequences(), min_size=0, max_size=12, unique_by=lambda s: s.events
    )
    return unique_seqs.flatmap(
        lambda seqs: st.lists(
            st.integers(min_value=1, max_value=CUSTOMERS),
            min_size=len(seqs),
            max_size=len(seqs),
        ).map(lambda counts: make_patterns(seqs, counts))
    )


def queries() -> st.SearchStrategy[list[tuple[int, ...]]]:
    return st.lists(itemsets(), min_size=0, max_size=5)


def brute_match(patterns: list[Pattern], query: list[tuple[int, ...]]) -> list[Pattern]:
    events = canonical_query(query)
    matched = [
        p for p in patterns if sequence_contains(events, p.sequence.frozen_events())
    ]
    matched.sort(key=lambda p: p.sequence.sort_key())
    return matched


def brute_predict(
    patterns: list[Pattern], query: list[tuple[int, ...]], k: int
) -> list[Prediction]:
    events = canonical_query(query)
    best: dict[tuple[int, ...], tuple[int, float]] = {}
    for p in patterns:
        pattern_events = p.sequence.events
        for i in range(len(pattern_events)):
            prefix = [frozenset(e) for e in pattern_events[:i]]
            if sequence_contains(events, prefix):
                label = pattern_events[i]
                current = best.get(label)
                if current is None or p.count > current[0]:
                    best[label] = (p.count, p.support)
    ranked = sorted(best.items(), key=lambda kv: (-kv[1][0], kv[0]))
    return [
        Prediction(event=label, count=count, support=support)
        for label, (count, support) in ranked[:k]
    ]


class TestMatchEquivalence:
    @given(patterns=pattern_sets(), query=queries())
    @settings(max_examples=200)
    def test_match_equals_bruteforce_postfilter(self, patterns, query):
        index = PatternIndex(patterns)
        assert index.match(query) == brute_match(patterns, query)

    @given(patterns=pattern_sets(), query=queries(), k=st.integers(0, 8))
    @settings(max_examples=200)
    def test_predict_equals_bruteforce(self, patterns, query, k):
        index = PatternIndex(patterns)
        assert index.predict_next(query, k) == brute_predict(patterns, query, k)

    @given(container=event_lists(), )
    def test_every_pattern_matches_its_own_container(self, container):
        pattern = Pattern(
            sequence=Sequence(container), count=1, support=1 / CUSTOMERS
        )
        index = PatternIndex([pattern])
        assert index.match(container) == [pattern]


class TestItemsetEdgeCases:
    def one(self, events, count=2):
        return Pattern(
            sequence=Sequence(events), count=count, support=count / CUSTOMERS
        )

    def test_multi_item_event_matches_superset_event(self):
        index = PatternIndex([self.one([(40, 70)])])
        assert len(index.match([(40, 60, 70)])) == 1
        # Subset must live in ONE query event, never straddle two.
        assert index.match([(40,), (70,)]) == []

    def test_repeated_events_need_distinct_positions(self):
        index = PatternIndex([self.one([(1,), (1,)])])
        assert index.match([(1,)]) == []
        assert len(index.match([(1,), (1,)])) == 1
        # The same query event may not be consumed twice.
        assert index.match([(1, 2)]) == []

    def test_subsequence_not_substring(self):
        index = PatternIndex([self.one([(1,), (3,)])])
        # Intervening events are skippable: subsequence, not substring.
        assert len(index.match([(1,), (2,), (3,)])) == 1

    def test_empty_query(self):
        patterns = [self.one([(1,)], count=3), self.one([(2,), (3,)], count=5)]
        index = PatternIndex(patterns)
        assert index.match([]) == []
        # Predictions from an empty history rank pattern openings.
        predictions = index.predict_next([], 10)
        assert [p.event for p in predictions] == [(2,), (1,)]
        assert predictions[0].count == 5

    def test_predict_k_zero_and_overshoot(self):
        index = PatternIndex([self.one([(1,), (2,)])])
        assert index.predict_next([], 0) == []
        assert len(index.predict_next([], 99)) == 1

    def test_predict_rejects_negative_k(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            PatternIndex([]).predict_next([], -1)

    def test_prediction_scores_are_subtree_best(self):
        # After <(1)>, both patterns continue with (2); the candidate
        # must carry the best support behind that edge (count 7).
        patterns = [
            self.one([(1,), (2,)], count=7),
            self.one([(1,), (2,), (3,)], count=4),
        ]
        index = PatternIndex(patterns)
        predictions = index.predict_next([(1,)], 5)
        by_event = {p.event: p for p in predictions}
        assert by_event[(2,)].count == 7

    def test_duplicate_pattern_rejected(self):
        pattern = self.one([(1,)])
        with pytest.raises(ValueError, match="duplicate pattern"):
            PatternIndex([pattern, pattern])

    def test_patterns_iterates_everything(self):
        patterns = [self.one([(1,)]), self.one([(1,), (2,)]), self.one([(3,)])]
        index = PatternIndex(patterns)
        assert sorted(index.patterns(), key=lambda p: p.sequence.sort_key()) == sorted(
            patterns, key=lambda p: p.sequence.sort_key()
        )
        assert index.num_patterns == 3
        assert index.max_pattern_length == 2
        # Shared prefix (1) counted once: root + (1) + (2) + (3).
        assert index.num_nodes == 4


class TestItemKeyedEdges:
    """Edges are looked up by their label's smallest item; the subset test
    still decides, and a label reached from several active nodes keeps
    its best count (the first activated node on a tie)."""

    def one(self, events, count, support=None):
        support = count / CUSTOMERS if support is None else support
        return Pattern(sequence=Sequence(events), count=count, support=support)

    def test_same_label_from_two_active_nodes_takes_the_best(self):
        patterns = [self.one([(1,), (5,)], 3), self.one([(2,), (5,)], 7)]
        index = PatternIndex(patterns)
        for query in ([(1,), (2,)], [(2,), (1,)]):
            predictions = index.predict_next(query, 5)
            assert predictions == brute_predict(patterns, query, 5)
            assert [(p.event, p.count) for p in predictions] == [
                ((2,), 7), ((5,), 7), ((1,), 3)
            ]

    def test_equal_counts_go_to_the_first_activated_node(self):
        # Supports that are not count / customers tell the two edges apart.
        index = PatternIndex([
            self.one([(1,), (5,)], 4, support=0.25),
            self.one([(2,), (5,)], 4, support=0.75),
        ])
        for query, support in (([(1,), (2,)], 0.25), ([(2,), (1,)], 0.75)):
            by_event = {p.event: p for p in index.predict_next(query, 5)}
            assert (by_event[(5,)].count, by_event[(5,)].support) == (4, support)

    def test_multi_item_label_needs_every_item(self):
        patterns = [self.one([(1, 3)], 2), self.one([(1,), (2, 5)], 3)]
        index = PatternIndex(patterns)
        for query, matched in (
            ([(1, 2)], 0),  # smallest item 1 present, 3 absent
            ([(3, 4)], 0),  # 3 present, smallest item 1 absent
            ([(1,), (2, 9)], 0),
            ([(1, 3)], 1),
            ([(1,), (2, 5, 9)], 1),
            ([(1, 2, 3), (2, 5)], 2),
        ):
            assert index.match(query) == brute_match(patterns, query)
            assert len(index.match(query)) == matched
            assert index.predict_next(query, 5) == brute_predict(patterns, query, 5)

    def test_query_event_with_many_items(self):
        rng = random.Random(7)
        unique = {
            tuple(
                tuple(sorted(rng.sample(range(1, 61), rng.randint(1, 3))))
                for _ in range(rng.randint(1, 3))
            )
            for _ in range(300)
        }
        patterns = [
            self.one(list(events), rng.randint(1, CUSTOMERS))
            for events in sorted(unique)
        ]
        index = PatternIndex(patterns)
        wide = tuple(item for item in range(1, 61) if item % 7)
        for query in ([wide], [wide, wide], [wide, tuple(range(1, 61)), wide]):
            assert index.match(query) == brute_match(patterns, query)
            assert index.predict_next(query, 50) == brute_predict(patterns, query, 50)


class TestBenchScaleDifferential:
    """The serve-mixed scale: 2,000 customers of C10-T2.5-S4-I1.25
    (generator seed 0) mined at minsup 0.01 give about 2,900 patterns and
    a root of about 800 edges. Every prefix of 20 held-out customers
    (generator seed 1), and the empty query, is answered as the brute
    force answers it."""

    DATASET = "C10-T2.5-S4-I1.25"
    KS = (0, 1, 5, 50)

    @pytest.fixture(scope="class")
    def mined(self):
        base = generate_database(
            SyntheticParams.from_name(self.DATASET, num_customers=2000), seed=0
        )
        patterns = mine(base, MiningParams(minsup=0.01)).patterns
        held_out = generate_database(
            SyntheticParams.from_name(self.DATASET, num_customers=20), seed=1
        )
        queries = [()] + [
            customer.events[:end]
            for customer in held_out
            for end in range(1, len(customer.events) + 1)
        ]
        return patterns, PatternIndex(patterns), queries

    def test_scale(self, mined):
        patterns, index, queries = mined
        assert len(patterns) > 2500
        assert len(index._root.children) > 500
        assert len(queries) > 150

    def test_match_equals_bruteforce(self, mined):
        patterns, index, queries = mined
        assert sum(len(index.match(query)) for query in queries) > 0
        for query in queries:
            assert index.match(query) == brute_match(patterns, query), query

    def test_predict_equals_bruteforce(self, mined):
        patterns, index, queries = mined
        for query in queries:
            expected = brute_predict(patterns, query, max(self.KS))
            for k in self.KS:
                assert index.predict_next(query, k) == expected[:k], (query, k)


class TestQueryParsing:
    def test_parse_query_empty(self):
        assert parse_query("<>") == ()
        assert parse_query("  <>  ") == ()

    def test_parse_query_events(self):
        assert parse_query("<(30)(40 70)>") == (
            frozenset({30}),
            frozenset({40, 70}),
        )

    def test_parse_query_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_query("30 40")

    def test_canonical_query_rejects_empty_event(self):
        with pytest.raises(ValueError):
            canonical_query([[1], []])


class TestFromFile:
    def test_from_file_roundtrip(self, tmp_path):
        patterns = [
            Pattern(sequence=Sequence([(30,), (40, 70)]), count=2, support=0.4),
            Pattern(sequence=Sequence([(30,), (90,)]), count=2, support=0.4),
        ]
        path = tmp_path / "patterns.txt"
        write_patterns(patterns, path)
        index = PatternIndex.from_file(path)
        assert index.num_patterns == 2
        assert index.match([(30,), (40, 70), (90,)]) == sorted(
            patterns, key=lambda p: p.sequence.sort_key()
        )

    def test_from_file_requires_versioned_header(self, tmp_path):
        path = tmp_path / "legacy.txt"
        path.write_text("<(1)> #SUP: 2 #FREQ: 0.5\n")
        with pytest.raises(ValueError, match="header"):
            PatternIndex.from_file(path)
