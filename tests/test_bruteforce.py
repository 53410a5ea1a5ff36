"""Self-checks for the brute-force oracle (the oracle must be right)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import (
    BruteForceLimitError,
    brute_force_mine,
    enumerate_contained_sequences,
    maximal_sequences_naive,
    nonempty_subsets,
)
from repro.core.sequence import Sequence, sequence_contains
from repro.db.database import SequenceDatabase
from tests import strategies as my
from tests.test_database import paper_db


class TestNonemptySubsets:
    def test_singleton(self):
        assert nonempty_subsets((1,)) == [(1,)]

    def test_pair(self):
        assert sorted(nonempty_subsets((1, 2))) == [(1,), (1, 2), (2,)]

    def test_count_is_2n_minus_1(self):
        assert len(nonempty_subsets((1, 2, 3, 4))) == 15


class TestEnumeration:
    def test_single_event(self):
        found = enumerate_contained_sequences(((1, 2),))
        assert found == {
            (frozenset({1}),),
            (frozenset({2}),),
            (frozenset({1, 2}),),
        }

    def test_two_events_counts(self):
        # 3 subsets per (1,2)-event; sequences: 3 + 1 + 3*1 single/pairs...
        found = enumerate_contained_sequences(((1, 2), (3,)))
        singles = {s for s in found if len(s) == 1}
        pairs = {s for s in found if len(s) == 2}
        assert len(singles) == 4  # {1},{2},{1,2},{3}
        assert len(pairs) == 3  # each subset of (1,2) followed by {3}

    def test_every_enumerated_sequence_is_contained(self):
        events = ((1, 2), (2, 3), (1,))
        for pattern in enumerate_contained_sequences(events):
            assert sequence_contains(events, pattern)

    def test_max_pattern_length(self):
        found = enumerate_contained_sequences(((1,), (2,), (3,)), max_pattern_length=2)
        assert max(len(s) for s in found) == 2

    def test_limit_enforced(self):
        with pytest.raises(BruteForceLimitError):
            enumerate_contained_sequences(
                tuple((i, i + 1, i + 2, i + 3) for i in range(8)), limit=50
            )


class TestBruteForceMine:
    def test_paper_golden_answer(self):
        results = brute_force_mine(paper_db(), minsup=0.25)
        assert [(str(s), c) for s, c in results] == [
            ("<(30)(40 70)>", 2),
            ("<(30)(90)>", 2),
        ]

    def test_minsup_one(self):
        db = SequenceDatabase.from_sequences([[(1,), (2,)], [(1,), (2,)]])
        results = brute_force_mine(db, minsup=1.0)
        assert [(str(s), c) for s, c in results] == [("<(1)(2)>", 2)]

    def test_single_customer(self):
        db = SequenceDatabase.from_sequences([[(1, 2), (3,)]])
        results = brute_force_mine(db, minsup=1.0)
        assert [(str(s), c) for s, c in results] == [("<(1 2)(3)>", 1)]

    def test_respects_max_pattern_length(self):
        db = SequenceDatabase.from_sequences([[(1,), (2,), (3,)]])
        results = brute_force_mine(db, minsup=1.0, max_pattern_length=2)
        assert all(s.length <= 2 for s, _ in results)

    def test_empty_db(self):
        assert brute_force_mine(SequenceDatabase([]), minsup=0.5) == []

    def test_supports_are_exact(self):
        db = paper_db()
        for seq, count in brute_force_mine(db, minsup=0.25):
            assert db.support_count(seq) == count


def _quadratic_maximal(supported):
    """The definition: a key is maximal iff no other key contains it."""
    return {
        pattern: count
        for pattern, count in supported.items()
        if not any(
            other != pattern and sequence_contains(other, pattern)
            for other in supported
        )
    }


class TestMaximalNaive:
    """The walk over kept maximal keys is the quadratic definition."""

    @given(
        st.dictionaries(
            my.sequences(max_item=4, max_events=3).map(
                lambda s: tuple(frozenset(event) for event in s.events)
            ),
            st.integers(1, 10),
            max_size=14,
        )
    )
    @settings(max_examples=100)
    def test_matches_quadratic_definition(self, supported):
        walked = maximal_sequences_naive(supported)
        expected = _quadratic_maximal(supported)
        assert walked == expected
        assert list(walked) == list(expected)  # the input's key order

    def test_chain_keeps_only_the_top(self):
        a, b, c = frozenset({1}), frozenset({1, 2}), frozenset({3})
        supported = {(a,): 5, (a, c): 4, (b, c): 3, (c,): 6}
        assert maximal_sequences_naive(supported) == {(b, c): 3}
