"""Tests for the time-constraints extension (the paper's future work)."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines.bruteforce import enumerate_contained_sequences
from repro.core.sequence import Sequence, sequence_contains
from repro.db.records import Transaction
from repro.extensions import timeconstraints
from repro.extensions.timeconstraints import (
    CompiledTimedSequence,
    TimeConstraints,
    build_timed_sequences,
    contains_timed,
    find_windowed_litemsets,
    mine_time_constrained,
    window_matches,
)
from tests import strategies as my


def rows(*triples):
    return [Transaction(c, t, items) for c, t, items in triples]


def timed(*pairs):
    return tuple((t, frozenset(items)) for t, items in pairs)


class TestConstraintsValidation:
    def test_defaults_unconstrained(self):
        assert TimeConstraints().unconstrained

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_gap": -1},
            {"window_size": -1},
            {"max_gap": 0},
            {"max_gap": -5},
            {"min_gap": 3, "max_gap": 3},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TimeConstraints(**kwargs)


class TestBuildTimedSequences:
    def test_sorts_and_merges(self):
        sequences = build_timed_sequences(
            rows((1, 20, (3,)), (1, 10, (1,)), (1, 10, (2,)), (2, 5, (9,)))
        )
        assert sequences == [
            timed((10, {1, 2}), (20, {3})),
            timed((5, {9})),
        ]


class TestWindowMatches:
    def test_single_transaction(self):
        events = timed((10, {1, 2}), (20, {3}))
        assert window_matches(events, frozenset({1}), 0) == [(10, 10)]
        assert window_matches(events, frozenset({3}), 0) == [(20, 20)]
        assert window_matches(events, frozenset({1, 3}), 0) == []

    def test_window_unions_split_itemset(self):
        events = timed((10, {1}), (12, {2}), (30, {1, 2}))
        # window 2: {1,2} matched by transactions 10+12 or alone at 30.
        assert window_matches(events, frozenset({1, 2}), 2) == [(10, 12), (30, 30)]
        # window 1: only the single transaction at 30 works.
        assert window_matches(events, frozenset({1, 2}), 1) == [(30, 30)]

    def test_minimal_end_reported(self):
        events = timed((10, {1}), (11, {2}), (12, {2}))
        assert window_matches(events, frozenset({1, 2}), 5) == [(10, 11)]


class TestContainsTimed:
    EVENTS = timed((10, {1}), (20, {2}), (50, {3}))

    def test_plain_order(self):
        assert contains_timed(self.EVENTS, [frozenset({1}), frozenset({2})],
                              TimeConstraints())
        assert not contains_timed(self.EVENTS, [frozenset({2}), frozenset({1})],
                                  TimeConstraints())

    def test_min_gap(self):
        pattern = [frozenset({1}), frozenset({2})]
        assert contains_timed(self.EVENTS, pattern, TimeConstraints(min_gap=9))
        assert not contains_timed(self.EVENTS, pattern, TimeConstraints(min_gap=10))

    def test_max_gap(self):
        pattern = [frozenset({2}), frozenset({3})]
        assert contains_timed(self.EVENTS, pattern, TimeConstraints(max_gap=30))
        assert not contains_timed(self.EVENTS, pattern, TimeConstraints(max_gap=29))

    def test_max_gap_requires_backtracking(self):
        # Greedy would match {1} at t=10 and then fail max_gap for {2} at
        # t=40; the correct match starts at t=35.
        events = timed((10, {1}), (35, {1}), (40, {2}))
        pattern = [frozenset({1}), frozenset({2})]
        assert contains_timed(events, pattern, TimeConstraints(max_gap=10))

    def test_window_spans_element(self):
        events = timed((10, {1}), (12, {2}), (40, {3}))
        pattern = [frozenset({1, 2}), frozenset({3})]
        assert not contains_timed(events, pattern, TimeConstraints())
        assert contains_timed(events, pattern, TimeConstraints(window_size=2))

    def test_window_with_min_gap_uses_window_end(self):
        events = timed((10, {1}), (12, {2}), (20, {3}))
        pattern = [frozenset({1, 2}), frozenset({3})]
        # Element 1 occupies [10,12]; min_gap counts from its end (12).
        assert contains_timed(events, pattern,
                              TimeConstraints(window_size=2, min_gap=7))
        assert not contains_timed(events, pattern,
                                  TimeConstraints(window_size=2, min_gap=8))

    def test_empty_pattern(self):
        assert contains_timed(self.EVENTS, [], TimeConstraints())


class TestWindowedLitemsets:
    def test_window_zero_is_plain_litemsets(self):
        sequences = [timed((1, {1, 2})), timed((1, {1, 2})), timed((1, {3}))]
        supports = find_windowed_litemsets(sequences, threshold=2, window_size=0)
        assert supports == {(1,): 2, (2,): 2, (1, 2): 2}

    def test_window_recovers_split_itemsets(self):
        sequences = [
            timed((10, {1}), (11, {2})),
            timed((10, {1}), (11, {2})),
        ]
        plain = find_windowed_litemsets(sequences, threshold=2, window_size=0)
        assert (1, 2) not in plain
        windowed = find_windowed_litemsets(sequences, threshold=2, window_size=1)
        assert windowed[(1, 2)] == 2


class TestMineTimeConstrained:
    def test_unconstrained_equals_all_frequent_sequences(self):
        transactions = rows(
            (1, 1, (30,)), (1, 2, (90,)),
            (2, 1, (30,)), (2, 2, (90,)),
            (3, 1, (30,)),
        )
        patterns = mine_time_constrained(transactions, minsup=0.5)
        assert [(str(p.sequence), p.count) for p in patterns] == [
            ("<(30)>", 3),
            ("<(90)>", 2),
            ("<(30)(90)>", 2),
        ]

    def test_max_gap_prunes_slow_customers(self):
        transactions = rows(
            (1, 1, (1,)), (1, 2, (2,)),      # gap 1
            (2, 1, (1,)), (2, 50, (2,)),     # gap 49
        )
        loose = mine_time_constrained(transactions, 0.5)
        tight = mine_time_constrained(transactions, 0.5, TimeConstraints(max_gap=5))
        loose_map = {str(p.sequence): p.count for p in loose}
        tight_map = {str(p.sequence): p.count for p in tight}
        assert loose_map["<(1)(2)>"] == 2
        assert tight_map["<(1)(2)>"] == 1

    def test_min_gap_drops_rapid_rebuys(self):
        transactions = rows(
            (1, 1, (1,)), (1, 2, (1,)),
            (2, 1, (1,)), (2, 10, (1,)),
        )
        constrained = mine_time_constrained(
            transactions, 1.0, TimeConstraints(min_gap=5)
        )
        assert {str(p.sequence) for p in constrained} == {"<(1)>"}

    def test_window_finds_cross_transaction_pattern(self):
        transactions = rows(
            (1, 10, (1,)), (1, 11, (2,)), (1, 30, (9,)),
            (2, 10, (1,)), (2, 11, (2,)), (2, 30, (9,)),
        )
        plain = mine_time_constrained(transactions, 1.0)
        windowed = mine_time_constrained(
            transactions, 1.0, TimeConstraints(window_size=1)
        )
        assert "<(1 2)>" not in {str(p.sequence) for p in plain}
        windowed_map = {str(p.sequence): p.count for p in windowed}
        assert windowed_map["<(1 2)>"] == 2
        assert windowed_map["<(1 2)(9)>"] == 2

    def test_max_pattern_length(self):
        transactions = rows(*[(1, t, (t,)) for t in (1, 2, 3)])
        patterns = mine_time_constrained(
            transactions, 1.0, max_pattern_length=2
        )
        assert max(p.sequence.length for p in patterns) == 2

    def test_empty(self):
        assert mine_time_constrained([], 0.5) == []

    def test_regression_pinned_fixture(self):
        # Pins the exact output (sequences, counts, order) on a small
        # fixture with every constraint kind active, guarding refactors
        # of the mining loop (e.g. the sharded counting path).
        transactions = rows(
            (1, 1, (30,)), (1, 2, (40,)), (1, 4, (70,)), (1, 9, (90,)),
            (2, 1, (30,)), (2, 5, (40, 70)), (2, 6, (90,)),
            (3, 2, (30,)), (3, 3, (70,)), (3, 4, (40,)), (3, 20, (90,)),
        )
        patterns = mine_time_constrained(
            transactions,
            minsup=0.6,
            constraints=TimeConstraints(min_gap=0, max_gap=6, window_size=2),
        )
        # Spot-checks of the pinned values: <(30 40)> needs 30 and 40
        # within one window (customers 1 and 3 only — customer 2 has them
        # 4 time units apart); <(40)(90)> is *absent* because max_gap=6
        # rules out customers 1 (40@2 → 90@9) and 3 (40@4 → 90@20).
        assert [(str(p.sequence), p.count) for p in patterns] == [
            ("<(30)>", 3),
            ("<(30 40)>", 2),
            ("<(40)>", 3),
            ("<(40 70)>", 3),
            ("<(70)>", 3),
            ("<(90)>", 3),
            ("<(30)(40)>", 3),
            ("<(30)(40 70)>", 3),
            ("<(30)(70)>", 3),
            ("<(70)(90)>", 2),
            ("<(30)(70)(90)>", 2),
        ]

    @pytest.mark.parametrize(
        "constraints",
        [
            TimeConstraints(),
            TimeConstraints(max_gap=6),
            TimeConstraints(min_gap=1, window_size=2),
        ],
    )
    def test_parallel_equals_serial(self, constraints):
        transactions = rows(
            (1, 1, (30,)), (1, 2, (40,)), (1, 4, (70,)), (1, 9, (90,)),
            (2, 1, (30,)), (2, 5, (40, 70)), (2, 6, (90,)),
            (3, 2, (30,)), (3, 3, (70,)), (3, 4, (40,)), (3, 20, (90,)),
            (4, 1, (90,)), (4, 2, (30,)),
        )
        serial = mine_time_constrained(transactions, 0.5, constraints)
        parallel = mine_time_constrained(transactions, 0.5, constraints, workers=2)
        three = mine_time_constrained(transactions, 0.5, constraints, workers=3)
        assert parallel == serial
        assert three == serial

    @given(my.databases(max_customers=4, max_events=3, max_item=4))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_unconstrained_matches_bruteforce_frequent_set(self, db):
        """With default constraints the miner must return every frequent
        sequence (not only maximal) with exact supports."""
        from repro.io.csvio import database_to_transactions

        minsup = 0.5
        threshold = db.threshold(minsup)
        candidates = set()
        for customer in db:
            candidates |= enumerate_contained_sequences(customer.events)
        expected = {}
        for pattern in candidates:
            count = sum(
                1 for c in db if sequence_contains(c.events, pattern)
            )
            if count >= threshold:
                sequence = Sequence(tuple(sorted(e)) for e in pattern)
                expected[sequence] = count

        mined = mine_time_constrained(
            list(database_to_transactions(db)), minsup
        )
        got = {p.sequence: p.count for p in mined}
        assert got == expected


class TestCompiledTimedHistories:
    """The timed miner counts on histories compiled once per run."""

    @staticmethod
    def _timed_rows():
        return [
            Transaction(customer_id=cid, transaction_time=when, items=items)
            for cid, history in enumerate([
                [(1, (1,)), (2, (2,)), (3, (3,)), (4, (4,))],
                [(1, (1,)), (3, (2,)), (5, (3,)), (7, (4,))],
            ])
            for when, items in history
        ]

    def test_empty_element_matches_raw_path(self):
        # An empty pattern element matches every transaction in the raw
        # window sweep; the compiled mask path must agree instead of
        # walking bits past the end of the history.
        events = ((1, frozenset({1})), (3, frozenset({2})))
        compiled = CompiledTimedSequence.from_events(events)
        empty = frozenset()
        assert compiled.element_windows(empty, 0) == window_matches(events, empty, 0)
        assert contains_timed(compiled, (empty,), TimeConstraints()) == contains_timed(
            events, (empty,), TimeConstraints()
        )

    def test_mining_compiles_once(self):
        rows = self._timed_rows()
        before = timeconstraints.TIMED_COMPILE_CALLS
        patterns = mine_time_constrained(rows, 0.5)
        assert max(len(p.sequence) for p in patterns) == 4  # multi-pass
        assert timeconstraints.TIMED_COMPILE_CALLS - before == 1

    def test_mining_compiles_once_with_parallel_workers(self):
        # The parent compiles once; workers receive slices of the
        # compiled histories and never compile again.
        rows = self._timed_rows()
        before = timeconstraints.TIMED_COMPILE_CALLS
        parallel = mine_time_constrained(rows, 0.5, workers=2)
        assert timeconstraints.TIMED_COMPILE_CALLS - before == 1
        assert parallel == mine_time_constrained(rows, 0.5)
