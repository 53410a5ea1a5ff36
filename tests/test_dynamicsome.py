"""Behavioral tests for DynamicSome and on-the-fly generation."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamicsome import _count_on_the_fly, dynamic_some, otf_generate
from repro.core.sequence import id_sequence_contains
from repro.core.vertical import ensure_vertical
from repro.db.database import SequenceDatabase
from repro.db.partitioned import PartitionedSequences
from repro.db.transform import transform_database
from repro.itemsets.apriori import find_litemsets
from repro.io.binlog import write_binlog
from repro.itemsets.litemsets import LitemsetCatalog
from tests import strategies as my


def transformed(db, minsup):
    catalog = LitemsetCatalog.from_result(find_litemsets(db, minsup))
    return transform_database(db, catalog), db.threshold(minsup)


def chain_db(length=4, customers=3):
    return SequenceDatabase.from_sequences(
        [[(i,) for i in range(1, length + 1)] for _ in range(customers)]
    )


class TestOtfGenerate:
    def test_simple_join(self):
        events = (frozenset({1}), frozenset({2}), frozenset({3}))
        got = otf_generate([(1,)], [(2,), (3,)], events)
        assert got == {(1, 2), (1, 3)}

    def test_position_overlap_rejected(self):
        # head must END before tail STARTS.
        events = (frozenset({1}), frozenset({2}))
        assert otf_generate([(1, 2)], [(2,)], events) == set()
        assert otf_generate([(1,)], [(1, 2)], events) == set()
        three = (frozenset({1}), frozenset({1}), frozenset({2}))
        assert otf_generate([(1,)], [(1, 2)], three) == {(1, 1, 2)}

    def test_repeated_symbol(self):
        events = (frozenset({1}), frozenset({1}))
        assert otf_generate([(1,)], [(1,)], events) == {(1, 1)}

    def test_empty_inputs(self):
        events = (frozenset({1}),)
        assert otf_generate([], [(1,)], events) == set()
        assert otf_generate([(1,)], [], events) == set()

    @given(my.id_event_sequences(max_id=4, max_events=5))
    @settings(max_examples=100)
    def test_generates_exactly_contained_concatenations(self, events):
        """otf_generate(L_k, L_j, d) must equal the contained members of
        the cross-concatenation L_k × L_j — the paper's Lemma."""
        alphabet = sorted({i for ev in events for i in ev})
        if not alphabet:
            return
        heads = [(a,) for a in alphabet] + [
            (a, b) for a, b in product(alphabet, repeat=2)
        ]
        tails = [(a,) for a in alphabet]
        got = otf_generate(heads, tails, events)
        expected = {
            h + t
            for h in heads
            for t in tails
            if id_sequence_contains(h + t, events)
        }
        assert got == expected


def equal_length_sequences(max_id=4, max_length=2):
    """A non-empty set of id sequences of one drawn length, like the
    large k-sequences (heads) or step-sequences (tails) of a forward pass."""
    ids = st.integers(min_value=1, max_value=max_id)
    return st.integers(min_value=1, max_value=max_length).flatmap(
        lambda length: st.sets(st.tuples(*[ids] * length), min_size=1, max_size=5)
    )


class TestOnTheFlyJoin:
    @given(
        sequences=st.lists(my.id_event_sequences(max_id=4), max_size=6),
        heads=equal_length_sequences(),
        tails=equal_length_sequences(),
        partitions=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=60)
    def test_matches_reference_generator(
        self, tmp_path_factory, sequences, heads, tails, partitions
    ):
        """The forward-pass join equals the per-customer otf_generate
        reference summed over customers, whether it scans the rows, the
        rows a vertical inversion keeps, or K disk partitions."""
        expected: dict = {}
        for seq in sequences:
            for candidate in otf_generate(heads, tails, seq):
                expected[candidate] = expected.get(candidate, 0) + 1
        directory = tmp_path_factory.mktemp("otf")
        paths = [directory / f"p{i}.binlog" for i in range(partitions)]
        counts = [
            write_binlog(
                path,
                (
                    (customer, [sorted(event) for event in seq])
                    for customer, seq in enumerate(sequences)
                    if customer % partitions == index
                ),
            )
            for index, path in enumerate(paths)
        ]
        for form in (
            sequences,
            ensure_vertical(sequences),
            PartitionedSequences(paths, counts),
        ):
            got = _count_on_the_fly(form, sorted(heads), sorted(tails), None)
            assert got == expected


class TestDynamicSome:
    def test_forward_counts_multiples_of_step(self):
        tdb, threshold = transformed(chain_db(6, 3), 1.0)
        result = dynamic_some(tdb, threshold, step=2)
        phases = {
            p.length: p.phase for p in result.stats.passes if p.length > 1
        }
        assert phases[2] == "initialization"
        assert phases[4] == "forward"
        assert phases[6] == "forward"
        assert phases[3] == "backward"  # skipped length counted backward?

    def test_backward_prunes_contained(self):
        tdb, threshold = transformed(chain_db(4, 3), 1.0)
        result = dynamic_some(tdb, threshold, step=2)
        # The large 4-sequence (1,2,3,4) dominates all 3-sequences, so the
        # backward pass at 3 counts nothing.
        backward = [p for p in result.stats.passes if p.phase == "backward"]
        assert [p.num_candidates for p in backward] == [0]
        assert result.stats.skipped_by_containment > 0

    def test_step_one_counts_everything(self):
        tdb, threshold = transformed(chain_db(4, 3), 1.0)
        result = dynamic_some(tdb, threshold, step=1)
        assert all(p.phase != "backward" for p in result.stats.passes)
        assert max(result.large_by_length) == 4

    def test_step_larger_than_longest_pattern(self):
        tdb, threshold = transformed(chain_db(3, 3), 1.0)
        result = dynamic_some(tdb, threshold, step=5)
        assert {k: len(v) for k, v in result.large_by_length.items()} == {
            1: 3,
            2: 3,
            3: 1,
        }

    def test_gap_between_multiple_and_max_length_found(self):
        """Regression: a pattern one longer than the last counted multiple
        must still be found (requires intermediate candidates past the
        final forward pass)."""
        db = SequenceDatabase.from_sequences([[(1,), (1,), (1,), (1,)]])
        tdb, threshold = transformed(db, 1.0)
        result = dynamic_some(tdb, threshold, step=3)
        assert max(result.large_by_length) == 4

    def test_threshold_validation(self):
        tdb, _ = transformed(chain_db(3, 2), 1.0)
        with pytest.raises(ValueError):
            dynamic_some(tdb, 0)

    def test_step_validation(self):
        tdb, threshold = transformed(chain_db(3, 2), 1.0)
        with pytest.raises(ValueError):
            dynamic_some(tdb, threshold, step=0)

    def test_no_litemsets(self):
        db = SequenceDatabase.from_sequences([[(1,)], [(2,)]])
        tdb, threshold = transformed(db, 1.0)
        result = dynamic_some(tdb, threshold)
        assert result.large_by_length == {}

    def test_max_length_cap(self):
        tdb, threshold = transformed(chain_db(5, 3), 1.0)
        result = dynamic_some(tdb, threshold, step=2, max_length=3)
        assert max(result.large_by_length) <= 3

    def test_supports_exact_on_counted_lengths(self):
        db = SequenceDatabase.from_sequences(
            [[(1,), (2,), (3,), (4,)], [(1,), (2,), (3,), (4,)], [(4,), (1,)]]
        )
        tdb, threshold = transformed(db, 0.5)
        result = dynamic_some(tdb, threshold, step=2)
        ids = tuple(tdb.catalog.id_of((i,)) for i in (1, 2, 3, 4))
        assert result.large_by_length[4][ids] == 2
