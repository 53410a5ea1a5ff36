"""Behavioral tests for AprioriSome: the next(k) policy, forward skipping,
and backward containment pruning."""

import pytest

from repro.core.apriorisome import NextLengthPolicy, apriori_some
from repro.db.database import SequenceDatabase
from repro.db.transform import transform_database
from repro.itemsets.apriori import find_litemsets
from repro.itemsets.litemsets import LitemsetCatalog


def transformed(db, minsup):
    catalog = LitemsetCatalog.from_result(find_litemsets(db, minsup))
    return transform_database(db, catalog), db.threshold(minsup)


def chain_db(length=6, customers=6):
    return SequenceDatabase.from_sequences(
        [[(i,) for i in range(1, length + 1)] for _ in range(customers)]
    )


class TestNextLengthPolicy:
    def test_default_breakpoints(self):
        policy = NextLengthPolicy()
        assert policy.next_length(4, 0.5) == 5
        assert policy.next_length(4, 0.70) == 6
        assert policy.next_length(4, 0.78) == 7
        assert policy.next_length(4, 0.83) == 8
        assert policy.next_length(4, 0.99) == 9

    def test_length_one_always_counts_two(self):
        policy = NextLengthPolicy()
        assert policy.next_length(1, 1.0) == 2
        assert policy.next_length(1, 0.0) == 2

    def test_breakpoint_boundaries_are_exclusive(self):
        policy = NextLengthPolicy()
        assert policy.next_length(3, 0.666) == 5  # not < 0.666 → next band
        assert policy.next_length(3, 0.85) == 8  # falls through to max_skip

    def test_validation(self):
        with pytest.raises(ValueError):
            NextLengthPolicy(breakpoints=((0.8, 1), (0.5, 2)))
        with pytest.raises(ValueError):
            NextLengthPolicy(breakpoints=((0.5, 0),))
        with pytest.raises(ValueError):
            NextLengthPolicy(max_skip=0)

    def test_custom_never_skip(self):
        policy = NextLengthPolicy(breakpoints=((2.0, 1),), max_skip=1)
        for hit in (0.0, 0.5, 1.0):
            assert policy.next_length(7, hit) == 8


class TestForwardSkipping:
    def test_skips_lengths_on_dense_data(self):
        """On the all-identical chain database the hit ratio at length 3 is
        1.0, so the policy jumps max_skip ahead and the backward phase
        fills the gap."""
        tdb, threshold = transformed(chain_db(6, 6), 1.0)
        result = apriori_some(tdb, threshold)
        stats = result.stats
        forward_lengths = {p.length for p in stats.passes if p.phase == "forward"}
        backward_lengths = {p.length for p in stats.passes if p.phase == "backward"}
        assert forward_lengths == {2, 3}
        assert backward_lengths == {4, 5, 6}
        # Lengths 4 and 5 are *not* reported: their candidates were all
        # contained in the large 6-sequence, so AprioriSome never counted
        # them — that skipped work is exactly its advantage.
        assert {k: len(v) for k, v in result.large_by_length.items()} == {
            1: 6,
            2: 15,
            3: 20,
            6: 1,
        }

    def test_backward_pruning_skips_contained_candidates(self):
        tdb, threshold = transformed(chain_db(6, 6), 1.0)
        result = apriori_some(tdb, threshold)
        stats = result.stats
        # C_6's single candidate is counted (nothing longer exists), and
        # every C_5 / C_4 candidate is contained in the large 6-sequence,
        # so the backward passes at 5 and 4 count nothing.
        by_length = {p.length: p for p in stats.passes if p.phase == "backward"}
        assert by_length[6].num_candidates == 1
        assert by_length[5].num_candidates == 0
        assert by_length[4].num_candidates == 0
        assert stats.skipped_by_containment == 6 + 15  # |C_5| + |C_4|

    def test_never_skip_policy_counts_everything_forward(self):
        tdb, threshold = transformed(chain_db(5, 4), 1.0)
        policy = NextLengthPolicy(breakpoints=((2.0, 1),), max_skip=1)
        result = apriori_some(tdb, threshold, next_policy=policy)
        stats = result.stats
        assert all(p.phase != "backward" for p in stats.passes)
        assert stats.skipped_by_containment == 0

    def test_uncounted_candidates_generated_from_candidates(self):
        """With a max_skip jump the C-chain grows from candidate sets; the
        result must still be exact."""
        tdb, threshold = transformed(chain_db(6, 6), 1.0)
        aggressive = NextLengthPolicy(breakpoints=((0.01, 5),), max_skip=5)
        result = apriori_some(tdb, threshold, next_policy=aggressive)
        # Only lengths 1, 2 were counted forward; the backward phase
        # counts 6 and prunes everything at 3-5 as contained in it.
        assert {k: len(v) for k, v in result.large_by_length.items()} == {
            1: 6,
            2: 15,
            6: 1,
        }

    def test_candidates_stop_at_longest_customer_sequence(self):
        """Every candidate is large, so the hit ratio jumps the next count
        to length 8; no customer holds more than 3 events, and generation
        stops there instead of growing uncounted candidate sets as
        |L_1|^k."""
        db = SequenceDatabase.from_sequences([[(1, 2), (1, 2), (1, 2)]])
        tdb, threshold = transformed(db, 1.0)
        result = apriori_some(tdb, threshold)
        assert tdb.max_sequence_length == 3
        assert result.stats.generated_candidates == {1: 3, 2: 9, 3: 27}
        assert {k: len(v) for k, v in result.large_by_length.items()} == {
            1: 3,
            2: 9,
            3: 27,
        }


class TestEdgeCases:
    def test_threshold_validation(self):
        tdb, _ = transformed(chain_db(3, 2), 1.0)
        with pytest.raises(ValueError):
            apriori_some(tdb, 0)

    def test_no_litemsets(self):
        db = SequenceDatabase.from_sequences([[(1,)], [(2,)]])
        tdb, threshold = transformed(db, 1.0)
        result = apriori_some(tdb, threshold)
        assert result.large_by_length == {}

    def test_max_length_cap(self):
        tdb, threshold = transformed(chain_db(5, 4), 1.0)
        result = apriori_some(tdb, threshold, max_length=3)
        assert max(result.large_by_length) == 3

    def test_empty_length_entries_removed(self):
        tdb, threshold = transformed(chain_db(2, 3), 1.0)
        result = apriori_some(tdb, threshold)
        assert all(result.large_by_length.values())
