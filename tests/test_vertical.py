"""Unit and property tests for the vertical id-list counting backend.

Covers the temporal-join primitive against the greedy reference
(including >64-event masks crossing machine-word boundaries, ids
recurring within a customer, and empty intersections), the cross-pass
support-list memoization contract (pass k performs exactly |C_k| joins
when the previous pass's lists rolled forward), the backward-phase
fallback (stale longer generations are evicted on descent and misses are
rebuilt from the base lists), the once-per-mining-run inversion counter,
and pickling for spawn-based workers.
"""

import pickle

import pytest
from hypothesis import given, settings

from repro.core import vertical
from repro.core.candidates import apriori_generate
from repro.core.counting import count_candidates, count_length2
from repro.miner import MiningParams, mine
from repro.core.phase import CountingOptions
from repro.core.sequence import earliest_end_index
from repro.core.vertical import (
    VerticalDatabase,
    ensure_vertical,
    join_parent_lists,
    temporal_join,
)
from repro.db.database import SequenceDatabase
from tests import strategies as my
from tests.test_database import paper_db


def events(*ids_per_event):
    return tuple(frozenset(ids) for ids in ids_per_event)


def vdb_of(*customer_sequences) -> VerticalDatabase:
    return ensure_vertical(list(customer_sequences))


class TestInversion:
    def test_inverts_rows_into_masks(self):
        rows = [events({1}, {2}), events({2, 1})]
        vdb = VerticalDatabase.invert(rows)
        assert set(vdb.id_lists) == {1, 2}
        assert vdb.id_lists[1] == {0: 0b01, 1: 0b1}
        assert vdb.id_lists[2] == {0: 0b10, 1: 0b1}
        assert vdb.event_counts == (2, 1)
        # The rows are kept by reference, not copied, for the length-2
        # sweep.
        assert vdb.rows is rows
        assert count_length2(vdb) == count_length2(rows)

    def test_inverts_without_rows(self):
        rows = [events({1}, {2}), events({2, 1})]
        vdb = VerticalDatabase.invert(rows, keep_rows=False)
        assert vdb.rows is None
        assert vdb.id_lists == VerticalDatabase.invert(rows).id_lists
        with pytest.raises(ValueError, match="rows"):
            count_length2(vdb)

    def test_masks_cross_word_boundary(self):
        # 70 events: occurrences straddle the 64-bit machine-word
        # boundary, which arbitrary-precision masks must not care about.
        seq = events(*[{1} if i % 7 == 0 else {2} for i in range(70)])
        vdb = vdb_of(seq)
        assert vdb.event_counts == (70,)
        assert vdb.id_lists[1] == {0: sum(1 << i for i in range(0, 70, 7))}
        assert count_candidates(
            vdb, [(1, 1), (1, 2), (2, 1), (2, 2)], strategy="vertical"
        ) == {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1}

    def test_missing_id_gets_shared_empty_list(self):
        vdb = vdb_of(events({1}))
        assert vdb.id_list(99) == {}
        assert vdb.base_list(99) == {}

    def test_inverted_once_per_mining_run(self):
        before = vertical.INVERT_CALLS
        params = MiningParams(
            minsup=0.25, counting=CountingOptions(strategy="vertical")
        )
        mine(paper_db(), params)
        assert vertical.INVERT_CALLS - before == 1

    def test_ensure_vertical_passes_through(self):
        vdb = vdb_of(events({1}))
        assert ensure_vertical(vdb) is vdb


class TestInvertOncePerRun:
    """One inversion per mining run: no per-pass re-inversion on the
    vertical path, and none at all on the hash tree's."""

    @staticmethod
    def _multi_pass_db():
        # Long shared prefixes force several counting passes (k >= 4).
        return SequenceDatabase.from_sequences([
            [(1,), (2,), (3,), (4,), (5,)],
            [(1,), (2,), (3,), (4,)],
            [(1,), (2,), (3,), (4,), (5,)],
        ])

    def test_one_invert_for_multi_pass_mine(self):
        db = self._multi_pass_db()
        for algorithm in ("aprioriall", "apriorisome", "dynamicsome"):
            before = vertical.INVERT_CALLS
            result = mine(
                db,
                MiningParams(
                    minsup=0.6,
                    algorithm=algorithm,
                    counting=CountingOptions(strategy="vertical"),
                ),
            )
            assert max(result.large_counts_by_length) >= 4  # really multi-pass
            assert vertical.INVERT_CALLS - before == 1, algorithm

    def test_one_invert_with_parallel_workers(self):
        # The parent inverts once; candidate shards count against the
        # parent's inversion, so workers never re-invert in-parent.
        db = self._multi_pass_db()
        before = vertical.INVERT_CALLS
        mine(
            db,
            MiningParams(
                minsup=0.6,
                counting=CountingOptions(
                    strategy="vertical", workers=2, chunk_size=1
                ),
            ),
        )
        assert vertical.INVERT_CALLS - before == 1

    def test_hashtree_never_inverts(self):
        db = self._multi_pass_db()
        before = vertical.INVERT_CALLS
        for algorithm in ("aprioriall", "apriorisome", "dynamicsome"):
            mine(db, MiningParams(minsup=0.6, algorithm=algorithm))
        assert vertical.INVERT_CALLS == before


class TestTemporalJoin:
    def test_basic_extension(self):
        # Customer 0: id occurs at events 2 and 5; prefix ends at 1 → 2.
        assert temporal_join({0: 1}, {0: 0b100100}) == {0: 2}

    def test_empty_intersection(self):
        # Disjoint customer sets join to nothing.
        assert temporal_join({0: 0, 2: 1}, {1: 0b10, 3: 0b1}) == {}
        assert temporal_join({}, {0: 0b1}) == {}

    def test_occurrence_not_after_prefix_end(self):
        # The id occurs only at/before the prefix end → strict "after" fails.
        assert temporal_join({0: 2}, {0: 0b111}) == {}

    def test_repeat_occurrences_pick_earliest_after(self):
        # Id recurs at 0, 3, 6; prefix end 0 → earliest-after is 3.
        assert temporal_join({0: 0}, {0: 0b1001001}) == {0: 3}

    def test_word_boundary_masks(self):
        # Occurrence at event 70: the shift crosses the 64-bit word
        # boundary, which arbitrary-precision masks must not care about.
        mask = (1 << 70) | (1 << 3)
        assert temporal_join({0: 3}, {0: mask}) == {0: 70}
        assert temporal_join({0: 70}, {0: mask}) == {}

    def test_repeat_customers_across_ids(self):
        # Two customers supporting the prefix; only one has the id after.
        prefix = {0: 1, 1: 4}
        masks = {0: 0b1000, 1: 0b1}
        assert temporal_join(prefix, masks) == {0: 3}

    @given(seq=my.id_event_sequences(max_id=5), pattern=my.id_sequences(max_id=5))
    @settings(max_examples=120)
    def test_chained_joins_match_greedy_reference(self, seq, pattern):
        """Rebuilding any sequence's list by chained joins reproduces the
        greedy earliest-end of the reference matcher, customer by
        customer."""
        vdb = vdb_of(seq)
        lst = vdb.cache.get(pattern)
        expected_end = earliest_end_index(pattern, seq)
        assert lst == ({} if expected_end is None else {0: expected_end})


class TestJoinParentLists:
    def test_suffix_filter_equals_plain_join(self):
        seqs = [
            events({1}, {2}, {3}),
            events({1, 2}, {3}, {1}),
            events({3}, {2}, {1}),
            events({2}, {3}),
        ]
        vdb = vdb_of(*seqs)
        prefix = vdb.cache.get((1, 2))
        suffix = vdb.cache.get((2, 3))
        masks = vdb.id_list(3)
        assert join_parent_lists(prefix, suffix, masks) == temporal_join(
            prefix, masks
        )

    def test_smaller_suffix_side_is_iterated_without_loss(self):
        # Prefix supported by 3 customers, suffix by 1: iterating the
        # suffix side must still find the single supporting customer.
        prefix = {0: 0, 1: 0, 2: 0}
        suffix = {1: 1}
        masks = {1: 0b10}
        assert join_parent_lists(prefix, suffix, masks) == {1: 1}


class TestCrossPassMemoization:
    def test_pass_k_is_one_join_per_candidate_when_lists_rolled_forward(self):
        seqs = [
            events({1}, {2}, {3}, {1}),
            events({1, 2}, {3}),
            events({2}, {1}, {3}),
        ]
        vdb = vdb_of(*seqs)
        pairs = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
        count_candidates(vdb, pairs, strategy="vertical")
        large2 = [(1, 2), (2, 3), (1, 3)]
        candidates, parents = apriori_generate(large2, with_parents=True)
        assert candidates  # the fixture must actually produce a C_3
        before = vdb.cache.joins
        counts = count_candidates(
            vdb, candidates, strategy="vertical", parents=parents
        )
        # Every parent list was memoized by the pass-2 count: exactly one
        # temporal join per candidate, no rebuild chain.
        assert vdb.cache.joins - before == len(candidates)
        anchor = count_candidates(seqs, candidates, strategy="hashtree")
        assert counts == anchor

    def test_cold_pass_rebuilds_and_still_matches(self):
        seqs = [events({1}, {2}, {3}), events({1}, {3}, {2})]
        vdb = vdb_of(*seqs)
        candidates = [(1, 2, 3), (1, 3, 2), (3, 2, 1)]
        before = vdb.cache.joins
        counts = count_candidates(vdb, candidates, strategy="vertical")
        # Cold cache: rebuild chains cost extra joins beyond one per
        # candidate.
        assert vdb.cache.joins - before > len(candidates)
        assert counts == count_candidates(seqs, candidates, strategy="hashtree")

    def test_retain_surviving_drops_only_losers_of_that_length(self):
        vdb = vdb_of(events({1}, {2}, {3}))
        count_candidates(vdb, [(1, 2), (2, 3), (3, 1)], strategy="vertical")
        vdb.cache.retain_surviving([(1, 2)])
        assert (1, 2) in vdb.cache
        assert (2, 3) not in vdb.cache
        # Base length-1 lists are untouched.
        assert (1,) in vdb.cache or vdb.cache.get((1,)) == {0: 0}

    def test_retain_surviving_with_empty_large_is_noop(self):
        vdb = vdb_of(events({1}, {2}))
        count_candidates(vdb, [(1, 2)], strategy="vertical")
        vdb.cache.retain_surviving([])
        assert (1, 2) in vdb.cache


class TestBackwardFallbackInvalidation:
    def test_descending_pass_evicts_stale_longer_generations(self):
        """The backward walk counts longest-first; entering a shorter pass
        must invalidate (evict) the longer generations and rebuild what it
        needs from the base lists."""
        seqs = [events({1}, {2}, {3}, {4})] * 2
        vdb = vdb_of(*seqs)
        counts4 = count_candidates(vdb, [(1, 2, 3, 4)], strategy="vertical")
        assert counts4 == {(1, 2, 3, 4): 2}
        assert vdb.cache.cached_lengths() == {1, 3, 4}
        counts2 = count_candidates(vdb, [(2, 3), (4, 1)], strategy="vertical")
        assert counts2 == {(2, 3): 2, (4, 1): 0}
        # Lengths 3 and 4 are gone; only the new generation (and base)
        # remain.
        assert vdb.cache.cached_lengths() <= {1, 2}

    def test_backward_phase_vertical_equals_hashtree(self):
        from repro.core.backward import backward_phase
        from repro.core.phase import SequencePhaseResult
        from repro.core.stats import AlgorithmStats
        from repro.db.transform import transform_database
        from repro.itemsets.apriori import find_litemsets
        from repro.itemsets.litemsets import LitemsetCatalog

        db = SequenceDatabase.from_sequences([[(1,), (2,), (3,)]] * 2)
        catalog = LitemsetCatalog.from_result(find_litemsets(db, 1.0))
        tdb = transform_database(db, catalog)
        threshold = db.threshold(1.0)
        l1 = tdb.catalog.one_sequence_supports()
        a, b, c = sorted(i for (i,) in l1)
        candidates = {2: [(a, b), (b, c), (a, c)], 3: [(a, b, c)]}
        results = {}
        for strategy in ("hashtree", "vertical"):
            result = SequencePhaseResult(stats=AlgorithmStats("test"))
            result.large_by_length[1] = l1
            backward_phase(
                tdb,
                threshold,
                result,
                {length: list(cands) for length, cands in candidates.items()},
                counted_lengths={1},
                counting=CountingOptions(strategy=strategy),
            )
            results[strategy] = result.large_by_length
        assert results["vertical"] == results["hashtree"]


class TestPickling:
    def test_roundtrip_preserves_lists_and_counts(self):
        seqs = [events({1}, {2}), events({2}, {1})]
        vdb = vdb_of(*seqs)
        count_candidates(vdb, [(1, 2), (2, 1)], strategy="vertical")
        clone = pickle.loads(pickle.dumps(vdb))
        assert clone.id_lists == vdb.id_lists
        assert clone.event_counts == vdb.event_counts
        assert clone.rows == vdb.rows
        assert clone.cache.joins == vdb.cache.joins
        assert (1, 2) in clone.cache
        assert count_candidates(
            clone, [(1, 2), (2, 1), (1, 1)], strategy="vertical"
        ) == {(1, 2): 1, (2, 1): 1, (1, 1): 0}


class TestTimedRejectsVertical:
    def test_rejected_with_clear_message(self):
        """The timed miner always counts on its compiled histories; the
        vertical joins decide plain containment only, and there is no
        strategy knob to select them."""
        from repro.extensions.timeconstraints import mine_time_constrained

        with pytest.raises(TypeError, match="unexpected keyword argument 'strategy'"):
            mine_time_constrained([], 0.5, strategy="vertical")
