"""Tests for the sharded parallel executor.

Two passes shard: PrefixSpan's seed growth and the time-constrained
miner's counting. The contract under test: for any worker count their
results are *identical* to serial results — same keys, same values,
same insertion order where the serial engine defines one. Plus:
``workers=1``, a single shard and every apriori-family ``mine()`` never
spawn a pool, and the sharding helpers split and merge exactly.
"""

import logging
import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counting import COUNTING_STRATEGIES, count_candidates, count_length2
from repro.miner import ALGORITHM_NAMES, MiningParams, mine
from repro.core.phase import CountingOptions
from repro.db.database import SequenceDatabase
from repro.db.partitioned import PartitionedDatabase
from repro.db.records import Transaction
from repro.extensions.timeconstraints import (
    TimeConstraints,
    build_timed_sequences,
    mine_time_constrained,
)
from repro.parallel import executor
from repro.parallel.executor import (
    parallel_count_timed,
    parallel_prefixspan,
    resolve_workers,
)
from repro.parallel.sharding import merge_counts, shard_bounds


def events(*ids_per_event):
    return tuple(frozenset(ids) for ids in ids_per_event)


SEQUENCES = [
    events({1}, {2}, {1}),
    events({2, 3}, {1}),
    events({1, 2}),
    events({3}, {3}, {2}),
    events({1}, {1}, {1}),
    events({2}, {3}),
    events({4}, {1, 3}),
]
CANDIDATES = [(1, 2), (2, 1), (3, 3), (3, 2), (1, 1), (4, 3), (9, 9)]

#: ``SEQUENCES`` as timed histories (event ``i`` at time ``i``), and
#: ``CANDIDATES`` over expanded events, for the timed-counting pass.
TIMED = build_timed_sequences(
    Transaction(customer_id, time, tuple(sorted(event)))
    for customer_id, sequence in enumerate(SEQUENCES, start=1)
    for time, event in enumerate(sequence)
)
TIMED_CANDIDATES = [
    tuple(frozenset((item,)) for item in candidate) for candidate in CANDIDATES
]


class TestShardBounds:
    def test_even_split(self):
        assert shard_bounds(10, 2) == [(0, 5), (5, 10)]

    def test_uneven_split_spreads_remainder(self):
        assert shard_bounds(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_more_shards_than_items(self):
        assert shard_bounds(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_empty(self):
        assert shard_bounds(0, 4) == []

    def test_invalid(self):
        with pytest.raises(ValueError):
            shard_bounds(-1, 2)
        with pytest.raises(ValueError):
            shard_bounds(5, 0)

    @given(num_items=st.integers(0, 200), num_shards=st.integers(1, 12))
    @settings(max_examples=60)
    def test_bounds_are_disjoint_and_covering(self, num_items, num_shards):
        bounds = shard_bounds(num_items, num_shards)
        assert len(bounds) == min(num_items, num_shards)
        assert all(start < stop for start, stop in bounds)
        flattened = [i for start, stop in bounds for i in range(start, stop)]
        assert flattened == list(range(num_items))


class TestPartitionAndMerge:
    def test_merge_sums_and_keeps_base_order(self):
        base = {"a": 0, "b": 0, "c": 0}
        merged = merge_counts([{"b": 2}, {"a": 1, "b": 1}], base=base)
        assert merged == {"a": 1, "b": 3, "c": 0}
        assert list(merged) == ["a", "b", "c"]
        assert base == {"a": 0, "b": 0, "c": 0}  # base not mutated

    def test_merge_without_base(self):
        assert merge_counts([{"x": 1}, {"x": 2, "y": 5}]) == {"x": 3, "y": 5}


class TestResolveWorkers:
    def test_passthrough(self):
        assert resolve_workers(3) == 3

    def test_zero_and_none_mean_all_cpus(self):
        assert resolve_workers(0) >= 1
        assert resolve_workers(None) == resolve_workers(0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestParallelEqualsSerial:
    def test_zero_count_candidates_survive_merge(self):
        # Shards drop zero counts on the wire; the merge restores them.
        counts = parallel_count_timed(
            TIMED, TIMED_CANDIDATES, TimeConstraints(), workers=2
        )
        assert list(counts) == TIMED_CANDIDATES
        assert counts[TIMED_CANDIDATES[-1]] == 0
        assert counts == parallel_count_timed(
            TIMED, TIMED_CANDIDATES, TimeConstraints(), workers=1
        )

    def test_empty_inputs(self):
        constraints = TimeConstraints()
        assert parallel_count_timed(
            [], TIMED_CANDIDATES, constraints, workers=2
        ) == {candidate: 0 for candidate in TIMED_CANDIDATES}
        assert parallel_count_timed(TIMED, [], constraints, workers=2) == {}


class TestNoPoolWhenSerial:
    @pytest.fixture
    def forbid_pool(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a worker pool was spawned")

        monkeypatch.setattr(executor, "_pool", boom)

    def test_workers_1_count_candidates(self, forbid_pool):
        # The apriori-family counting passes have no parallel path.
        for strategy in COUNTING_STRATEGIES:
            count_candidates(SEQUENCES, CANDIDATES, strategy=strategy)

    def test_workers_1_count_length2(self, forbid_pool):
        count_length2(SEQUENCES)

    def test_single_shard_short_circuits(self, forbid_pool):
        # One customer ⇒ one shard ⇒ no pool, whatever `workers` says.
        parallel_count_timed(
            TIMED[:1], TIMED_CANDIDATES, TimeConstraints(), workers=4
        )

    def test_workers_1_full_mine(self, forbid_pool):
        db = SequenceDatabase.from_sequences([[(1,), (2,)], [(1, 2)], [(2,)]])
        mine(db, MiningParams(minsup=0.3, workers=1))

    @pytest.mark.parametrize("partitioned", [False, True])
    @pytest.mark.parametrize("strategy", COUNTING_STRATEGIES)
    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_apriori_family_mine_never_pools(
        self, forbid_pool, tmp_path, algorithm, strategy, partitioned
    ):
        db = small_alphabet_db()
        if partitioned:
            db = PartitionedDatabase.from_database(
                db, tmp_path / "parts", partitions=3
            )
        result = mine(
            db,
            MiningParams(
                minsup=0.1,
                algorithm=algorithm,
                counting=CountingOptions(strategy=strategy),
            ),
        )
        assert any(p.length >= 3 for p in result.algorithm_stats.passes)

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_apriori_family_rejects_workers(self, algorithm):
        for workers in (0, 2):
            with pytest.raises(ValueError, match="prefixspan only"):
                MiningParams(minsup=0.3, algorithm=algorithm, workers=workers)

    def test_workers_1_prefixspan_mine(self, forbid_pool):
        db = SequenceDatabase.from_sequences([[(1,), (2,)], [(1, 2)], [(2,)]])
        mine(
            db,
            MiningParams(minsup=0.3, algorithm="prefixspan", workers=1),
        )

    def test_single_seed_prefixspan_short_circuits(self, forbid_pool):
        # One seed item ⇒ one shard ⇒ no pool, whatever `workers` says.
        db = SequenceDatabase.from_sequences([[(1,), (1,)], [(1,)]])
        grown = parallel_prefixspan(
            db, [1], frozenset({1}), 1, None, workers=4
        )
        assert grown[(frozenset({1}),)] == 2

    def test_workers_1_time_constrained(self, forbid_pool):
        rows = [
            Transaction(1, 1, (1,)), Transaction(1, 2, (2,)),
            Transaction(2, 1, (1,)), Transaction(2, 3, (2,)),
        ]
        mine_time_constrained(rows, 0.5, TimeConstraints(max_gap=2), workers=1)

    def test_pool_actually_used_when_parallel(self, forbid_pool):
        db = SequenceDatabase.from_sequences([[(1,), (2,)], [(1, 2)], [(2,)]])
        with pytest.raises(AssertionError, match="pool was spawned"):
            parallel_prefixspan(
                db, [1, 2], frozenset({1, 2}), 1, None, workers=2
            )
        with pytest.raises(AssertionError, match="pool was spawned"):
            parallel_count_timed(
                TIMED, TIMED_CANDIDATES, TimeConstraints(), workers=2
            )


def small_alphabet_db():
    """30 customers over 40 items: minsup 0.1 yields patterns up to 5
    events, so every algorithm counts passes 3 and up."""
    from repro.datagen.generator import generate_database
    from repro.datagen.params import SyntheticParams

    params = SyntheticParams(
        num_customers=30,
        num_pattern_sequences=10,
        num_pattern_itemsets=30,
        num_items=40,
        avg_transactions_per_customer=4.0,
        avg_items_per_transaction=2.0,
        avg_pattern_sequence_length=2.5,
        avg_pattern_itemset_size=1.2,
    )
    return generate_database(params, seed=7)


class TestSpawnStartMethod:
    """Both sharded passes through the ``spawn`` start method, where the
    pass rides the pool initializer instead of fork-inherited globals.
    Linux CI always forks, so this class is the only spawn coverage."""

    @pytest.fixture(autouse=True)
    def spawn(self, monkeypatch, caplog):
        monkeypatch.setattr(
            executor, "_context", lambda: multiprocessing.get_context("spawn")
        )
        with caplog.at_level(logging.WARNING, logger="repro.parallel"):
            yield
        # A shard that fails in a worker degrades to the parent and still
        # counts right; only a clean log shows the workers did the work.
        assert not caplog.get_records("call")

    @pytest.fixture(scope="class")
    def db(self):
        return small_alphabet_db()

    def test_prefixspan_matches_serial(self, db):
        def mined(workers):
            result = mine(
                db,
                MiningParams(minsup=0.1, algorithm="prefixspan", workers=workers),
            )
            rounds = [
                (p.length, p.num_candidates, p.num_large)
                for p in result.algorithm_stats.passes
            ]
            return [(p.sequence, p.count) for p in result.patterns], rounds

        serial = mined(1)
        assert serial[0], "no patterns: the comparison would be vacuous"
        assert mined(2) == serial

    def test_time_constrained_matches_serial(self, db):
        rows = [
            Transaction(customer.customer_id, time, event)
            for customer in db
            for time, event in enumerate(customer.events)
        ]
        constraints = TimeConstraints(max_gap=2)
        serial = mine_time_constrained(rows, 0.1, constraints, workers=1)
        assert any(len(p.sequence) > 1 for p in serial)
        parallel = mine_time_constrained(rows, 0.1, constraints, workers=2)
        assert parallel == serial
