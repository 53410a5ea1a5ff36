"""Tests for the sharded parallel counting engine.

The contract under test: for any database, candidate set, worker count,
chunk size, and strategy, parallel counts are *identical* to serial
counts — same keys, same values, same insertion order where the serial
engine defines one. Plus: ``workers=1`` never spawns a pool, and the
sharding helpers partition and merge exactly.
"""

import logging
import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counting import COUNTING_STRATEGIES, count_candidates, count_length2
from repro.miner import MiningParams, mine
from repro.core.phase import CountingOptions
from repro.db.database import SequenceDatabase
from repro.db.partitioned import PartitionedDatabase
from repro.db.records import Transaction
from repro.extensions.timeconstraints import TimeConstraints, mine_time_constrained
from repro.parallel import executor
from repro.parallel.executor import (
    parallel_count_candidates,
    parallel_count_length2,
    parallel_prefixspan,
    resolve_workers,
)
from repro.parallel.sharding import merge_counts, partition, shard_bounds
from tests import strategies as my


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


class TestShardBounds:
    def test_even_split(self):
        assert shard_bounds(10, 2) == [(0, 5), (5, 10)]

    def test_uneven_split_spreads_remainder(self):
        assert shard_bounds(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_more_shards_than_items(self):
        assert shard_bounds(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_chunk_size_overrides_num_shards(self):
        assert shard_bounds(10, 2, chunk_size=4) == [(0, 4), (4, 8), (8, 10)]

    def test_empty(self):
        assert shard_bounds(0, 4) == []

    def test_invalid(self):
        with pytest.raises(ValueError):
            shard_bounds(-1, 2)
        with pytest.raises(ValueError):
            shard_bounds(5, 0)
        with pytest.raises(ValueError):
            shard_bounds(5, 2, chunk_size=0)

    @given(
        num_items=st.integers(0, 200),
        num_shards=st.integers(1, 12),
        chunk_size=st.one_of(st.none(), st.integers(1, 50)),
    )
    @settings(max_examples=60)
    def test_bounds_are_disjoint_and_covering(
        self, num_items, num_shards, chunk_size
    ):
        bounds = shard_bounds(num_items, num_shards, chunk_size)
        assert all(start < stop for start, stop in bounds)
        flattened = [i for start, stop in bounds for i in range(start, stop)]
        assert flattened == list(range(num_items))


class TestPartitionAndMerge:
    def test_partition_preserves_items(self):
        shards = partition(SEQUENCES, 3)
        assert [s for shard in shards for s in shard] == SEQUENCES

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
    @pytest.mark.parametrize("strategy", COUNTING_STRATEGIES)
    @pytest.mark.parametrize("workers,chunk_size", [(2, None), (3, 2), (2, 1)])
    def test_count_candidates(self, strategy, workers, chunk_size):
        serial = count_candidates(SEQUENCES, CANDIDATES, strategy=strategy)
        parallel = count_candidates(
            SEQUENCES,
            CANDIDATES,
            strategy=strategy,
            workers=workers,
            chunk_size=chunk_size,
        )
        assert parallel == serial
        assert list(parallel) == list(serial)

    def test_zero_count_candidates_survive_merge(self):
        counts = count_candidates(SEQUENCES, [(9, 9), (8, 8)], workers=2)
        assert counts == {(9, 9): 0, (8, 8): 0}

    def test_count_length2(self):
        serial = count_length2(SEQUENCES)
        assert count_length2(SEQUENCES, workers=2) == serial
        assert count_length2(SEQUENCES, workers=3, chunk_size=2) == serial

    def test_empty_inputs(self):
        assert parallel_count_candidates([], CANDIDATES, workers=2) == {
            c: 0 for c in CANDIDATES
        }
        assert parallel_count_candidates(SEQUENCES, [], workers=2) == {}
        assert parallel_count_length2([], workers=2) == {}

    @given(
        sequences=st.lists(my.id_event_sequences(max_id=5), max_size=8),
        candidates=st.sets(my.id_sequences(max_id=5, max_length=3), max_size=12),
        workers=st.integers(1, 3),
        chunk_size=st.one_of(st.none(), st.integers(1, 4)),
        strategy=st.sampled_from(COUNTING_STRATEGIES),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_equivalence(
        self, sequences, candidates, workers, chunk_size, strategy
    ):
        candidates = {c for c in candidates if len(c) == 3}
        serial = count_candidates(sequences, candidates, strategy=strategy)
        parallel = count_candidates(
            sequences,
            candidates,
            strategy=strategy,
            workers=workers,
            chunk_size=chunk_size,
        )
        assert parallel == serial

    @given(sequences=st.lists(my.id_event_sequences(max_id=5), max_size=8))
    @settings(max_examples=10, deadline=None)
    def test_property_length2_equivalence(self, sequences):
        assert count_length2(sequences, workers=2) == count_length2(sequences)


class TestNoPoolWhenSerial:
    @pytest.fixture
    def forbid_pool(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a worker pool was spawned")

        monkeypatch.setattr(executor, "_pool", boom)

    def test_workers_1_count_candidates(self, forbid_pool):
        count_candidates(SEQUENCES, CANDIDATES, workers=1)
        parallel_count_candidates(SEQUENCES, CANDIDATES, workers=1)

    def test_workers_1_count_length2(self, forbid_pool):
        count_length2(SEQUENCES, workers=1)
        parallel_count_length2(SEQUENCES, workers=1)

    def test_single_shard_short_circuits(self, forbid_pool):
        # One customer ⇒ one shard ⇒ no pool, whatever `workers` says.
        parallel_count_candidates(SEQUENCES[:1], CANDIDATES, workers=4)

    def test_workers_1_full_mine(self, forbid_pool):
        db = SequenceDatabase.from_sequences([[(1,), (2,)], [(1, 2)], [(2,)]])
        mine(db, MiningParams(minsup=0.3, counting=CountingOptions(workers=1)))

    def test_workers_1_prefixspan_mine(self, forbid_pool):
        db = SequenceDatabase.from_sequences([[(1,), (2,)], [(1, 2)], [(2,)]])
        mine(
            db,
            MiningParams(
                minsup=0.3,
                algorithm="prefixspan",
                counting=CountingOptions(workers=1),
            ),
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
        with pytest.raises(AssertionError, match="pool was spawned"):
            parallel_count_candidates(SEQUENCES, CANDIDATES, workers=2)


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


class TestFullPipelineParallel:
    """End-to-end: every algorithm yields identical results with workers>1."""

    @pytest.fixture(scope="class")
    def db(self):
        return small_alphabet_db()

    @pytest.mark.parametrize(
        "algorithm", ["aprioriall", "apriorisome", "dynamicsome"]
    )
    def test_algorithms_agree_with_serial(self, db, algorithm):
        serial = mine(
            db,
            MiningParams(
                minsup=0.1,
                algorithm=algorithm,
                counting=CountingOptions(workers=1),
            ),
        )
        assert serial.patterns, "no patterns: the comparison would be vacuous"
        assert any(p.length >= 3 for p in serial.algorithm_stats.passes)
        parallel = mine(
            db,
            MiningParams(
                minsup=0.1,
                algorithm=algorithm,
                counting=CountingOptions(workers=2, chunk_size=17),
            ),
        )
        assert parallel.patterns == serial.patterns
        assert parallel.large_counts_by_length == serial.large_counts_by_length


class TestSpawnStartMethod:
    """Every pass through the ``spawn`` start method, where the pass rides
    the pool initializer instead of fork-inherited globals. Linux CI
    always forks, so this class is the only spawn coverage."""

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

    def _mine(self, db, algorithm, strategy, workers):
        # PrefixSpan rejects an explicit strategy; it passes None.
        chosen = {} if strategy is None else {"strategy": strategy}
        counting = CountingOptions(workers=workers, chunk_size=1, **chosen)
        result = mine(
            db, MiningParams(minsup=0.1, algorithm=algorithm, counting=counting)
        )
        return [(p.sequence, p.count) for p in result.patterns]

    @pytest.mark.parametrize(
        "algorithm,strategy,partitioned",
        [
            (algorithm, strategy, partitioned)
            for partitioned in (False, True)
            for algorithm in ("aprioriall", "apriorisome", "dynamicsome")
            for strategy in COUNTING_STRATEGIES
        ]
        # PrefixSpan mines in memory only.
        + [("prefixspan", None, False)],
    )
    def test_mine_matches_serial(
        self, tmp_path, db, algorithm, strategy, partitioned
    ):
        if partitioned:
            db = PartitionedDatabase.from_database(
                db, tmp_path / "parts", partitions=3
            )
        serial = self._mine(db, algorithm, strategy, workers=1)
        assert serial, "no patterns: the comparison would be vacuous"
        assert self._mine(db, algorithm, strategy, workers=2) == serial

    def test_time_constrained_matches_serial(self, db):
        rows = [
            Transaction(customer.customer_id, time, event)
            for customer in db
            for time, event in enumerate(customer.events)
        ]
        constraints = TimeConstraints(max_gap=2)
        serial = mine_time_constrained(rows, 0.1, constraints, workers=1)
        assert any(len(p.sequence) > 1 for p in serial)
        parallel = mine_time_constrained(
            rows, 0.1, constraints, workers=2, chunk_size=1
        )
        assert parallel == serial
