"""Out-of-core partitioned mining: equivalence with the in-memory path.

The acceptance contract of the partitioned subsystem: for the same data,
partitioned mining returns the *exact* pattern set (sequences and
support counts) of in-memory mining — for all three algorithms, the
counting strategies. Plus unit coverage of the partitioned pipeline
pieces: streamed transform, the on-disk inversion cache, and
memory-oriented behaviors.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import vertical
from repro.core.counting import COUNTING_STRATEGIES
from repro.core.vertical import VerticalDatabase
from repro.miner import MiningParams, mine, mine_sequential_patterns
from repro.core.phase import CountingOptions
from repro.datagen.generator import (
    generate_database,
    iter_customer_sequences,
)
from repro.datagen.params import SyntheticParams
from repro.db.partitioned import (
    PartitionedDatabase,
    PartitionedSequences,
    partitions_for_budget,
    partitions_for_budget_from_text,
)
from repro.itemsets.apriori import find_litemsets
from repro.itemsets.litemsets import LitemsetCatalog
from repro.db.database import CustomerSequence, SequenceDatabase
from repro.db.transform import transform_database
from tests.strategies import event_lists

SMALL_PARAMS = SyntheticParams(
    num_customers=60,
    num_pattern_sequences=10,
    num_pattern_itemsets=30,
    num_items=40,
    avg_transactions_per_customer=4.0,
    avg_items_per_transaction=2.0,
    avg_pattern_sequence_length=2.5,
    avg_pattern_itemset_size=1.2,
)


def patterns_of(result):
    return [(str(p.sequence), p.count) for p in result.patterns]


@pytest.fixture(scope="module")
def small_db():
    return generate_database(SMALL_PARAMS, seed=7)


@pytest.fixture(scope="module")
def reference(small_db):
    return patterns_of(mine_sequential_patterns(small_db, 0.1))


class TestMiningEquivalence:
    """The acceptance matrix: 3 algorithms × strategies."""

    @pytest.mark.parametrize(
        "algorithm", ["aprioriall", "apriorisome", "dynamicsome"]
    )
    @pytest.mark.parametrize("strategy", COUNTING_STRATEGIES)
    def test_partitioned_equals_in_memory(
        self, tmp_path, small_db, reference, algorithm, strategy
    ):
        pdb = PartitionedDatabase.from_database(
            small_db, tmp_path / "parts", partitions=4
        )
        result = mine(
            pdb,
            MiningParams(
                minsup=0.1,
                algorithm=algorithm,
                counting=CountingOptions(strategy=strategy),
            ),
        )
        assert patterns_of(result) == reference

    def test_single_partition_degenerates_gracefully(
        self, tmp_path, small_db, reference
    ):
        pdb = PartitionedDatabase.from_database(
            small_db, tmp_path / "parts", partitions=1
        )
        result = mine_sequential_patterns(pdb, 0.1)
        assert patterns_of(result) == reference

    def test_more_partitions_than_customers(self, tmp_path):
        db = SequenceDatabase.from_sequences([[(1,), (2,)], [(1,), (2,)]])
        pdb = PartitionedDatabase.from_database(
            db, tmp_path / "parts", partitions=5
        )
        result = mine_sequential_patterns(pdb, 1.0)
        assert [str(p.sequence) for p in result.patterns] == ["<(1)(2)>"]

    @given(customer_events=st.lists(event_lists(), min_size=1, max_size=6),
           partitions=st.integers(min_value=1, max_value=4),
           minsup=st.sampled_from([0.3, 0.5, 1.0]))
    @settings(max_examples=20, deadline=None)
    def test_property_partitioned_equals_in_memory(
        self, tmp_path_factory, customer_events, partitions, minsup
    ):
        tmp_path = tmp_path_factory.mktemp("pdb")
        db = SequenceDatabase.from_sequences(customer_events)
        pdb = PartitionedDatabase.from_database(
            db, tmp_path / "parts", partitions=partitions
        )
        expected = patterns_of(mine_sequential_patterns(db, minsup))
        got = patterns_of(mine_sequential_patterns(pdb, minsup))
        assert got == expected


class TestStreamedPipelinePieces:
    def test_streaming_generator_matches_in_memory_generation(self):
        db = generate_database(SMALL_PARAMS, seed=11)
        streamed = list(iter_customer_sequences(SMALL_PARAMS, seed=11))
        assert SequenceDatabase(streamed) == db

    def test_litemset_phase_streams_partitions(self, tmp_path, small_db):
        pdb = PartitionedDatabase.from_database(
            small_db, tmp_path / "parts", partitions=4
        )
        assert (
            find_litemsets(pdb, 0.1).supports
            == find_litemsets(small_db, 0.1).supports
        )

    def test_transform_matches_in_memory(self, tmp_path, small_db):
        pdb = PartitionedDatabase.from_database(
            small_db, tmp_path / "parts", partitions=4
        )
        catalog = LitemsetCatalog.from_result(find_litemsets(small_db, 0.1))
        tdb_mem = transform_database(small_db, catalog)
        tdb_part = transform_database(pdb, catalog)
        assert tdb_part.num_customers == tdb_mem.num_customers
        assert len(tdb_part) == len(tdb_mem)
        assert tdb_part.max_sequence_length == tdb_mem.max_sequence_length
        assert tdb_part.num_dropped_customers == tdb_mem.num_dropped_customers
        # Same multiset of transformed sequences (partition order differs
        # from customer order; counting is order-independent).
        assert sorted(
            tuple(sorted(e) for e in s) for s in tdb_part.sequences
        ) == sorted(tuple(sorted(e) for e in s) for s in tdb_mem.sequences)

    def test_transform_rejects_unknown_type(self):
        with pytest.raises(TypeError, match="cannot transform"):
            transform_database(object(), None)

    def test_compile_cache_written_once_and_reused(self, tmp_path, small_db):
        pdb = PartitionedDatabase.from_database(
            small_db, tmp_path / "parts", partitions=3
        )
        catalog = LitemsetCatalog.from_result(find_litemsets(small_db, 0.1))
        tdb = transform_database(pdb, catalog)
        transformed = tmp_path / "parts" / "transformed"
        assert not list(transformed.glob("*.pkl"))  # nothing up front
        before = vertical.INVERT_CALLS
        first = [tdb.sequences.load_prepared(index) for index in range(3)]
        after_first = vertical.INVERT_CALLS
        assert after_first - before == 3  # once per partition, on first use
        caches = sorted(p.name for p in transformed.glob("*.pkl"))
        assert caches == [
            "tpart-00000.compiled.pkl",
            "tpart-00001.compiled.pkl",
            "tpart-00002.compiled.pkl",
        ]
        loaded = tdb.sequences.load_prepared(0)
        assert isinstance(loaded, VerticalDatabase)
        assert vertical.INVERT_CALLS == after_first  # unpickled, not rebuilt
        assert loaded.id_lists == first[0].id_lists
        # The cache holds the inversion only; the rows stay on disk.
        assert loaded.rows is None
        assert len(loaded) == tdb.sequences.counts[0]

    @pytest.mark.parametrize(
        "algorithm", ["aprioriall", "apriorisome", "dynamicsome"]
    )
    def test_vertical_mine_inverts_each_partition_once(
        self, tmp_path, small_db, reference, monkeypatch, algorithm
    ):
        """K partitions cost exactly K inversions per run, all of them in
        the first list-joining pass; every later load unpickles the
        cached inversion."""
        inversions_per_load = []
        load_prepared = PartitionedSequences.load_prepared

        def counted_load(self, index):
            before = vertical.INVERT_CALLS
            inverted = load_prepared(self, index)
            inversions_per_load.append(vertical.INVERT_CALLS - before)
            return inverted

        monkeypatch.setattr(PartitionedSequences, "load_prepared", counted_load)
        pdb = PartitionedDatabase.from_database(
            small_db, tmp_path / "parts", partitions=3
        )
        before = vertical.INVERT_CALLS
        result = mine(
            pdb,
            MiningParams(
                minsup=0.1,
                algorithm=algorithm,
                counting=CountingOptions(strategy="vertical"),
            ),
        )
        assert max(result.large_counts_by_length) >= 3  # really multi-pass
        assert patterns_of(result) == reference
        assert vertical.INVERT_CALLS - before == 3
        assert inversions_per_load[:3] == [1, 1, 1]
        assert not any(inversions_per_load[3:])

    def test_runs_without_list_joins_invert_nothing(
        self, tmp_path, small_db, reference
    ):
        """The hash tree never inverts, and neither does a vertical run
        whose only pass is the length-2 row sweep."""
        pdb = PartitionedDatabase.from_database(
            small_db, tmp_path / "parts", partitions=3
        )
        before = vertical.INVERT_CALLS
        for algorithm in ("aprioriall", "apriorisome", "dynamicsome"):
            result = mine(pdb, MiningParams(minsup=0.1, algorithm=algorithm))
            assert patterns_of(result) == reference, algorithm
        mine(
            pdb,
            MiningParams(
                minsup=0.1,
                max_pattern_length=2,
                counting=CountingOptions(strategy="vertical"),
            ),
        )
        assert vertical.INVERT_CALLS == before
        assert not list((tmp_path / "parts" / "transformed").glob("*.pkl"))

    def test_retransform_invalidates_stale_compile_cache(
        self, tmp_path, small_db
    ):
        pdb = PartitionedDatabase.from_database(
            small_db, tmp_path / "parts", partitions=2
        )
        catalog_lo = LitemsetCatalog.from_result(find_litemsets(small_db, 0.1))
        tdb = transform_database(pdb, catalog_lo)
        tdb.sequences.load_prepared(0)
        cache = tmp_path / "parts" / "transformed" / "tpart-00000.compiled.pkl"
        assert cache.exists()
        # A new transform (e.g. a different minsup's catalog) must not
        # leave inversions of the previous alphabet behind.
        catalog_hi = LitemsetCatalog.from_result(find_litemsets(small_db, 0.5))
        transform_database(pdb, catalog_hi)
        assert not cache.exists()

    def test_partitioned_sequences_picklable_and_small(
        self, tmp_path, small_db
    ):
        pdb = PartitionedDatabase.from_database(
            small_db, tmp_path / "parts", partitions=4
        )
        catalog = LitemsetCatalog.from_result(find_litemsets(small_db, 0.1))
        tdb = transform_database(pdb, catalog)
        payload = pickle.dumps(tdb.sequences)
        # Paths and counts only — far smaller than the data it
        # describes.
        assert len(payload) < 2048
        clone = pickle.loads(payload)
        assert list(clone) == list(tdb.sequences)

    def test_iteration_is_repeatable(self, tmp_path, small_db):
        pdb = PartitionedDatabase.from_database(
            small_db, tmp_path / "parts", partitions=3
        )
        assert list(pdb) == list(pdb)  # multi-pass phases re-iterate

    def test_support_count_streaming(self, tmp_path, small_db):
        pdb = PartitionedDatabase.from_database(
            small_db, tmp_path / "parts", partitions=3
        )
        result = mine_sequential_patterns(small_db, 0.1)
        pattern = result.patterns[0]
        assert pdb.support_count(pattern.sequence) == pattern.count
        assert pdb.support(pattern.sequence) == pytest.approx(
            pattern.count / small_db.num_customers
        )

    def test_failed_overwrite_leaves_no_stale_manifest(self, tmp_path):
        """A conversion that dies mid-stream must not leave the previous
        database's manifest governing partially overwritten partitions —
        the directory must read as 'no database here' afterwards."""
        directory = tmp_path / "parts"
        db = SequenceDatabase.from_sequences([[(1,)], [(2,)], [(3,)]])
        PartitionedDatabase.from_database(db, directory, partitions=2)

        def poisoned():
            yield CustomerSequence(customer_id=1, events=((9,),))
            raise OSError("stream died")

        with pytest.raises(OSError, match="stream died"):
            PartitionedDatabase.create(
                directory, poisoned(), partitions=2, overwrite=True
            )
        with pytest.raises(ValueError, match="missing manifest.json"):
            PartitionedDatabase.open(directory)
        # The partial partitions carry no footer, so even reading one
        # directly is rejected rather than yielding a record prefix.
        from repro.io.binlog import BinlogFormatError, BinlogReader

        with pytest.raises(BinlogFormatError):
            BinlogReader(directory / "part-00000.binlog")

    def test_overwrite_removes_stale_higher_partitions(self, tmp_path):
        directory = tmp_path / "parts"
        db = SequenceDatabase.from_sequences([[(1,)]] * 6)
        PartitionedDatabase.from_database(db, directory, partitions=6)
        PartitionedDatabase.from_database(
            db, directory, partitions=2, overwrite=True
        )
        assert sorted(p.name for p in directory.glob("part-*.binlog")) == [
            "part-00000.binlog",
            "part-00001.binlog",
        ]
        assert PartitionedDatabase.open(directory).num_customers == 6

    def test_iter_unordered_same_customers(self, tmp_path, small_db):
        pdb = PartitionedDatabase.from_database(
            small_db, tmp_path / "parts", partitions=3
        )
        assert sorted(
            c.customer_id for c in pdb.iter_unordered()
        ) == [c.customer_id for c in pdb]

    def test_create_requires_ascending_ids(self, tmp_path):
        db = SequenceDatabase.from_sequences([[(1,)], [(2,)]])
        shuffled = list(db)[::-1]
        with pytest.raises(ValueError, match="ascending id order"):
            PartitionedDatabase.create(
                tmp_path / "parts", iter(shuffled), partitions=2
            )


class TestBudget:
    def test_partitions_for_budget_scales(self):
        one_mb = 1024 * 1024
        assert partitions_for_budget(one_mb, 1024.0) == 1
        small = partitions_for_budget(10 * one_mb, 64.0)
        large = partitions_for_budget(100 * one_mb, 64.0)
        assert small < large

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError, match="max-memory-mb"):
            partitions_for_budget(1024, 0.0)

    def test_text_estimate_scales_down(self):
        # Text bytes are scaled to estimated binlog bytes first, so the
        # same byte count partitions *less* than raw binlog bytes would.
        one_gb = 1024**3
        assert partitions_for_budget_from_text(
            one_gb, 64.0
        ) < partitions_for_budget(one_gb, 64.0)
