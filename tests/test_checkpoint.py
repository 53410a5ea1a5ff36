"""Checkpoint/resume: the durable pass store and byte-identical restart.

Two layers: unit tests of :class:`repro.io.checkpoint.CheckpointStore`
(config binding, ordered replay, byte-stable pass files, divergence and
corruption errors), and
the end-to-end property the subsystem exists for — a mining run
interrupted after any number of completed passes resumes from disk and
produces results identical to an uninterrupted run, for every algorithm
× counting strategy × both storage paths.
"""

import json
import random

import pytest

from repro.core.counting import COUNTING_STRATEGIES
from repro.core.passkey import pass_digest
from repro.core.phase import CountingOptions
from repro.db.database import CustomerSequence, SequenceDatabase
from repro.db.partitioned import PartitionedDatabase
from repro.io.checkpoint import (
    CheckpointError,
    CheckpointStore,
    pass_file_name,
)
from repro.miner import ALGORITHM_NAMES, MiningParams, mine

CONFIG = {"minsup": 0.25, "algorithm": "aprioriall", "input": "x.spmf"}


def small_db(seed: int = 11, customers: int = 30) -> SequenceDatabase:
    rng = random.Random(seed)
    records = [
        CustomerSequence(
            customer_id=cid,
            events=tuple(
                tuple(sorted(rng.sample(range(1, 12), rng.randint(1, 3))))
                for _ in range(rng.randint(1, 4))
            ),
        )
        for cid in range(1, customers + 1)
    ]
    return SequenceDatabase(records)


def mined(db, store, algorithm="aprioriall", strategy="hashtree", minsup=0.2):
    result = mine(
        db,
        MiningParams(
            minsup=minsup,
            algorithm=algorithm,
            counting=CountingOptions(strategy=strategy, checkpoint=store),
        ),
    )
    return [(p.sequence, p.count) for p in result.patterns]


class TestCheckpointStore:
    def test_attach_creates_then_reopens(self, tmp_path):
        store = CheckpointStore.attach(tmp_path / "ck", CONFIG)
        assert store.num_stored == 0
        assert CheckpointStore.read_config(tmp_path / "ck") == CONFIG
        again = CheckpointStore.attach(tmp_path / "ck", CONFIG)
        assert again.num_stored == 0

    def test_different_config_refused(self, tmp_path):
        CheckpointStore.attach(tmp_path / "ck", CONFIG)
        with pytest.raises(CheckpointError, match="different run config"):
            CheckpointStore.attach(tmp_path / "ck", {**CONFIG, "minsup": 0.5})

    def test_record_replay_round_trip_sorts_keys_and_keeps_types(
        self, tmp_path
    ):
        digest = pass_digest("candidates", [(3, 1), (1, 2), (1, 10)])
        counts = {(3, 1): 7, (1, 10): 2, (1, 2): 0}
        CheckpointStore.attach(tmp_path / "ck", CONFIG).record(
            "candidates", digest, counts
        )
        resumed = CheckpointStore.attach(tmp_path / "ck", CONFIG)
        assert resumed.num_stored == 1
        replayed = resumed.replay("candidates", digest)
        assert replayed == counts
        # Keys come back in key order (numeric, not text), whatever
        # order the pass found them in.
        assert list(replayed) == [(1, 2), (1, 10), (3, 1)]
        assert all(isinstance(key, tuple) for key in replayed)

    @pytest.mark.parametrize(
        "kind,counts",
        [
            ("items", {12: 3, 5: 1, 40: 9, 7: 0}),
            ("length2", {(4, 1): 2, (1, 4): 5, (1, 12): 1, (2, 2): 7}),
        ],
    )
    def test_pass_files_are_byte_stable(self, tmp_path, kind, counts):
        """The same counts found in two orders give identical bytes."""
        digest = pass_digest(kind, ())
        reordered = dict(reversed(list(counts.items())))
        assert list(reordered) != list(counts)
        for name, found in (("a", counts), ("b", reordered)):
            CheckpointStore.attach(tmp_path / name, CONFIG).record(
                kind, digest, found
            )
        first = (tmp_path / "a" / pass_file_name(0)).read_bytes()
        assert (tmp_path / "b" / pass_file_name(0)).read_bytes() == first

    def test_items_kind_round_trips_int_keys(self, tmp_path):
        digest = pass_digest("items", ())
        CheckpointStore.attach(tmp_path / "ck", CONFIG).record(
            "items", digest, {5: 3, 2: 9}
        )
        replayed = CheckpointStore.attach(tmp_path / "ck", CONFIG).replay(
            "items", digest
        )
        assert replayed == {5: 3, 2: 9}
        assert all(isinstance(key, int) for key in replayed)

    def test_replay_past_end_returns_none_and_records_append(self, tmp_path):
        store = CheckpointStore.attach(tmp_path / "ck", CONFIG)
        digest = pass_digest("length2", ())
        assert store.replay("length2", digest) is None
        store.record("length2", digest, {(1, 2): 4})
        assert store.num_recorded == 1
        assert (tmp_path / "ck" / pass_file_name(0)).exists()

    def test_divergent_pass_detected(self, tmp_path):
        digest = pass_digest("candidates", [(1,)])
        CheckpointStore.attach(tmp_path / "ck", CONFIG).record(
            "candidates", digest, {(1,): 2}
        )
        resumed = CheckpointStore.attach(tmp_path / "ck", CONFIG)
        other = pass_digest("candidates", [(9,)])
        with pytest.raises(CheckpointError, match="diverged from checkpoint"):
            resumed.replay("candidates", other)

    def test_corrupt_pass_file_is_a_checkpoint_error(self, tmp_path):
        store = CheckpointStore.attach(tmp_path / "ck", CONFIG)
        digest = pass_digest("length2", ())
        store.record("length2", digest, {(1, 2): 4})
        (tmp_path / "ck" / pass_file_name(0)).write_text("{torn", encoding="utf-8")
        resumed = CheckpointStore.attach(tmp_path / "ck", CONFIG)
        with pytest.raises(CheckpointError, match="corrupt pass file"):
            resumed.replay("length2", digest)

    def test_corrupt_meta_is_a_checkpoint_error(self, tmp_path):
        (tmp_path / "ck").mkdir()
        (tmp_path / "ck" / "checkpoint.json").write_text("[]", encoding="utf-8")
        with pytest.raises(CheckpointError, match="checkpoint meta"):
            CheckpointStore.read_config(tmp_path / "ck")

    def test_pass_files_are_valid_json_with_stable_schema(self, tmp_path):
        store = CheckpointStore.attach(tmp_path / "ck", CONFIG)
        digest = pass_digest("items", ())
        store.record("items", digest, {1: 1})
        payload = json.loads(
            (tmp_path / "ck" / pass_file_name(0)).read_text(encoding="utf-8")
        )
        assert payload["format"] == "seqmine-checkpoint-pass"
        assert payload["kind"] == "items"
        assert payload["digest"] == digest
        assert payload["counts"] == {"1": 1}


class TestCheckpointedMining:
    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    @pytest.mark.parametrize("strategy", COUNTING_STRATEGIES)
    def test_full_replay_identical_all_algorithms_strategies(
        self, tmp_path, algorithm, strategy
    ):
        db = small_db()
        baseline = mined(db, None, algorithm, strategy)

        recording = CheckpointStore.attach(tmp_path / "ck", CONFIG)
        first = mined(db, recording, algorithm, strategy)
        assert first == baseline
        assert recording.num_recorded > 0

        replaying = CheckpointStore.attach(tmp_path / "ck", CONFIG)
        second = mined(db, replaying, algorithm, strategy)
        assert second == baseline
        assert replaying.num_recorded == 0
        assert replaying.num_replayed == recording.num_recorded

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_partitioned_storage_replays_identically(
        self, tmp_path, algorithm
    ):
        db = small_db()
        pdb = PartitionedDatabase.from_database(
            db, tmp_path / "parts", partitions=3
        )
        baseline = mined(pdb, None, algorithm)

        recording = CheckpointStore.attach(tmp_path / "ck", CONFIG)
        assert mined(pdb, recording, algorithm) == baseline

        replaying = CheckpointStore.attach(tmp_path / "ck", CONFIG)
        assert mined(pdb, replaying, algorithm) == baseline
        assert replaying.num_recorded == 0

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_resume_from_every_truncation_point(self, tmp_path, algorithm):
        """Simulate a crash after each completed pass by truncating the
        store to its first k pass files: the resumed run must replay
        exactly k and recount the rest, with identical results."""
        db = small_db()
        full = CheckpointStore.attach(tmp_path / "full", CONFIG)
        baseline = mined(db, full, algorithm)
        total = full.num_recorded

        for keep in range(total):
            directory = tmp_path / f"cut-{keep}"
            store = CheckpointStore.attach(directory, CONFIG)
            mined(db, store, algorithm)
            for index in range(keep, total):
                (directory / pass_file_name(index)).unlink()
            resumed = CheckpointStore.attach(directory, CONFIG)
            assert resumed.num_stored == keep
            assert mined(db, resumed, algorithm) == baseline
            assert resumed.num_replayed == keep
            assert resumed.num_recorded == total - keep

    def test_changed_threshold_diverges_mid_run(self, tmp_path):
        """A resumed run that would generate a different candidate set
        at a recorded position must fail loudly, not replay stale
        counts. (The CLI prevents this by binding the full mine
        configuration to the store; this exercises the backstop.)"""
        db = small_db()
        recording = CheckpointStore.attach(tmp_path / "ck", CONFIG)
        mined(db, recording, minsup=0.2)
        resumed = CheckpointStore.attach(tmp_path / "ck", CONFIG)
        with pytest.raises(CheckpointError, match="diverged"):
            mined(db, resumed, minsup=0.3)
