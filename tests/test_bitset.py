"""Unit and property tests for the bitset-compiled database layer.

Covers the length-2 occurring-pairs sweep against the raw-sequence
reference, the compiled database container (slicing, pickling), and the
once-per-mining-run compilation contract via the module compile counters
(the vertical strategy compiles once; the timed miner compiles its
histories once).
"""

import pickle

from hypothesis import given, settings

from repro.core import bitset
from repro.core.bitset import CompiledDatabase, CompiledSequence, ensure_compiled
from repro.core.counting import count_candidates, count_length2
from repro.miner import MiningParams, mine
from repro.core.phase import CountingOptions
from repro.db.database import SequenceDatabase
from tests import strategies as my


def events(*ids_per_event):
    return tuple(frozenset(ids) for ids in ids_per_event)


class TestWholePatternPrimitives:
    @given(my.id_event_sequences())
    @settings(max_examples=100)
    def test_occurring_pairs_match_sweep(self, seq):
        cs = CompiledSequence.from_events(seq)
        assert set(cs.occurring_pairs()) == set(count_length2([seq]))

    def test_masks_cross_word_boundary(self):
        # 70 events: occurrences straddle the 64-bit machine-word
        # boundary, which arbitrary-precision masks must not care about.
        seq = events(*[{1} if i % 7 == 0 else {2} for i in range(70)])
        cs = CompiledSequence.from_events(seq)
        assert cs.num_events == 70
        assert cs.masks[1] == sum(1 << i for i in range(0, 70, 7))
        assert set(cs.occurring_pairs()) == {(1, 1), (1, 2), (2, 1), (2, 2)}


class TestCompiledDatabase:
    SEQS = [
        events({1}, {2}, {1}),
        events({2, 3}, {1}),
        events({3}, {3}, {2}),
    ]

    def test_len_iter_index(self):
        db = CompiledDatabase.compile(self.SEQS)
        assert len(db) == 3
        assert all(isinstance(c, CompiledSequence) for c in db)
        assert db[1].masks == {2: 0b01, 3: 0b01, 1: 0b10}

    def test_slice_is_compiled_shard(self):
        db = CompiledDatabase.compile(self.SEQS)
        shard = db[1:3]
        assert isinstance(shard, CompiledDatabase)
        assert len(shard) == 2
        assert shard[0] is db[1]  # no recompilation, same objects

    def test_ensure_compiled_passthrough(self):
        db = CompiledDatabase.compile(self.SEQS)
        before = bitset.COMPILE_CALLS
        assert ensure_compiled(db) is db
        assert bitset.COMPILE_CALLS == before

    def test_pickle_roundtrip(self):
        # The spawn start method ships compiled shards through the pool
        # initializer, so the compiled forms must pickle faithfully.
        db = CompiledDatabase.compile(self.SEQS)
        clone = pickle.loads(pickle.dumps(db))
        assert len(clone) == len(db)
        for original, copied in zip(db, clone):
            assert copied.masks == original.masks
            assert copied.num_events == original.num_events

    def test_counting_accepts_compiled_input(self):
        db = CompiledDatabase.compile(self.SEQS)
        candidates = [(1, 2), (2, 1), (3, 2), (9, 9)]
        raw = count_candidates(self.SEQS, candidates)
        assert count_candidates(db, candidates, strategy="vertical") == raw
        assert count_length2(db) == count_length2(self.SEQS)


class TestCompileOncePerRun:
    """The acceptance contract: one compile call per mining run, no
    per-pass recompilation on the vertical path."""

    @staticmethod
    def _multi_pass_db():
        # Long shared prefixes force several counting passes (k >= 4).
        return SequenceDatabase.from_sequences([
            [(1,), (2,), (3,), (4,), (5,)],
            [(1,), (2,), (3,), (4,)],
            [(1,), (2,), (3,), (4,), (5,)],
        ])

    def test_one_compile_for_multi_pass_mine(self):
        db = self._multi_pass_db()
        for algorithm in ("aprioriall", "apriorisome", "dynamicsome"):
            before = bitset.COMPILE_CALLS
            result = mine(
                db,
                MiningParams(
                    minsup=0.6,
                    algorithm=algorithm,
                    counting=CountingOptions(strategy="vertical"),
                ),
            )
            assert max(result.large_counts_by_length) >= 4  # really multi-pass
            assert bitset.COMPILE_CALLS - before == 1, algorithm

    def test_one_compile_with_parallel_workers(self):
        # The parent compiles once; candidate shards count against the
        # parent's inversion, so workers never recompile in-parent.
        db = self._multi_pass_db()
        before = bitset.COMPILE_CALLS
        mine(
            db,
            MiningParams(
                minsup=0.6,
                counting=CountingOptions(
                    strategy="vertical", workers=2, chunk_size=1
                ),
            ),
        )
        assert bitset.COMPILE_CALLS - before == 1

    def test_non_bitset_strategies_never_compile(self):
        # The hash tree is the one strategy that scans the raw sequences.
        db = self._multi_pass_db()
        before = bitset.COMPILE_CALLS
        for algorithm in ("aprioriall", "apriorisome", "dynamicsome"):
            mine(db, MiningParams(minsup=0.6, algorithm=algorithm))
        assert bitset.COMPILE_CALLS == before

    def test_timed_empty_element_matches_raw_path(self):
        # An empty pattern element matches every transaction in the raw
        # window sweep; the compiled mask path must agree instead of
        # walking bits past the end of the history.
        from repro.extensions.timeconstraints import (
            CompiledTimedSequence,
            TimeConstraints,
            contains_timed,
            window_matches,
        )

        events = ((1, frozenset({1})), (3, frozenset({2})))
        compiled = CompiledTimedSequence.from_events(events)
        empty = frozenset()
        assert compiled.element_windows(empty, 0) == window_matches(events, empty, 0)
        assert contains_timed(compiled, (empty,), TimeConstraints()) == contains_timed(
            events, (empty,), TimeConstraints()
        )

    @staticmethod
    def _timed_rows():
        from repro.db.records import Transaction

        return [
            Transaction(customer_id=cid, transaction_time=when, items=items)
            for cid, history in enumerate([
                [(1, (1,)), (2, (2,)), (3, (3,)), (4, (4,))],
                [(1, (1,)), (3, (2,)), (5, (3,)), (7, (4,))],
            ])
            for when, items in history
        ]

    def test_timed_mining_compiles_once(self):
        from repro.extensions import timeconstraints as tc

        rows = self._timed_rows()
        before = tc.TIMED_COMPILE_CALLS
        patterns = tc.mine_time_constrained(rows, 0.5)
        assert max(len(p.sequence) for p in patterns) == 4  # multi-pass
        assert tc.TIMED_COMPILE_CALLS - before == 1

    def test_timed_mining_compiles_once_with_parallel_workers(self):
        # The parent compiles once; workers receive slices of the
        # compiled histories and never compile again.
        from repro.extensions import timeconstraints as tc

        rows = self._timed_rows()
        before = tc.TIMED_COMPILE_CALLS
        parallel = tc.mine_time_constrained(rows, 0.5, workers=2, chunk_size=1)
        assert tc.TIMED_COMPILE_CALLS - before == 1
        assert parallel == tc.mine_time_constrained(rows, 0.5)
