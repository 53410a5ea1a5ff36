"""Tests for instrumentation (stats) and shared phase types."""

import pytest

from repro.core.phase import CountingOptions, SequencePhaseResult
from repro.core.stats import AlgorithmStats, PassStats, PhaseTimings
from repro.miner import MiningParams


class TestPassStats:
    def test_hit_ratio(self):
        p = PassStats(length=2, phase="forward", num_candidates=10,
                      num_large=4, elapsed_seconds=0.1)
        assert p.hit_ratio == pytest.approx(0.4)

    def test_hit_ratio_zero_candidates(self):
        p = PassStats(length=2, phase="forward", num_candidates=0,
                      num_large=0, elapsed_seconds=0.0)
        assert p.hit_ratio == 0.0


class TestAlgorithmStats:
    def make(self):
        stats = AlgorithmStats("x")
        stats.record_pass(length=1, phase="litemset", num_candidates=5,
                          num_large=5, elapsed_seconds=0.0)
        stats.record_pass(length=2, phase="forward", num_candidates=25,
                          num_large=7, elapsed_seconds=0.2)
        stats.record_pass(length=3, phase="backward", num_candidates=4,
                          num_large=2, elapsed_seconds=0.1)
        stats.record_generated(2, 25)
        stats.record_generated(3, 9)
        stats.record_generated(3, 1)
        return stats

    def test_totals(self):
        stats = self.make()
        assert stats.total_candidates_counted == 34
        assert stats.total_large == 14
        assert stats.total_generated == 35
        assert stats.generated_candidates[3] == 10

    def test_counted_lengths_sorted_unique(self):
        stats = self.make()
        stats.record_pass(length=2, phase="backward", num_candidates=1,
                          num_large=0, elapsed_seconds=0.0)
        assert stats.counted_lengths == [1, 2, 3]


class TestPhaseTimings:
    def test_total_and_row(self):
        t = PhaseTimings(
            sort_seconds=0.1,
            litemset_seconds=0.2,
            transform_seconds=0.3,
            sequence_seconds=0.4,
            maximal_seconds=0.5,
        )
        assert t.total_seconds == pytest.approx(1.5)
        row = t.as_row()
        assert row["total"] == pytest.approx(1.5)
        assert row["sort"] == pytest.approx(0.1)


class TestSequencePhaseResult:
    def test_all_large_and_max_length(self):
        result = SequencePhaseResult()
        result.large_by_length[1] = {(1,): 3, (2,): 2}
        result.large_by_length[2] = {(1, 2): 2}
        result.large_by_length[3] = {}
        assert result.all_large() == {(1,): 3, (2,): 2, (1, 2): 2}
        assert result.max_length == 2  # empty L3 ignored
        assert result.num_large() == 3

    def test_empty(self):
        result = SequencePhaseResult()
        assert result.all_large() == {}
        assert result.max_length == 0


class TestCountingOptions:
    def test_kwargs_roundtrip(self):
        opts = CountingOptions(strategy="vertical")
        assert opts.kwargs() == {"strategy": "vertical", "checkpoint": None}

    def test_rejects_bad_parallel_knobs(self):
        # Counting runs serially: the options take no worker knob, and
        # the one on MiningParams must be a count of processes.
        with pytest.raises(TypeError):
            CountingOptions(workers=2)
        with pytest.raises(ValueError, match="workers must be >= 0"):
            MiningParams(minsup=0.5, algorithm="prefixspan", workers=-1)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            CountingOptions().strategy = "vertical"
