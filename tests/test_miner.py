"""Pipeline tests: golden answers, parameter validation, instrumentation."""

import pytest

from repro import (
    ALGORITHM_NAMES,
    MiningParams,
    SequenceDatabase,
    Transaction,
    mine,
    mine_from_transactions,
    mine_sequential_patterns,
)
from repro.core.phase import CountingOptions
from repro.core.sequence import Sequence
from repro.miner import assemble_patterns
from tests.test_database import paper_db


class TestGoldenExample:
    """The paper's running example, for every algorithm."""

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_answer(self, algorithm):
        result = mine_sequential_patterns(paper_db(), 0.25, algorithm=algorithm)
        assert [str(p.sequence) for p in result.patterns] == [
            "<(30)(40 70)>",
            "<(30)(90)>",
        ]
        assert [p.count for p in result.patterns] == [2, 2]
        assert [p.support for p in result.patterns] == [0.4, 0.4]

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_supports_verifiable_against_raw_db(self, algorithm):
        db = paper_db()
        result = mine_sequential_patterns(db, 0.25, algorithm=algorithm)
        for pattern in result.patterns:
            assert db.support_count(pattern.sequence) == pattern.count

    def test_threshold_and_litemsets(self):
        result = mine_sequential_patterns(paper_db(), 0.25)
        assert result.threshold == 2
        assert result.num_customers == 5
        assert result.num_litemsets == 5

    def test_large_counts_by_length(self):
        result = mine_sequential_patterns(paper_db(), 0.25)
        # L1 = 5 litemsets; L2 = {<(30)(40)>, <(30)(70)>, <(30)(40 70)>,
        # <(30)(90)>} over ids.
        assert result.large_counts_by_length[1] == 5
        assert result.large_counts_by_length[2] == 4

    def test_higher_minsup_fewer_patterns(self):
        result = mine_sequential_patterns(paper_db(), 0.8)
        assert [str(p.sequence) for p in result.patterns] == ["<(30)>"]


class TestParams:
    def test_invalid_minsup(self):
        with pytest.raises(ValueError):
            MiningParams(minsup=0.0)
        with pytest.raises(ValueError):
            MiningParams(minsup=1.2)

    def test_invalid_algorithm(self):
        # "prefixspan" used to be the canonical unknown name here; it is
        # a real algorithm now (PR 9), so the guard needs a fake one.
        with pytest.raises(ValueError):
            MiningParams(minsup=0.5, algorithm="gsp")

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            MiningParams(minsup=0.5, dynamic_step=0)

    @pytest.mark.parametrize("cap", [0, -1])
    @pytest.mark.parametrize("field", ["max_pattern_length", "max_litemset_size"])
    def test_length_cap_below_one_rejected(self, field, cap):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            MiningParams(minsup=0.5, **{field: cap})

    def test_length_cap_of_one_accepted(self):
        params = MiningParams(minsup=0.5, max_pattern_length=1, max_litemset_size=1)
        assert (params.max_pattern_length, params.max_litemset_size) == (1, 1)

    def test_with_override(self):
        params = MiningParams(minsup=0.5)
        assert params.with_(algorithm="apriorisome").algorithm == "apriorisome"
        assert params.minsup == 0.5

    def test_counting_options_threaded(self):
        params = MiningParams(
            minsup=0.25, counting=CountingOptions(strategy="vertical")
        )
        result = mine(paper_db(), params)
        assert [str(p.sequence) for p in result.patterns] == [
            "<(30)(40 70)>",
            "<(30)(90)>",
        ]


class TestPipelineMechanics:
    def test_mine_from_transactions_sorts_first(self):
        rows = [
            Transaction(1, 2, (90,)),
            Transaction(1, 1, (30,)),
            Transaction(2, 5, (30,)),
            Transaction(2, 9, (90,)),
        ]
        result = mine_from_transactions(rows, MiningParams(minsup=1.0))
        assert [str(p.sequence) for p in result.patterns] == ["<(30)(90)>"]
        assert result.timings.sort_seconds >= 0.0

    def test_empty_database(self):
        result = mine_sequential_patterns(SequenceDatabase([]), 0.5)
        assert result.patterns == []
        assert result.num_patterns == 0

    def test_database_without_frequent_items(self):
        db = SequenceDatabase.from_sequences([[(1,)], [(2,)], [(3,)]])
        result = mine_sequential_patterns(db, 0.5)
        assert result.patterns == []

    def test_max_pattern_length_cap(self):
        db = SequenceDatabase.from_sequences(
            [[(1,), (2,), (3,)], [(1,), (2,), (3,)]]
        )
        capped = mine_sequential_patterns(db, 1.0, max_pattern_length=2)
        assert all(p.sequence.length <= 2 for p in capped.patterns)
        full = mine_sequential_patterns(db, 1.0)
        assert [str(p.sequence) for p in full.patterns] == ["<(1)(2)(3)>"]

    def test_max_litemset_size_cap(self):
        db = SequenceDatabase.from_sequences([[(1, 2, 3)], [(1, 2, 3)]])
        result = mine_sequential_patterns(db, 1.0, max_litemset_size=2)
        assert all(
            len(event) <= 2 for p in result.patterns for event in p.sequence
        )

    def test_timings_cover_all_phases(self):
        result = mine_sequential_patterns(paper_db(), 0.25)
        row = result.timings.as_row()
        assert set(row) == {
            "sort",
            "litemset",
            "transform",
            "sequence",
            "maximal",
            "total",
        }
        assert row["total"] >= 0

    def test_summary_mentions_algorithm(self):
        result = mine_sequential_patterns(paper_db(), 0.25, algorithm="apriorisome")
        assert "apriorisome" in result.summary()

    def test_patterns_sorted_deterministically(self):
        result = mine_sequential_patterns(paper_db(), 0.25)
        keys = [p.sequence.sort_key() for p in result.patterns]
        assert keys == sorted(keys)

    def test_sequences_accessor(self):
        result = mine_sequential_patterns(paper_db(), 0.25)
        assert [str(s) for s in result.sequences()] == [
            "<(30)(40 70)>",
            "<(30)(90)>",
        ]

    def test_pattern_str(self):
        result = mine_sequential_patterns(paper_db(), 0.25)
        assert "support" in str(result.patterns[0])


class TestAssemblePatterns:
    COUNTS = {
        (frozenset({90}),): 3,
        (frozenset({30}), frozenset({70, 40})): 2,
        (frozenset({30}), frozenset({90})): 2,
    }

    def test_sort_key_order_and_support(self):
        patterns = assemble_patterns(self.COUNTS, 5)
        # By length first, then lexicographically by event.
        assert [str(p.sequence) for p in patterns] == [
            "<(90)>",
            "<(30)(40 70)>",
            "<(30)(90)>",
        ]
        keys = [p.sequence.sort_key() for p in patterns]
        assert keys == sorted(keys)
        assert patterns[1].sequence == Sequence([[30], [40, 70]])
        assert [(p.count, p.support) for p in patterns] == [
            (3, 3 / 5),
            (2, 2 / 5),
            (2, 2 / 5),
        ]

    def test_zero_customers_give_zero_support(self):
        patterns = assemble_patterns({(frozenset({1}),): 0}, 0)
        assert [(p.count, p.support) for p in patterns] == [(0, 0.0)]

    def test_empty(self):
        assert assemble_patterns({}, 10) == []


class TestAlgorithmStats:
    def test_aprioriall_counts_every_length(self):
        result = mine_sequential_patterns(paper_db(), 0.25, algorithm="aprioriall")
        stats = result.algorithm_stats
        assert stats.algorithm == "aprioriall"
        assert stats.counted_lengths[:2] == [1, 2]
        assert stats.total_candidates_counted >= stats.total_large

    def test_apriorisome_may_skip_but_same_answer(self):
        some = mine_sequential_patterns(paper_db(), 0.25, algorithm="apriorisome")
        full = mine_sequential_patterns(paper_db(), 0.25, algorithm="aprioriall")
        assert [str(p.sequence) for p in some.patterns] == [
            str(p.sequence) for p in full.patterns
        ]

    def test_dynamicsome_step_variants_agree(self):
        answers = set()
        for step in (1, 2, 3):
            result = mine_sequential_patterns(
                paper_db(), 0.25, algorithm="dynamicsome", dynamic_step=step
            )
            answers.add(tuple(str(p.sequence) for p in result.patterns))
        assert len(answers) == 1
