"""Counting-strategy equivalence: hashtree ≡ vertical.

The counting backends must be byte-identical in what they count — for
every algorithm, at the raw engine level and end-to-end through the
miner. The hashtree strategy is the anchor
(its equivalence to the brute-force oracle is established in
test_equivalence.py); vertical must match it exactly. Vertical never
scans the database, so agreement with the hash tree validates the whole
prefix-join machinery, including AprioriSome's skipped passes and the
backward phase. The time-constrained
miner's compiled histories are held against the generic window sweep
over the raw histories.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.counting import COUNTING_STRATEGIES, count_candidates
from repro.miner import ALGORITHM_NAMES, MiningParams, mine
from repro.core.phase import CountingOptions
from repro.extensions import timeconstraints
from repro.extensions.timeconstraints import TimeConstraints, mine_time_constrained
from repro.io.csvio import database_to_transactions
from tests import strategies as my

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def mined_counts(db, minsup, algorithm, **counting_kwargs):
    result = mine(
        db,
        MiningParams(
            minsup=minsup,
            algorithm=algorithm,
            counting=CountingOptions(**counting_kwargs),
        ),
    )
    return (
        [(p.sequence, p.count) for p in result.patterns],
        result.large_counts_by_length,
    )


@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
@given(db=my.databases(), minsup=my.minsups())
@RELAXED
def test_strategies_identical_serial(db, minsup, algorithm):
    anchor = mined_counts(db, minsup, algorithm, strategy="hashtree")
    assert mined_counts(db, minsup, algorithm, strategy="vertical") == anchor


@given(
    sequences=st.lists(my.id_event_sequences(max_id=5), max_size=8),
    candidates=st.sets(my.id_sequences(max_id=5, max_length=3), max_size=12),
)
@RELAXED
def test_raw_engine_equivalence(sequences, candidates):
    """count_candidates itself (no miner, mixed candidate lengths): every
    strategy returns the same dict, zeros included."""
    anchor = count_candidates(sequences, candidates, strategy="hashtree")
    for strategy in COUNTING_STRATEGIES:
        assert count_candidates(sequences, candidates, strategy=strategy) == anchor


TIMED_CONSTRAINTS = [
    TimeConstraints(),
    TimeConstraints(min_gap=1),
    TimeConstraints(max_gap=3),
    TimeConstraints(window_size=1),
    TimeConstraints(min_gap=1, max_gap=4, window_size=1),
]


@pytest.mark.parametrize("constraints", TIMED_CONSTRAINTS)
@given(db=my.databases(max_customers=4, max_events=3))
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_timed_bitset_equals_generic(db, constraints):
    """The compiled (per-item bitmask) histories the timed miner counts
    on give the same patterns as the generic window sweep over the raw
    histories, serial and sharded."""
    rows = list(database_to_transactions(db))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(timeconstraints, "compile_timed", list)
        anchor = mine_time_constrained(rows, 0.4, constraints)
    assert mine_time_constrained(rows, 0.4, constraints) == anchor
    assert (
        mine_time_constrained(rows, 0.4, constraints, workers=2)
        == anchor
    )


def test_unknown_strategy_rejected():
    # The retired backends are unknown names like any other.
    for strategy in ("bogus", "naive", "bitset"):
        with pytest.raises(ValueError, match="unknown counting strategy"):
            count_candidates([], [(1, 2)], strategy=strategy)
        with pytest.raises(ValueError, match="unknown counting strategy"):
            CountingOptions(strategy=strategy)
