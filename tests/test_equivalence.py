"""Property-based equivalence: all three algorithms ≡ the brute-force oracle.

This is the strongest correctness statement in the suite. For random small
databases and random thresholds, AprioriAll, AprioriSome (with assorted
next(k) policies) and DynamicSome (with assorted steps) must produce the
*identical* set of maximal sequential patterns, with identical support
counts, and that set must equal the answer of the exhaustive oracle.
"""

from functools import partial
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings

from repro import MiningParams, NextLengthPolicy, mine
from repro.baselines.bruteforce import brute_force_mine, count_candidates_naive
from repro.core.hashtree import SequenceHashTree
from repro.db.transform import transform_database
from repro.itemsets.apriori import find_litemsets
from repro.itemsets.litemsets import LitemsetCatalog
from tests import strategies as my

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

AGGRESSIVE_SKIP = NextLengthPolicy(breakpoints=((0.1, 2), (0.5, 3)), max_skip=4)
NEVER_SKIP = NextLengthPolicy(breakpoints=((2.0, 1),), max_skip=1)


def mined_answer(db, params):
    result = mine(db, params)
    return [(p.sequence, p.count) for p in result.patterns]


@given(my.databases(), my.minsups())
@RELAXED
def test_aprioriall_matches_oracle(db, minsup):
    expected = brute_force_mine(db, minsup)
    got = mined_answer(db, MiningParams(minsup=minsup, algorithm="aprioriall"))
    assert got == expected


@given(my.databases(), my.minsups())
@RELAXED
def test_apriorisome_matches_oracle(db, minsup):
    expected = brute_force_mine(db, minsup)
    got = mined_answer(db, MiningParams(minsup=minsup, algorithm="apriorisome"))
    assert got == expected


@pytest.mark.parametrize("policy", [AGGRESSIVE_SKIP, NEVER_SKIP], ids=["skip", "noskip"])
@given(db=my.databases(), minsup=my.minsups())
@RELAXED
def test_apriorisome_policy_independent(db, minsup, policy):
    expected = brute_force_mine(db, minsup)
    got = mined_answer(
        db,
        MiningParams(minsup=minsup, algorithm="apriorisome", next_policy=policy),
    )
    assert got == expected


@pytest.mark.parametrize("step", [1, 2, 3])
@given(db=my.databases(), minsup=my.minsups())
@RELAXED
def test_dynamicsome_matches_oracle(db, minsup, step):
    expected = brute_force_mine(db, minsup)
    got = mined_answer(
        db,
        MiningParams(minsup=minsup, algorithm="dynamicsome", dynamic_step=step),
    )
    assert got == expected


@given(my.databases(), my.minsups())
@RELAXED
def test_naive_counting_matches_oracle(db, minsup):
    """The quadratic reference counter (itself a test oracle) gives every
    oracle pattern its exhaustive support over the transformed database."""
    expected = brute_force_mine(db, minsup)
    catalog = LitemsetCatalog.from_result(find_litemsets(db, minsup))
    tdb = transform_database(db, catalog)
    candidates = [
        tuple(catalog.id_of(event) for event in sequence.events)
        for sequence, _count in expected
    ]
    counts = count_candidates_naive(tdb.sequences, candidates)
    assert [counts[c] for c in candidates] == [count for _, count in expected]


@given(my.databases(), my.minsups())
@RELAXED
def test_tiny_hash_tree_parameters_match_oracle(db, minsup):
    """Degenerate tree shapes (capacity 1, branch 2) must not change answers."""
    expected = brute_force_mine(db, minsup)
    tiny_tree = partial(SequenceHashTree, leaf_capacity=1, branch_factor=2)
    with patch("repro.core.counting.SequenceHashTree", tiny_tree):
        got = mined_answer(db, MiningParams(minsup=minsup, algorithm="apriorisome"))
    assert got == expected


@given(my.databases(max_customers=5), my.minsups())
@RELAXED
def test_max_pattern_length_consistency(db, minsup):
    """With a length cap, all algorithms agree with the capped oracle."""
    expected = brute_force_mine(db, minsup, max_pattern_length=2)
    for algorithm in ("aprioriall", "apriorisome", "dynamicsome"):
        got = mined_answer(
            db,
            MiningParams(minsup=minsup, algorithm=algorithm, max_pattern_length=2),
        )
        assert got == expected, algorithm
