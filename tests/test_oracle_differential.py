"""Differential-oracle suite: every backend against two independent baselines.

The cross-product the rest of the suite only samples: AprioriAll,
AprioriSome, DynamicSome and the PrefixSpan engine × both counting
strategies (the candidate family; pattern growth has none) × in-memory
and disk-partitioned (the engine only through its own entry point:
``mine`` runs it in memory only), with the engine serial and at
``workers=2``, each required to
report the *identical* maximal pattern set with identical support counts
as

* ``baselines/bruteforce.py`` — the exhaustive enumeration oracle, and
* ``baselines/prefixspan.py`` — an independently-implemented
  pattern-growth miner sharing no code path with the Apriori family
  (and only projection *helpers*, not the search, with the engine),

on small datagen-generated databases with pinned seeds (the generator is
deterministic per (params, seed), so every run of this suite checks the
exact same databases — failures reproduce). A Hypothesis property layers
random hand-rolled databases on top of the pinned synthetic ones.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import brute_force_mine
from repro.baselines.prefixspan import prefixspan_mine
from repro.core.counting import COUNTING_STRATEGIES
from repro.core.maximal import maximal_sequences
from repro.core.prefixspan import mine_prefixspan
from repro.miner import (
    ALGORITHM_NAMES,
    ALL_ALGORITHM_NAMES,
    MiningParams,
    assemble_patterns,
    mine,
)
from repro.core.phase import CountingOptions
from repro.datagen.generator import generate_database
from repro.datagen.params import SyntheticParams
from repro.db.database import SequenceDatabase
from repro.db.partitioned import PartitionedDatabase
from tests import strategies as my

#: Deterministic generator inputs: tiny enough for the exponential
#: oracle, varied enough (different seeds) to exercise different
#: litemset alphabets and pattern shapes.
PINNED_SEEDS = (3, 11, 29)
MINSUP = 0.25

TINY_PARAMS = SyntheticParams(
    num_customers=8,
    num_pattern_sequences=4,
    num_pattern_itemsets=8,
    num_items=12,
    avg_transactions_per_customer=3.0,
    avg_items_per_transaction=1.6,
    avg_pattern_sequence_length=2.0,
    avg_pattern_itemset_size=1.2,
)


def answer(db, algorithm, strategy="hashtree", workers=1):
    result = mine(
        db,
        MiningParams(
            minsup=MINSUP,
            algorithm=algorithm,
            counting=CountingOptions(strategy=strategy),
            workers=workers,
        ),
    )
    return [(p.sequence, p.count) for p in result.patterns]


@pytest.fixture(scope="module", params=PINNED_SEEDS)
def pinned(request):
    """One pinned database with both baselines' answers, computed once."""
    db = generate_database(TINY_PARAMS, seed=request.param)
    oracle = brute_force_mine(db, MINSUP)
    prefixspan = [
        (p.sequence, p.count) for p in prefixspan_mine(db, MINSUP, maximal=True)
    ]
    return db, oracle, prefixspan


def test_baselines_agree_with_each_other(pinned):
    """The two independent baselines must agree before they judge anyone."""
    _db, oracle, prefixspan = pinned
    assert prefixspan == oracle
    assert oracle, "expected the pinned databases to contain patterns"


@pytest.mark.parametrize("strategy", COUNTING_STRATEGIES)
@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_serial_backends_match_oracle(pinned, algorithm, strategy):
    db, oracle, _prefixspan = pinned
    assert answer(db, algorithm, strategy) == oracle


@pytest.mark.parametrize("strategy", COUNTING_STRATEGIES)
def test_partitioned_backends_match_oracle(tmp_path, pinned, strategy):
    """The out-of-core path joins the differential."""
    db, oracle, _prefixspan = pinned
    pdb = PartitionedDatabase.from_database(
        db, tmp_path / "parts", partitions=3
    )
    assert answer(pdb, "aprioriall", strategy) == oracle


@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_partitioned_algorithms_match_oracle(tmp_path, pinned, algorithm):
    """Every algorithm × strategy setting on the out-of-core path."""
    db, oracle, _prefixspan = pinned
    pdb = PartitionedDatabase.from_database(
        db, tmp_path / "parts", partitions=2
    )
    for strategy in COUNTING_STRATEGIES:
        got = answer(pdb, algorithm, strategy)
        assert got == oracle, strategy


@pytest.mark.parametrize("workers", [1, 2])
def test_prefixspan_engine_matches_oracle(pinned, workers):
    """The pattern-growth engine, serial and seed-sharded, in-memory."""
    db, oracle, _prefixspan = pinned
    assert answer(db, "prefixspan", workers=workers) == oracle


@pytest.mark.parametrize("workers", [1, 2])
def test_prefixspan_engine_partitioned_matches_oracle(
    tmp_path, pinned, workers
):
    """``mine`` refuses a partitioned database for the engine, which
    mines in memory only; the engine itself reads one into memory, and
    its maximal patterns must still be the oracle's, serial or sharded."""
    db, oracle, _prefixspan = pinned
    pdb = PartitionedDatabase.from_database(
        db, tmp_path / "parts", partitions=3
    )
    with pytest.raises(ValueError, match="in memory only"):
        answer(pdb, "prefixspan", workers=workers)
    grown = mine_prefixspan(pdb, MINSUP, workers=workers)
    patterns = assemble_patterns(
        maximal_sequences(grown.frequent), pdb.num_customers
    )
    assert [(p.sequence, p.count) for p in patterns] == oracle


@given(
    customer_events=st.lists(
        my.event_lists(max_item=5, max_size=2, max_events=3),
        min_size=1,
        max_size=5,
    ),
    minsup=st.sampled_from([0.4, 0.6, 1.0]),
    strategy=st.sampled_from(COUNTING_STRATEGIES),
)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_property_random_databases_match_oracle(
    customer_events, minsup, strategy
):
    """Random databases: every algorithm under a sampled strategy must
    reproduce the oracle — the Hypothesis layer over the pinned seeds.

    The shapes here are deliberately tighter than
    :func:`tests.strategies.databases` (which ``test_equivalence.py``
    explores): at a threshold of one customer a dense all-identical
    database snowballs AprioriSome's candidates-from-candidates
    generation into seconds per example, and this test mines every
    example three times.
    """
    db = SequenceDatabase.from_sequences(customer_events)
    oracle = brute_force_mine(db, minsup)
    for algorithm in ALL_ALGORITHM_NAMES:
        result = mine(
            db,
            MiningParams(
                minsup=minsup,
                algorithm=algorithm,
                counting=CountingOptions(
                    # Counting strategies only exist for the candidate
                    # family; the pattern-growth engine rejects any
                    # non-default value.
                    strategy="hashtree" if algorithm == "prefixspan"
                    else strategy,
                ),
            ),
        )
        assert [(p.sequence, p.count) for p in result.patterns] == oracle
