"""Micro-benchmarks of the core primitives, with real statistics.

These are classic pytest-benchmark measurements (many rounds) of the hot
paths every experiment exercises: itemset-trie subset lookups, sequence
hash-tree containment lookups, greedy containment, the two pair passes
(the sequence length-2 pass and litemset pass 2), candidate generation,
one PrefixSpan growth round, the maximal filter, and the serving index's
``match`` and ``predict_next`` walks.
"""

import random

import pytest

from repro.baselines.bruteforce import count_candidates_naive
from repro.core.candidates import apriori_generate
from repro.core.counting import COUNTING_STRATEGIES, count_candidates, count_length2
from repro.core.hashtree import SequenceHashTree
from repro.core.maximal import maximal_sequences
from repro.core.prefixspan import (
    _frequent_extensions,
    _grow_children,
    _index_customer,
    _seed_frontier,
)
from repro.core.sequence import OccurrenceIndex, Sequence, id_sequence_contains
from repro.itemsets.apriori import ItemsetTrie, count_item_pairs
from repro.miner import Pattern
from repro.serving.index import PatternIndex

RNG = random.Random(1995)
from pytest_benchmark.fixture import BenchmarkFixture


def _random_id_events(
    num_events: int = 10, alphabet: int = 200, per_event: int = 4
) -> tuple[frozenset[int], ...]:
    return tuple(
        frozenset(RNG.randint(1, alphabet) for _ in range(per_event))
        for _ in range(num_events)
    )


CUSTOMERS = [_random_id_events() for _ in range(300)]
CANDIDATES = sorted(
    {
        (RNG.randint(1, 200), RNG.randint(1, 200), RNG.randint(1, 200))
        for _ in range(500)
    }
)


def test_itemset_trie_subsets(benchmark: BenchmarkFixture) -> None:
    stored = sorted(
        {
            tuple(sorted(RNG.sample(range(1, 120), RNG.randint(1, 3))))
            for _ in range(800)
        }
    )
    trie = ItemsetTrie((itemset, itemset) for itemset in stored)
    transaction = tuple(sorted(RNG.sample(range(1, 120), 8)))
    benchmark(trie.subsets_in, [transaction])


def test_sequence_hashtree_contained_in(benchmark: BenchmarkFixture) -> None:
    tree = SequenceHashTree(CANDIDATES)
    events = CUSTOMERS[0]

    def probe() -> set:
        return tree.contained_in(OccurrenceIndex(events))

    benchmark(probe)


def test_greedy_containment(benchmark: BenchmarkFixture) -> None:
    events = CUSTOMERS[0]
    pattern = CANDIDATES[0]
    benchmark(id_sequence_contains, pattern, events)


def test_count_candidates_hashtree(benchmark: BenchmarkFixture) -> None:
    benchmark.pedantic(
        count_candidates,
        args=(CUSTOMERS, CANDIDATES),
        kwargs={"strategy": "hashtree"},
        rounds=3,
        iterations=1,
    )


def test_count_candidates_vertical(benchmark: BenchmarkFixture) -> None:
    benchmark.pedantic(
        count_candidates,
        args=(CUSTOMERS, CANDIDATES),
        kwargs={"strategy": "vertical"},
        rounds=3,
        iterations=1,
    )


def test_count_length2_fast_path(benchmark: BenchmarkFixture) -> None:
    benchmark.pedantic(count_length2, args=(CUSTOMERS,), rounds=3, iterations=1)


def test_count_item_pairs(benchmark: BenchmarkFixture) -> None:
    """Litemset pass 2 over the customers read as raw transactions: every
    pair of the 200 items is a candidate, at floor 1 (every co-occurring
    pair, as a state snapshot keeps) and at a threshold of 3."""
    items = range(1, 201)
    benchmark.pedantic(
        lambda: (
            count_item_pairs(CUSTOMERS, items, 1),
            count_item_pairs(CUSTOMERS, items, 3),
        ),
        rounds=3,
        iterations=1,
    )


def test_apriori_generate(benchmark: BenchmarkFixture) -> None:
    pairs = sorted({(RNG.randint(1, 60), RNG.randint(1, 60)) for _ in range(900)})
    benchmark(apriori_generate, pairs)


def test_prefixspan_growth_round(benchmark: BenchmarkFixture) -> None:
    """One growth round: the seed frontier's frequent extensions projected
    and their own extensions counted, in one sweep over the indexed
    customers."""
    items = sorted({item for events in CUSTOMERS for event in events for item in event})
    customers = [_index_customer(events) for events in CUSTOMERS]
    frontier = _seed_frontier(customers, items, None)
    survivors = [_frequent_extensions(node, 12) for node in frontier]
    grown = benchmark.pedantic(
        _grow_children,
        args=(customers, frontier, survivors, None),
        rounds=3,
        iterations=1,
    )
    assert len(grown) == sum(map(len, survivors)) > 0


def test_maximal_filter(benchmark: BenchmarkFixture) -> None:
    supported = {}
    for _ in range(400):
        length = RNG.randint(1, 4)
        events = tuple(
            frozenset(RNG.sample(range(1, 40), RNG.randint(1, 2)))
            for _ in range(length)
        )
        supported[events] = RNG.randint(1, 50)
    benchmark.pedantic(maximal_sequences, args=(supported,), rounds=3, iterations=1)


@pytest.mark.parametrize("strategy", COUNTING_STRATEGIES)
def test_counting_strategies_same_result(strategy: str, benchmark: BenchmarkFixture) -> None:
    """Guard: both engines count like the quadratic reference on the
    micro workload."""
    counts = benchmark.pedantic(
        count_candidates,
        args=(CUSTOMERS[:50], CANDIDATES[:100]),
        kwargs={"strategy": strategy},
        rounds=1,
        iterations=1,
    )
    assert counts == count_candidates_naive(CUSTOMERS[:50], CANDIDATES[:100])


Query = list[tuple[int, ...]]


@pytest.fixture(scope="module")
def serving_index() -> tuple[PatternIndex, list[Query]]:
    """3,000 random patterns of one to four events whose root has several
    hundred edges, and 50 eight-event queries that each embed one of
    them in wider events, so the walk goes below the root."""
    rng = random.Random(31)
    events = sorted(
        {tuple(sorted(rng.sample(range(1, 301), rng.randint(1, 2)))) for _ in range(600)}
    )
    sequences = sorted(
        {tuple(rng.choice(events) for _ in range(rng.randint(1, 4))) for _ in range(3000)}
    )
    patterns = [
        Pattern(sequence=Sequence(list(seq)), count=count, support=count / 100)
        for seq in sequences
        for count in [rng.randint(1, 100)]
    ]
    queries = []
    for _ in range(50):
        embedded = rng.choice(sequences)
        query = [tuple(rng.sample(range(1, 301), 3)) for _ in range(8)]
        for position, event in zip(sorted(rng.sample(range(8), len(embedded))), embedded):
            query[position] += event
        queries.append(query)
    index = PatternIndex(patterns)
    assert len(index.predict_next([], 1000)) > 300  # root edges
    return index, queries


def test_pattern_index_match(
    benchmark: BenchmarkFixture, serving_index: tuple[PatternIndex, list[Query]]
) -> None:
    index, queries = serving_index
    matched = benchmark(lambda: [index.match(query) for query in queries])
    assert all(matched)


def test_pattern_index_predict_next(
    benchmark: BenchmarkFixture, serving_index: tuple[PatternIndex, list[Query]]
) -> None:
    index, queries = serving_index
    predicted = benchmark(lambda: [index.predict_next(query, 5) for query in queries])
    assert all(len(predictions) == 5 for predictions in predicted)
