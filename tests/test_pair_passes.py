"""The two pair passes: litemset pass 2 and the sequence length-2 pass.

Both count in integer space (one code per pair, one sort-based tally)
and return only the pairs at or above a floor. The kernels are checked
against the generic counters over the fully materialized pair
candidates, on Hypothesis databases, on edge cases and on the
1,000-customer ``mine-apriori`` population; the bench-scale pins hold
every ``--save-state`` file, checkpoint pass file and pass-statistics
row to the values the dict-sweep passes produced.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import count_candidates_naive
from repro.core.apriorisome import apriori_some
from repro.core.counting import (
    COUNTING_STRATEGIES,
    count_hashtree,
    count_length2,
    pair_floor,
)
from repro.core.phase import CountingOptions
from repro.datagen.generator import generate_database
from repro.datagen.params import SyntheticParams
from repro.db.database import SequenceDatabase
from repro.db.transform import transform_database
from repro.io.checkpoint import CheckpointStore
from repro.io.patterns import format_pattern_line
from repro.io.state import write_mining_state
from repro.itemsets.apriori import (
    ItemsetTrie,
    count_customer_supports,
    count_item_pairs,
    count_item_supports,
    find_litemsets,
)
from repro.itemsets.litemsets import LitemsetCatalog
from repro.miner import ALGORITHM_NAMES, MiningParams, mine
from tests import strategies as my

#: The ``mine-apriori`` population and threshold.
CUSTOMERS, MINSUP = 1000, 0.0125


@pytest.fixture(scope="module")
def population():
    return generate_database(
        SyntheticParams.from_name("C10-T2.5-S4-I1.25", num_customers=CUSTOMERS),
        seed=0,
    )


def _trie_counts(customers, candidates):
    """The trie path of ``count_customer_supports``: every candidate in
    one :class:`ItemsetTrie`, each customer's contained ones counted once."""
    trie = ItemsetTrie((candidate, candidate) for candidate in candidates)
    counts = dict.fromkeys(candidates, 0)
    for events in customers:
        for candidate in set(trie.subsets_in(events)):
            counts[candidate] += 1
    return counts


def _at_floor(counts, floor):
    return {key: count for key, count in counts.items() if count >= floor}


def _occurring_pairs(rows):
    """The definition of length-2 support, pair by pair: ``a`` in some
    event, ``b`` in a later one."""
    counts: dict[tuple[int, int], int] = {}
    for events in rows:
        pairs = {
            (a, b)
            for index, earlier in enumerate(events)
            for later in events[index + 1 :]
            for a in earlier
            for b in later
        }
        for pair in pairs:
            counts[pair] = counts.get(pair, 0) + 1
    return counts


class TestPairFloor:
    def test_threshold_without_state_or_checkpoint(self):
        assert pair_floor(7, collect_counts=False, checkpoint=None) == 7

    def test_one_with_state_or_checkpoint(self, tmp_path):
        store = CheckpointStore.attach(tmp_path / "ck", {"run": 1})
        assert pair_floor(7, collect_counts=True, checkpoint=None) == 1
        assert pair_floor(7, collect_counts=False, checkpoint=store) == 1


class TestLength2Kernel:
    @given(
        st.lists(my.id_event_sequences(max_id=6), max_size=7),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=100)
    def test_matches_naive_over_all_pairs(self, sequences, threshold):
        alphabet = sorted({i for seq in sequences for ev in seq for i in ev})
        all_pairs = [(a, b) for a in alphabet for b in alphabet]
        naive = count_candidates_naive(sequences, all_pairs)
        assert count_length2(sequences) == _at_floor(naive, 1)
        assert count_length2(sequences, floor=threshold) == _at_floor(
            naive, threshold
        )

    def test_edge_cases(self):
        big = 999_983  # the pair codes range over about big² > 2³²
        rows = [
            (),
            (frozenset({5}),),
            (frozenset({5, 9}),),
            (frozenset({5}), frozenset({5})),
            (frozenset({2, big}), frozenset({big}), frozenset({40})),
            (frozenset({big}), frozenset({2})),
        ]
        counts = count_length2(rows)
        assert counts == _occurring_pairs(rows)
        assert counts[(5, 5)] == 1
        assert counts[(big, big)] == 1
        assert counts[(2, big)] == 1 and counts[(big, 2)] == 1
        assert counts[(big, 40)] == 1 and counts[(2, 40)] == 1
        assert count_length2(rows, floor=2) == {}
        assert count_length2([(), (frozenset({1}),)]) == {}
        assert count_length2([]) == {}
        negative = [(frozenset({-2, 4}), frozenset({-2}))]
        assert count_length2(negative) == {(-2, -2): 1, (4, -2): 1}
        with pytest.raises(ValueError, match="too many to code"):
            count_length2([(frozenset({0}), frozenset({2**40}))])

    def test_checkpointed_pass_counts_every_pair(self, tmp_path):
        store = CheckpointStore.attach(tmp_path / "ck", {"run": 1})
        with pytest.raises(ValueError, match="floor 1"):
            count_length2([], floor=2, checkpoint=store)

    def test_bench_population(self, population):
        threshold = population.threshold(MINSUP)
        catalog = LitemsetCatalog.from_result(find_litemsets(population, MINSUP))
        rows = list(transform_database(population, catalog).sequences)
        every = count_length2(rows)
        assert every == _occurring_pairs(rows)
        large = count_length2(rows, floor=threshold)
        assert large == _at_floor(every, threshold)
        assert (len(every), len(large)) == (144_489, 1_397)
        # The generic engine over a materialized slice of C_2: every
        # large pair plus a sample of the rest, occurring or not.
        ids = sorted(catalog.ids)
        rng = random.Random(0)
        sample = set(large) | {
            (rng.choice(ids), rng.choice(ids)) for _ in range(3000)
        }
        counted = count_hashtree(rows, sorted(sample))
        assert counted == {pair: every.get(pair, 0) for pair in sample}


class TestItemPairKernel:
    @given(
        st.lists(my.event_lists(max_item=7, max_size=4, max_events=4), max_size=7),
        st.sets(st.integers(min_value=1, max_value=7)),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=100)
    def test_matches_trie_over_all_pairs(self, customers, items, threshold):
        pairs = list(combinations(sorted(items), 2))
        trie = _trie_counts(customers, pairs) if pairs else {}
        assert count_item_pairs(customers, items, 1) == _at_floor(trie, 1)
        assert count_item_pairs(customers, items, threshold) == _at_floor(
            trie, threshold
        )
        assert count_customer_supports(customers, pairs) == _at_floor(trie, 1)

    def test_edge_cases(self):
        big = 999_983  # items are coded by rank, so gaps cost nothing
        customers = [
            [],
            [(3,)],
            [(3, 8, big), (3, 8)],
            [(8, big), (1, 3)],
            [(3, 8, 40)],
        ]
        items = {3, 8, 40, big}
        assert count_item_pairs(customers, items, 1) == {
            (3, 8): 2, (3, 40): 1, (3, big): 1, (8, 40): 1, (8, big): 2,
        }
        assert count_item_pairs(customers, items, 2) == {(3, 8): 2, (8, big): 2}
        assert count_item_pairs(customers, {3}, 1) == {}
        assert count_item_pairs([], items, 1) == {}
        spread = [[(-5, -3, 2**70)], [(-5, 2**70)]]
        assert count_item_pairs(spread, {-5, -3, 2**70}, 1) == {
            (-5, -3): 1, (-5, 2**70): 2, (-3, 2**70): 1,
        }

    def test_bench_population(self, population):
        threshold = population.threshold(MINSUP)
        customers = [customer.events for customer in population]
        items = sorted(
            item for item, n in count_item_supports(population).items()
            if n >= threshold
        )
        pairs = list(combinations(items, 2))
        trie = _trie_counts(customers, pairs)
        every = count_item_pairs(customers, items, 1)
        assert every == _at_floor(trie, 1)
        assert count_item_pairs(customers, items, threshold) == _at_floor(
            trie, threshold
        )
        assert (len(pairs), len(every)) == (181_503, 6_115)


class TestCollectedCounts:
    DB = SequenceDatabase.from_sequences(
        [[(1, 2), (3,)], [(1, 2)], [(1,), (3,)], [(2, 3)]]
    )

    def test_border_only_when_collected(self):
        plain = find_litemsets(self.DB, 0.5)
        assert plain.counted_supports == {}
        assert plain.supports == {(1,): 3, (2,): 3, (3,): 3, (1, 2): 2}
        collected = find_litemsets(self.DB, 0.5, collect_counts=True)
        assert collected.supports == plain.supports
        assert collected.passes == plain.passes
        assert collected.counted_supports == {(1, 2): 2, (1, 3): 0, (2, 3): 1}

    def test_apriorisome_records_length2_without_large_pairs(self):
        """No large pair: the length-2 row still counts |L_1|² and the
        thresholded pass leaves the border incomplete."""
        db = SequenceDatabase.from_sequences(
            [[(1,), (2,)], [(2,), (1,)], [(1,), (3,)], [(3,), (2,)]]
        )
        catalog = LitemsetCatalog.from_result(find_litemsets(db, 0.5))
        tdb = transform_database(db, catalog)
        for collect_counts in (False, True):
            result = apriori_some(tdb, 2, collect_counts=collect_counts)
            length2 = [p for p in result.stats.passes if p.length == 2]
            assert [(p.num_candidates, p.num_large) for p in length2] == [(9, 0)]
            assert result.length2_complete is collect_counts
            assert result.large_by_length.keys() == {1}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: Checkpoint pass files by kind and sha256, as the dict-sweep passes
#: wrote them; every engine and strategy shares the litemset and
#: length-2 passes.
_SHARED = [
    ("items", "129602de551112107a3cebfbad7b5100937de134c9e90df62e83fd46ec51fb6f"),
    ("itemsets", "3a210e7cbdaa3079a53eaee2f79379dabc08cc5073c2b46de4ffb1791db9f28f"),
    ("itemsets", "8de58490fe00ec99430b6534cac8839e651d7d8720c57dff00d7a9a472ab6853"),
    ("itemsets", "5fb184a782f8a6fdd9d207212ad9897acbc15405ac9daa789b11181fb44a7ec1"),
    ("itemsets", "5290b04e9fcca58b4cc14a4e6b0ba957930ebc13f4c7052278387e28abaf2875"),
    ("length2", "d776c8c8b66e31067f7998921ef12f0083386b79f5f3bdb964d9a8596c943b4e"),
]
_LEVEL_WISE = _SHARED + [
    ("candidates", "f78273576362642735ae7a06896be2b7230de92f56491fc6de9b5d6dc0206584"),
    ("candidates", "4190880f1e766e350455495e01cf0e694e221a6dde1987bd3d40ccfb18b2f9d5"),
    ("candidates", "e732ab8a10f583e0605a86b8bf21831a3ed83c28b4e0662b77cce17dc7d9e73b"),
]
_DYNAMIC = _SHARED + [
    ("onthefly", "669d18289992f96b725bb4268ce496e749eb7b46f330cc26b5afa1a0ef7ac83f"),
    ("onthefly", "69fb2b6897e8233711e559a023d135d020bd3d98deee4695890ac21137dea191"),
    ("candidates", "e732ab8a10f583e0605a86b8bf21831a3ed83c28b4e0662b77cce17dc7d9e73b"),
    ("candidates", "b52444ece7b13ec405d2b8aa6adc24e0a5f13308a144bd7b02b1aaad36f5df1a"),
]
_LEVEL_WISE_ROWS = [
    (1, "litemset", 966, 966),
    (2, "forward", 933_156, 1397),
    (3, "forward", 3996, 1700),
    (4, "forward", 1206, 535),
    (5, "forward", 31, 21),
]
_DYNAMIC_ROWS = [
    (1, "litemset", 966, 966),
    (2, "initialization", 933_156, 1397),
    (4, "forward", 80041, 535),
    (6, "forward", 651, 0),
    (5, "backward", 31, 21),
    (3, "backward", 3220, 924),
]


class TestBenchScaleByteIdentity:
    """1,000 customers of C10-T2.5-S4-I1.25 at the ``mine-apriori``
    minsup, per engine and strategy: a plain run (pair passes at the
    threshold), a ``collect_state`` run and a checkpointed run (both at
    floor 1) report the same passes, and the state file and every
    checkpoint pass file hash to what the dict-sweep passes wrote."""

    PATTERNS = "5cec7710de8ac50c347c27929da71a472e593f14ed0c7f39120e3f93d7e9698d"
    #: |L_1| = 966 litemsets; pass 2 of the litemset phase counts the
    #: 603·602/2 pairs of large items.
    LITEMSET_ROWS = [
        (1, 3404, 603), (2, 181_503, 235), (3, 113, 98), (4, 27, 27), (5, 3, 3),
    ]
    EXPECTED = {
        ("aprioriall", "hashtree"): (
            "1885b0daf22a965656584d106201636c78d6847c7816fcb7c6cfae1d4a72f461",
            _LEVEL_WISE, _LEVEL_WISE_ROWS,
        ),
        ("aprioriall", "vertical"): (
            "8b04f6ef22fee76762250785811cc1a2182cb4bc0946813dc105e87a6bfafe4d",
            _LEVEL_WISE, _LEVEL_WISE_ROWS,
        ),
        ("apriorisome", "hashtree"): (
            "27799394b09126a61fb35d930c4c86c6c9cf77030d793ced6ca81d061bd54ca5",
            _LEVEL_WISE, _LEVEL_WISE_ROWS,
        ),
        ("apriorisome", "vertical"): (
            "65dee6ddc2e7be34882fe6653e90b9b5763b2dc481c662e4aceacbc986591b17",
            _LEVEL_WISE, _LEVEL_WISE_ROWS,
        ),
        ("dynamicsome", "hashtree"): (
            "a6f1e865af5594c268580fd8ea7d99dbf5411574cc16ec16c6d1b234df3eca1e",
            _DYNAMIC, _DYNAMIC_ROWS,
        ),
        ("dynamicsome", "vertical"): (
            "a3a30a976a1cac342c667fe254c002e3011537adaec5ed569f10dc0ce1812f6d",
            _DYNAMIC, _DYNAMIC_ROWS,
        ),
    }

    @pytest.mark.parametrize("strategy", COUNTING_STRATEGIES)
    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_files_and_passes_unchanged(
        self, population, tmp_path, algorithm, strategy
    ):
        state_sha, pass_files, rows = self.EXPECTED[(algorithm, strategy)]
        params = MiningParams(
            minsup=MINSUP,
            algorithm=algorithm,
            counting=CountingOptions(strategy=strategy),
        )
        store = CheckpointStore.attach(tmp_path / "ck", {"case": algorithm})
        runs = [
            mine(population, params),
            mine(population, params, collect_state=True),
            mine(
                population,
                params.with_(
                    counting=CountingOptions(strategy=strategy, checkpoint=store)
                ),
            ),
        ]
        for result in runs:
            assert [
                (p.length, p.phase, p.num_candidates, p.num_large)
                for p in result.algorithm_stats.passes
            ] == rows
            assert [
                (p.length, p.num_candidates, p.num_large)
                for p in result.litemset_result.passes
            ] == self.LITEMSET_ROWS
            patterns = "".join(format_pattern_line(p) + "\n" for p in result.patterns)
            assert _sha(patterns.encode()) == self.PATTERNS
        assert runs[0].litemset_result.counted_supports == {}
        write_mining_state(runs[1].state, tmp_path / "state.json")
        assert _sha((tmp_path / "state.json").read_bytes()) == state_sha
        written = sorted((tmp_path / "ck").glob("pass-*.json"))
        assert [
            (json.loads(path.read_text())["kind"], _sha(path.read_bytes()))
            for path in written
        ] == pass_files
