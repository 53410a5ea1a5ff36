"""The production PrefixSpan engine (:mod:`repro.core.prefixspan`).

Five layers of evidence, mirroring how the engine is wired in:

* **Unit**: paper example, projection helpers, result accessors,
  validation, the pseudo-projection invariants, and the per-customer
  item-position index the sweeps count and project through.
* **Differential**: the engine against the independent depth-first
  baseline on random databases (the searches share projection helpers
  but nothing else), across ``max_pattern_length`` caps.
* **Storage/parallel equivalence**: ``mine`` refuses a partitioned
  database for the engine; handed one directly, the engine reads it
  twice and grows in memory, and that run and the seed-sharded parallel
  runs must be byte-identical to the serial in-memory run.
* **Bench scale**: on 600 generated customers (13,907 frequent
  sequences) every storage × workers run gives the same frequent set
  and the same pinned growth rounds, a disk-backed input is decoded twice
  per record however many rounds run, and the maximal patterns equal
  ``aprioriall``/``vertical``'s.
* **Boundary pins**: the exact ``len(prefix) == max_pattern_length``
  semantics (s-extensions blocked, i-extensions allowed — the cap
  counts *events*) and the ``support_threshold`` rounding boundaries,
  agreed across all four algorithms.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.prefixspan import prefixspan_mine
from repro.core.maximal import maximal_sequences
from repro.core.phase import CountingOptions
from repro.core.prefixspan import (
    _count_extensions,
    _Extension,
    _index_customer,
    _new_node,
    _project_children,
    count_item_supports,
    first_event_containing,
    first_event_with_item,
    grow_seed_range,
    mine_prefixspan,
    project_customers,
    project_events,
)
from repro.datagen.generator import generate_database
from repro.datagen.params import SyntheticParams
from repro.db.database import SequenceDatabase, support_threshold
from repro.db.partitioned import PartitionedDatabase
from repro.io.binlog import BinlogReader
from repro.miner import ALL_ALGORITHM_NAMES, MiningParams, mine
from tests import strategies as my
from tests.test_database import paper_db


def frequent_of(db, minsup, **kwargs):
    return mine_prefixspan(db, minsup, **kwargs).frequent


def count_decodes(monkeypatch):
    """A list that grows by one per binlog record decoded from now on."""
    decoded = []
    decode = BinlogReader._decode_record

    def counted(reader, payload, start, number):
        decoded.append(number)
        return decode(reader, payload, start, number)

    monkeypatch.setattr(BinlogReader, "_decode_record", counted)
    return decoded


def baseline_frequent(db, minsup, max_pattern_length=None):
    return {
        tuple(frozenset(event) for event in p.sequence): p.count
        for p in prefixspan_mine(
            db, minsup, max_pattern_length=max_pattern_length
        )
    }


class TestHelpers:
    def test_project_events_filters_and_drops_empty(self):
        events = [(1, 2), (3,), (2, 4)]
        assert project_events(events, frozenset({2, 4})) == (
            frozenset({2}),
            frozenset({2, 4}),
        )

    def test_project_events_keeps_order(self):
        events = [(5,), (1,), (5, 1)]
        assert project_events(events, frozenset({1, 5})) == (
            frozenset({5}),
            frozenset({1}),
            frozenset({1, 5}),
        )

    def test_first_event_probes(self):
        events = (frozenset({1}), frozenset({1, 2}), frozenset({2, 3}))
        assert first_event_with_item(events, 2, 0) == 1
        assert first_event_with_item(events, 2, 2) == 2
        assert first_event_with_item(events, 9, 0) is None
        assert first_event_containing(events, frozenset({1, 2}), 0) == 1
        assert first_event_containing(events, frozenset({1, 2}), 2) is None

    def test_count_item_supports_is_per_customer(self):
        db = SequenceDatabase.from_sequences(
            [[(1,), (1,), (1, 2)], [(2,)]]
        )
        counts = count_item_supports(db)
        assert counts == {1: 1, 2: 2}


def events_of(*events):
    return tuple(frozenset(event) for event in events)


def counted(events, prefix, position):
    """One node's (s, i) extension counts over one customer matched at
    ``position``."""
    node = _new_node(events_of(*prefix), None)
    node.projections.append((0, position))
    _count_extensions([_index_customer(events)], [node])
    return dict(node.s_counts), dict(node.i_counts)


def projected(events, position, prefix, i_event, item):
    """The matched position of one child extending a parent matched at
    ``position``, or ``None`` when the customer does not support it."""
    child = _new_node(events_of(*prefix), None)
    extension = _Extension(
        prefix=child.prefix,
        i_event=None if i_event is None else frozenset(i_event),
        item=item,
    )
    _project_children(
        [_index_customer(events)], [(0, position)], [extension], [child]
    )
    matches = child.projections
    assert len(matches) <= 1
    return matches[0][1] if matches else None


class TestItemPositionIndex:
    def test_index_fields(self):
        events = events_of({1, 2}, {2}, {1, 3})
        index = _index_customer(events)
        assert index.events is events
        assert index.where == {1: [0, 2], 2: [0, 1], 3: [2]}
        assert [set(items) for items in index.after] == [{1, 2, 3}, {1, 3}, set()]
        assert index.ordered == [(1, 2), (2,), (1, 3)]

    def test_item_repeated_across_events(self):
        events = events_of({1}, {2}, {2}, {2, 3})
        # Each customer counts an item once, however many events hold it.
        assert counted(events, [{1}], 0) == ({2: 1, 3: 1}, {})
        # The s-child matches the first event holding the item after the
        # parent's position, not any later one.
        assert projected(events, 0, [{1}, {2}], None, 2) == 1
        assert projected(events, 1, [{1}, {2}, {2}], None, 2) == 2
        assert projected(events, 2, [{1}, {2}, {2}, {2}], None, 2) == 3
        assert projected(events, 3, [{1}, {2}, {2}, {2}, {2}], None, 2) is None

    def test_multi_item_last_event_needs_the_whole_event(self):
        # Event 1 holds last_max = 2 but not 1: it extends no prefix
        # ending in (1 2), so 3 is neither counted nor projected.
        events = events_of({1, 2}, {2, 3})
        assert counted(events, [{1, 2}], 0) == ({2: 1, 3: 1}, {})
        assert projected(events, 0, [{1, 2, 3}], {1, 2, 3}, 3) is None
        # Once a later event holds the whole last event, it does.
        events = events_of({1, 2}, {2, 3}, {1, 2, 3})
        assert counted(events, [{1, 2}], 0) == ({1: 1, 2: 1, 3: 1}, {3: 1})
        assert projected(events, 0, [{1, 2, 3}], {1, 2, 3}, 3) == 2

    def test_i_child_projects_to_earliest_event_with_the_extended_event(self):
        # Item 3 first occurs at 1, but only event 2 holds (1 3).
        events = events_of({1}, {3}, {1, 3})
        assert counted(events, [{1}], 0) == ({1: 1, 3: 1}, {3: 1})
        assert projected(events, 0, [{1, 3}], {1, 3}, 3) == 2

    def test_empty_suffix_after_the_matched_position(self):
        events = events_of({1}, {2, 5})
        # Matched at the last event: no s-extension, and only the items
        # above last_max within that event as i-extensions.
        assert counted(events, [{1}, {2}], 1) == ({}, {5: 1})
        assert projected(events, 1, [{1}, {2}, {5}], None, 5) is None
        assert projected(events, 1, [{1}, {2, 5}], {2, 5}, 5) == 1
        assert counted(events_of({1}, {2}), [{1}, {2}], 1) == ({}, {})

    @pytest.mark.parametrize(
        "customers",
        [
            [[(1,), (2,), (2,), (2, 3)], [(2,), (1,), (2,)]],
            [[(1, 2), (2, 3)], [(1, 2), (2, 3), (1, 2, 3)]],
            [[(1,), (3,), (1, 3)], [(1, 3)], [(3,), (1,)]],
            [[(1,), (2, 5)], [(1,), (2,)], [(2, 5), (1,)]],
        ],
    )
    def test_cases_match_the_oracle(self, customers):
        db = SequenceDatabase.from_sequences(customers)
        for minsup in (0.3, 0.6, 1.0):
            assert frequent_of(db, minsup) == baseline_frequent(db, minsup)


class TestEngine:
    def test_paper_example_maximal(self):
        result = mine_prefixspan(paper_db(), 0.25)
        maximal = maximal_sequences(result.frequent)
        rendered = sorted(
            tuple(tuple(sorted(event)) for event in events)
            for events in maximal
        )
        assert rendered == [((30,), (40, 70)), ((30,), (90,))]

    def test_paper_example_matches_baseline_exactly(self):
        db = paper_db()
        assert frequent_of(db, 0.25) == baseline_frequent(db, 0.25)

    def test_empty_database(self):
        result = mine_prefixspan(SequenceDatabase([]), 0.5)
        assert result.frequent == {}
        assert result.num_customers == 0

    def test_no_frequent_items(self):
        db = SequenceDatabase.from_sequences([[(1,)], [(2,)], [(3,)]])
        assert frequent_of(db, 1.0) == {}

    def test_minsup_validation(self):
        db = paper_db()
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                mine_prefixspan(db, bad)
        with pytest.raises(ValueError):
            mine_prefixspan(db, 0.5, max_pattern_length=0)

    def test_result_accessors(self):
        db = paper_db()
        result = mine_prefixspan(db, 0.25)
        # Every large itemset surfaces as a single-event frequent
        # sequence, so the litemset surrogate matches the real phase.
        from repro.itemsets.apriori import find_litemsets

        litemsets = find_litemsets(db, 0.25)
        assert result.litemset_supports() == dict(litemsets.supports)
        by_length = result.counts_by_length()
        assert by_length[1] == sum(
            1 for events in result.frequent if len(events) == 1
        )
        assert sum(by_length.values()) == len(result.frequent)

    def test_stats_record_seed_and_growth_rounds(self):
        result = mine_prefixspan(paper_db(), 0.25)
        phases = [p.phase for p in result.stats.passes]
        assert phases[0] == "items"
        assert all(phase == "growth" for phase in phases[1:])
        assert len(phases) > 1

    def test_grow_seed_range_is_disjoint_union(self):
        db = paper_db()
        result = mine_prefixspan(db, 0.25)
        threshold = db.threshold(0.25)
        seeds = sorted(
            item
            for item, count in count_item_supports(db).items()
            if count >= threshold
        )
        projected = project_customers(db, frozenset(seeds))
        merged = {}
        for seed in seeds:
            part = grow_seed_range(projected, [seed], threshold, None)
            assert not (merged.keys() & part.keys())
            merged.update(part)
        assert merged == result.frequent


class TestDifferentialAgainstBaseline:
    @given(
        customer_events=st.lists(
            my.event_lists(max_item=6, max_size=3, max_events=4),
            min_size=1,
            max_size=6,
        ),
        minsup=st.sampled_from([0.2, 0.4, 0.6, 1.0]),
        cap=st.sampled_from([None, 1, 2, 3]),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_full_frequent_set_matches_baseline(
        self, customer_events, minsup, cap
    ):
        db = SequenceDatabase.from_sequences(customer_events)
        assert frequent_of(
            db, minsup, max_pattern_length=cap
        ) == baseline_frequent(db, minsup, max_pattern_length=cap)


class TestStorageAndParallelEquivalence:
    """The engine mines in memory only: ``mine`` refuses a partitioned
    database for it, and the engine itself, handed any database, reads
    it twice (item counts, then projection) and keeps the projected
    customers resident, serial or seed-sharded."""

    def test_mine_rejects_partitioned_database(self, tmp_path):
        pdb = PartitionedDatabase.from_database(
            paper_db(), tmp_path / "p", partitions=2
        )
        with pytest.raises(ValueError, match="in memory only"):
            mine(pdb, MiningParams(minsup=0.25, algorithm="prefixspan"))

    @pytest.mark.parametrize("partitions", [1, 2, 5])
    def test_partitioned_matches_in_memory(
        self, tmp_path, monkeypatch, partitions
    ):
        db = paper_db()
        pdb = PartitionedDatabase.from_database(
            db, tmp_path / f"p{partitions}", partitions=partitions
        )
        decoded = count_decodes(monkeypatch)
        assert frequent_of(pdb, 0.25) == frequent_of(db, 0.25)
        assert len(decoded) == 2 * len(db)

    def test_partitioned_with_delta_generations(self, tmp_path):
        """Appended deltas reach the engine's read of the database like
        base customers."""
        db = paper_db()
        base = SequenceDatabase(list(db)[:3])
        pdb = PartitionedDatabase.from_database(
            base, tmp_path / "p", partitions=2
        )
        pdb.append_delta(iter(list(db)[3:]))
        assert frequent_of(pdb, 0.25) == frequent_of(db, 0.25)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_parallel_matches_serial(self, workers):
        db = paper_db()
        assert frequent_of(db, 0.25, workers=workers) == frequent_of(
            db, 0.25
        )

    def test_parallel_partitioned_matches_serial(self, tmp_path):
        db = paper_db()
        pdb = PartitionedDatabase.from_database(
            db, tmp_path / "p", partitions=3
        )
        assert frequent_of(pdb, 0.25, workers=2) == frequent_of(db, 0.25)


class TestBenchScaleDifferential:
    """600 customers of C10-T2.5-S4-I1.25 (generator seed 0) at minsup
    0.011: 13,907 frequent sequences of up to six events, grown over
    eleven rounds. Every storage × workers configuration gives the same
    full frequent set, the growth rounds match the pinned counts, and
    the maximal patterns are ``aprioriall``/``vertical``'s."""

    MINSUP = 0.011

    #: ``(length, phase, num_candidates, num_large)`` of every round.
    ROUNDS = [
        (0, "items", 3131, 792),
        (1, "growth", 60512, 980),
        (2, "growth", 51105, 1690),
        (3, "growth", 66630, 2677),
        (4, "growth", 87392, 3182),
        (5, "growth", 92225, 2601),
        (6, "growth", 68937, 1389),
        (7, "growth", 33892, 474),
        (8, "growth", 10628, 106),
        (9, "growth", 2184, 15),
        (10, "growth", 296, 1),
        (11, "growth", 20, 0),
    ]

    @pytest.fixture(scope="class")
    def setup(self, tmp_path_factory):
        params = SyntheticParams.from_name(
            "C10-T2.5-S4-I1.25", num_customers=600
        )
        db = generate_database(params, seed=0)
        pdb = PartitionedDatabase.from_database(
            db, tmp_path_factory.mktemp("parts"), partitions=4
        )
        return db, pdb, mine_prefixspan(db, self.MINSUP)

    @staticmethod
    def rounds(result):
        return [
            (p.length, p.phase, p.num_candidates, p.num_large)
            for p in result.stats.passes
        ]

    def test_in_memory_growth_rounds(self, setup):
        _db, _pdb, result = setup
        assert len(result.frequent) == 13907
        assert result.counts_by_length() == {
            1: 1357, 2: 2744, 3: 4506, 4: 3899, 5: 1227, 6: 174,
        }
        assert self.rounds(result) == self.ROUNDS

    def test_partitioned_matches_in_memory(self, setup, monkeypatch):
        """Eleven growth rounds, yet each stored record is decoded twice:
        once to count items, once to project. Growth never goes back to
        the disk."""
        db, pdb, result = setup
        decoded = count_decodes(monkeypatch)
        grown = mine_prefixspan(pdb, self.MINSUP)
        assert len(decoded) == 2 * len(db)
        assert grown.frequent == result.frequent
        assert self.rounds(grown) == self.ROUNDS

    @pytest.mark.parametrize("storage", ["memory", "partitioned"])
    def test_two_workers_match_serial(self, setup, storage):
        """The shards' growth rounds, summed round by round, are the
        serial rounds: the seeds root disjoint subtrees."""
        db, pdb, result = setup
        data = db if storage == "memory" else pdb
        grown = mine_prefixspan(data, self.MINSUP, workers=2)
        assert grown.frequent == result.frequent
        assert self.rounds(grown) == self.ROUNDS

    def test_maximal_patterns_match_aprioriall_vertical(self, setup):
        db, _pdb, result = setup
        vertical = mine(
            db,
            MiningParams(
                minsup=self.MINSUP,
                counting=CountingOptions(strategy="vertical"),
            ),
        )
        grown = mine(db, MiningParams(minsup=self.MINSUP, algorithm="prefixspan"))
        expected = [(p.sequence, p.count) for p in vertical.patterns]
        assert [(p.sequence, p.count) for p in grown.patterns] == expected
        assert len(maximal_sequences(result.frequent)) == len(expected)


class TestMaxPatternLengthBoundary:
    """Pin the exact cap semantics at ``len(prefix) == max_pattern_length``.

    The cap counts **events**. An s-extension opens a new event, so it is
    blocked once the prefix holds ``cap`` events; an i-extension only
    widens the last event, so it is still allowed at the cap. Baseline,
    engine, and the core (transformed-alphabet) miner must agree — in the
    id alphabet a sequence of k litemset ids has exactly k events, so the
    three notions of "length" coincide.
    """

    #: Both customers support <(1)(2)> and <(1)(2 3)>: at cap 2 the
    #: prefix (1)(2) sits exactly at the boundary — growing 3 *into* the
    #: last event is legal (still 2 events), appending (3) is not.
    BOUNDARY_DB = [
        [(1,), (2, 3)],
        [(1,), (2, 3), (4,)],
    ]

    def test_i_extension_allowed_at_cap(self):
        db = SequenceDatabase.from_sequences(self.BOUNDARY_DB)
        frequent = frequent_of(db, 1.0, max_pattern_length=2)
        assert (frozenset({1}), frozenset({2, 3})) in frequent

    def test_s_extension_blocked_at_cap(self):
        db = SequenceDatabase.from_sequences(self.BOUNDARY_DB)
        frequent = frequent_of(db, 0.5, max_pattern_length=2)
        assert all(len(events) <= 2 for events in frequent)
        # Without the cap, the 3-event sequence is frequent at 0.5.
        uncapped = frequent_of(db, 0.5)
        assert any(len(events) == 3 for events in uncapped)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_all_four_algorithms_agree_at_cap(self, cap):
        db = paper_db()
        answers = {}
        for algorithm in ALL_ALGORITHM_NAMES:
            result = mine(
                db,
                MiningParams(
                    minsup=0.25,
                    algorithm=algorithm,
                    max_pattern_length=cap,
                ),
            )
            answers[algorithm] = [
                (p.sequence, p.count) for p in result.patterns
            ]
        baseline = [
            (p.sequence, p.count)
            for p in prefixspan_mine(
                db, 0.25, max_pattern_length=cap, maximal=True
            )
        ]
        for algorithm, got in answers.items():
            assert got == baseline, algorithm

    @given(
        customer_events=st.lists(
            my.event_lists(max_item=5, max_size=2, max_events=4),
            min_size=1,
            max_size=5,
        ),
        cap=st.sampled_from([1, 2]),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_property_engine_and_baseline_agree_at_cap(
        self, customer_events, cap
    ):
        db = SequenceDatabase.from_sequences(customer_events)
        assert frequent_of(
            db, 0.5, max_pattern_length=cap
        ) == baseline_frequent(db, 0.5, max_pattern_length=cap)


class TestSupportThresholdBoundaries:
    """``support_threshold`` rounding boundaries, agreed by all four
    algorithms (ISSUE 9 satellite; src/repro/db/database.py:102).

    The interesting minsup values are where ``minsup * num_customers``
    is exactly integral — the paper's "min_support customers or more"
    must include equality — and one floating-point ulp to either side,
    where naive ``ceil`` without the epsilon guard would jump a whole
    customer.
    """

    @pytest.mark.parametrize("num_customers", [4, 5, 8, 10])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_integral_and_ulp_neighbors(self, num_customers, k):
        if k > num_customers:
            pytest.skip("threshold above database size")
        exact = k / num_customers
        for minsup in (
            math.nextafter(exact, 0.0),
            exact,
            math.nextafter(exact, 1.0),
        ):
            got = support_threshold(minsup, num_customers)
            # The epsilon guard absorbs ±1ulp noise around an integral
            # product: all three neighbors land on the same threshold.
            assert got == max(1, k), (minsup, num_customers)

    @pytest.mark.parametrize(
        "minsup",
        [
            2 / 5,
            math.nextafter(2 / 5, 0.0),
            math.nextafter(2 / 5, 1.0),
            3 / 5,
            math.nextafter(3 / 5, 0.0),
        ],
    )
    def test_all_four_algorithms_agree_at_boundary(self, minsup):
        db = paper_db()  # 5 customers
        answers = []
        for algorithm in ALL_ALGORITHM_NAMES:
            result = mine(db, MiningParams(minsup=minsup, algorithm=algorithm))
            answers.append([(p.sequence, p.count) for p in result.patterns])
        assert all(got == answers[0] for got in answers[1:])
        assert answers[0], "boundary minsup should still admit patterns"

    @given(
        customer_events=st.lists(
            my.event_lists(max_item=5, max_size=2, max_events=3),
            min_size=2,
            max_size=6,
        ),
        k=st.integers(min_value=1, max_value=3),
        direction=st.sampled_from([-1, 0, 1]),
    )
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_property_boundary_minsup_identical_pattern_sets(
        self, customer_events, k, direction
    ):
        db = SequenceDatabase.from_sequences(customer_events)
        n = db.num_customers
        if k > n:
            return
        exact = k / n
        if direction < 0:
            minsup = math.nextafter(exact, 0.0)
        elif direction > 0:
            minsup = min(1.0, math.nextafter(exact, 1.0))
        else:
            minsup = exact
        answers = []
        for algorithm in ALL_ALGORITHM_NAMES:
            result = mine(db, MiningParams(minsup=minsup, algorithm=algorithm))
            answers.append([(p.sequence, p.count) for p in result.patterns])
        assert all(got == answers[0] for got in answers[1:])
