"""Incremental mining subsystem: differential tests and edge cases.

The load-bearing property: for any base database, delta, algorithm,
counting strategy and worker count, ``mine(base, collect_state=True) →
append_delta → update_mining`` must report **byte-identical** patterns
and supports to a full re-mine of the grown database. Deltas here cover
all three shapes — new customers, overlay transactions onto existing
customers, and mixtures — plus the frontier-moving cases: border
candidates promoted above the threshold, large patterns demoted by a
rising threshold, and litemset ids that did not exist in the base
alphabet at all.
"""

import random

import pytest

from repro.miner import MiningParams, mine
from repro.core.counting import COUNTING_STRATEGIES
from repro.core.phase import CountingOptions
from repro.datagen.generator import generate_database
from repro.datagen.params import SyntheticParams
from repro.db.database import CustomerSequence, SequenceDatabase
from repro.db.partitioned import PartitionedDatabase
from repro.incremental import UpdateStats, update_mining
from repro.io.binlog import BinlogReader, read_binlog, write_binlog
from repro.io.patterns import format_pattern_line
from repro.io.state import read_mining_state, write_mining_state

SMALL_PARAMS = SyntheticParams(
    num_customers=60,
    num_pattern_sequences=6,
    num_pattern_itemsets=10,
    num_items=25,
    avg_transactions_per_customer=3.5,
    avg_items_per_transaction=1.8,
    avg_pattern_sequence_length=2.0,
    avg_pattern_itemset_size=1.4,
)
MINSUP = 0.2


def pattern_lines(result) -> list[str]:
    """The byte-exact serialized form the differential tests compare."""
    return [format_pattern_line(p) for p in result.patterns]


def split_with_overlays(seed: int, base_count: int = 45):
    """One pinned synthetic database split three ways: base customers,
    a delta of genuinely new customers, and overlay records produced by
    withholding the tail transactions of some base customers."""
    full = generate_database(SMALL_PARAMS, seed=seed)
    base, delta = [], []
    for customer in full:
        if customer.customer_id > base_count:
            delta.append(customer)
        elif customer.customer_id % 4 == 0 and len(customer.events) >= 2:
            cut = len(customer.events) // 2 or 1
            base.append(
                CustomerSequence(customer.customer_id, customer.events[:cut])
            )
            delta.append(
                CustomerSequence(customer.customer_id, customer.events[cut:])
            )
        else:
            base.append(customer)
    delta.sort(key=lambda c: c.customer_id)
    return full, base, delta


def mine_update_and_remine(
    tmp_path, base, delta, params: MiningParams, *, partitions: int = 3
):
    """The canonical pipeline under test; returns (update, full-re-mine)."""
    db = PartitionedDatabase.create(
        tmp_path / "db", base, partitions=partitions
    )
    base_result = mine(db, params, collect_state=True)
    assert base_result.state is not None
    db.append_delta(delta)
    reopened = PartitionedDatabase.open(tmp_path / "db")
    outcome = update_mining(
        reopened, base_result.state, strategy=params.counting.strategy
    )
    full_result = mine(reopened, params, collect_state=True)
    return outcome, full_result


def assert_update_matches_remine(outcome, full_result, *, by_length=True):
    """Beyond the pattern lines: the update reports the re-mine's exact
    supports, threshold, litemset phase and successor item counts.
    ``by_length`` compares the per-length large counts too — only
    meaningful for AprioriAll, since AprioriSome and DynamicSome skip
    lengths by design."""
    updated = outcome.result
    assert pattern_lines(updated) == pattern_lines(full_result)
    assert updated.patterns == full_result.patterns
    assert updated.threshold == full_result.threshold
    assert dict(updated.litemset_result.supports) == dict(
        full_result.litemset_result.supports
    )
    assert dict(updated.litemset_result.item_counts) == dict(
        full_result.litemset_result.item_counts
    )
    assert outcome.state.item_counts == full_result.state.item_counts
    if by_length:
        assert updated.large_counts_by_length == full_result.large_counts_by_length


class TestDifferential:
    @pytest.mark.parametrize("strategy", COUNTING_STRATEGIES)
    @pytest.mark.parametrize("algorithm", ["aprioriall", "apriorisome"])
    def test_update_equals_full_remine(self, tmp_path, algorithm, strategy):
        params = MiningParams(
            minsup=MINSUP,
            algorithm=algorithm,
            counting=CountingOptions(strategy=strategy),
        )
        _full, base, delta = split_with_overlays(seed=11)
        outcome, full_result = mine_update_and_remine(
            tmp_path, base, delta, params
        )
        assert_update_matches_remine(
            outcome, full_result, by_length=algorithm == "aprioriall"
        )

    @pytest.mark.parametrize("seed", [3, 29])
    @pytest.mark.parametrize(
        "algorithm", ["aprioriall", "apriorisome", "dynamicsome"]
    )
    def test_every_algorithm_snapshot_is_updatable(
        self, tmp_path, algorithm, seed
    ):
        params = MiningParams(minsup=MINSUP, algorithm=algorithm)
        _full, base, delta = split_with_overlays(seed=seed)
        outcome, full_result = mine_update_and_remine(
            tmp_path, base, delta, params
        )
        assert_update_matches_remine(
            outcome, full_result, by_length=algorithm == "aprioriall"
        )

    def test_update_matches_in_memory_mine_of_merged_data(self, tmp_path):
        """The appended database is the merged database: update output
        and a full re-mine, which streams the new customers and the
        overlay transactions through ``iter_partition``, both equal
        mining the equivalent in-memory merge."""
        full, base, delta = split_with_overlays(seed=7)
        params = MiningParams(minsup=MINSUP)
        outcome, remined = mine_update_and_remine(
            tmp_path, base, delta, params
        )
        in_memory = mine(SequenceDatabase(list(full)), params)
        assert pattern_lines(outcome.result) == pattern_lines(in_memory)
        assert pattern_lines(remined) == pattern_lines(in_memory)

    def test_chained_generations(self, tmp_path):
        """append → update → append → update, state rolling forward
        through JSON round-trips at every step."""
        full = generate_database(SMALL_PARAMS, seed=23)
        chunks = [
            [c for c in full if lo < c.customer_id <= hi]
            for lo, hi in ((0, 40), (40, 50), (50, 60))
        ]
        params = MiningParams(minsup=MINSUP)
        db = PartitionedDatabase.create(
            tmp_path / "db", chunks[0], partitions=2
        )
        state = mine(db, params, collect_state=True).state
        state_path = tmp_path / "state.json"
        for chunk in chunks[1:]:
            db.append_delta(chunk)
            db = PartitionedDatabase.open(tmp_path / "db")
            write_mining_state(state, state_path)
            outcome = update_mining(db, read_mining_state(state_path))
            state = outcome.state
            assert state.generation == db.generation
            assert pattern_lines(outcome.result) == pattern_lines(
                mine(db, params)
            )


class TestBenchScaleDifferential:
    """Two deltas on 1,200 generated C10-T2.5-S4-I1.25 customers: a
    base of 960, then 120 new customers plus overlays that hand the
    withheld tail transactions back to every tenth base customer, then
    120 more new customers. At minsup 0.015 the border moves both ways
    and both phases take the full-scan fallback, so the pinned
    ``UpdateStats`` catch work moving between the cache and the full
    scan even where the patterns stay right."""

    CUSTOMERS, BASE, FIRST_DELTA = 1200, 960, 1080
    #: UpdateStats of the first and the second update, field by field.
    EXPECTED = [
        UpdateStats(
            new_customers=120,
            overlaid_customers=96,
            cached_itemset_candidates=62569,
            new_itemset_candidates=19332,
            cached_sequence_candidates=76037,
            new_sequence_candidates=76515,
            full_scan_passes=5,
            promoted_from_border=525,
            demoted_from_large=63,
        ),
        UpdateStats(
            new_customers=120,
            overlaid_customers=0,
            cached_itemset_candidates=76726,
            new_itemset_candidates=21720,
            cached_sequence_candidates=149232,
            new_sequence_candidates=107444,
            full_scan_passes=7,
            promoted_from_border=309,
            demoted_from_large=93,
        ),
    ]

    @pytest.mark.parametrize("strategy", COUNTING_STRATEGIES)
    def test_two_deltas_match_full_remine(self, tmp_path, strategy):
        full = generate_database(
            SyntheticParams.from_name(
                "C10-T2.5-S4-I1.25", num_customers=self.CUSTOMERS
            ),
            seed=0,
        )
        base, first, second = [], [], []
        for customer in full:
            if customer.customer_id > self.FIRST_DELTA:
                second.append(customer)
            elif customer.customer_id > self.BASE:
                first.append(customer)
            elif customer.customer_id % 10 == 0 and len(customer.events) >= 2:
                cut = len(customer.events) // 2
                base.append(
                    CustomerSequence(customer.customer_id, customer.events[:cut])
                )
                first.append(
                    CustomerSequence(customer.customer_id, customer.events[cut:])
                )
            else:
                base.append(customer)
        first.sort(key=lambda c: c.customer_id)
        params = MiningParams(
            minsup=0.015, counting=CountingOptions(strategy=strategy)
        )
        db = PartitionedDatabase.create(tmp_path / "db", base, partitions=3)
        state = mine(db, params, collect_state=True).state
        for delta, expected in zip((first, second), self.EXPECTED):
            db.append_delta(delta)
            db = PartitionedDatabase.open(tmp_path / "db")
            outcome = update_mining(db, state, strategy=strategy)
            assert_update_matches_remine(
                outcome, mine(db, params, collect_state=True)
            )
            assert outcome.update_stats == expected
            state = outcome.state


class TestEdgeCases:
    def test_empty_delta(self, tmp_path):
        """Updating without appending anything reproduces the snapshot's
        own answer (and performs no full scans)."""
        full = generate_database(SMALL_PARAMS, seed=5)
        db = PartitionedDatabase.create(
            tmp_path / "db", list(full), partitions=2
        )
        params = MiningParams(minsup=MINSUP)
        base_result = mine(db, params, collect_state=True)
        outcome = update_mining(db, base_result.state)
        assert pattern_lines(outcome.result) == pattern_lines(base_result)
        assert outcome.update_stats.full_scan_passes == 0
        assert outcome.update_stats.new_customers == 0

    def test_delta_demotes_previously_large_pattern(self, tmp_path):
        """New customers raise the integer threshold; a pattern whose
        count stands still falls off the large set."""
        base = [
            CustomerSequence(1, ((1,), (2,))),
            CustomerSequence(2, ((1,), (2,))),
            CustomerSequence(3, ((3,), (4,))),
            CustomerSequence(4, ((3,), (4,))),
        ]
        # minsup 0.5 over 4 customers: threshold 2, both patterns large.
        db = PartitionedDatabase.create(tmp_path / "db", base, partitions=2)
        params = MiningParams(minsup=0.5)
        base_result = mine(db, params, collect_state=True)
        assert "<(1)(2)>" in {str(p.sequence) for p in base_result.patterns}
        # Four new customers supporting only <(3)(4)>: threshold rises
        # to 4, demoting <(1)(2)> (count still 2) but not <(3)(4)>.
        delta = [
            CustomerSequence(cid, ((3,), (4,))) for cid in (5, 6, 7, 8)
        ]
        db.append_delta(delta)
        reopened = PartitionedDatabase.open(tmp_path / "db")
        outcome = update_mining(reopened, base_result.state)
        mined = {str(p.sequence) for p in outcome.result.patterns}
        assert "<(1)(2)>" not in mined
        assert "<(3)(4)>" in mined
        assert outcome.update_stats.demoted_from_large >= 1
        assert pattern_lines(outcome.result) == pattern_lines(
            mine(reopened, params)
        )

    def test_delta_with_only_brand_new_litemset_ids(self, tmp_path):
        """A delta whose items never appeared in the base: the new ids
        enter the catalog and their patterns fall out of the full-scan
        path, identical to a fresh mine."""
        base = [
            CustomerSequence(cid, ((1,), (2,))) for cid in (1, 2, 3)
        ]
        delta = [
            CustomerSequence(cid, ((99,), (100,))) for cid in (4, 5, 6)
        ]
        db = PartitionedDatabase.create(tmp_path / "db", base, partitions=1)
        params = MiningParams(minsup=0.5)
        base_result = mine(db, params, collect_state=True)
        db.append_delta(delta)
        reopened = PartitionedDatabase.open(tmp_path / "db")
        outcome = update_mining(reopened, base_result.state)
        mined = {str(p.sequence) for p in outcome.result.patterns}
        assert "<(99)(100)>" in mined
        assert "<(1)(2)>" in mined
        assert pattern_lines(outcome.result) == pattern_lines(
            mine(reopened, params)
        )

    def test_append_onto_single_partition_database(self, tmp_path):
        full, base, delta = split_with_overlays(seed=13)
        params = MiningParams(minsup=MINSUP)
        outcome, full_result = mine_update_and_remine(
            tmp_path, base, delta, params, partitions=1
        )
        assert pattern_lines(outcome.result) == pattern_lines(full_result)

    def test_overlay_only_delta_promotes_without_new_customers(
        self, tmp_path
    ):
        """Appending transactions to existing customers adds support
        without moving the threshold — a pure-promotion delta."""
        base = [CustomerSequence(cid, ((1,),)) for cid in (1, 2, 3, 4)]
        db = PartitionedDatabase.create(tmp_path / "db", base, partitions=2)
        params = MiningParams(minsup=0.5)
        base_result = mine(db, params, collect_state=True)
        assert {str(p.sequence) for p in base_result.patterns} == {"<(1)>"}
        delta = [CustomerSequence(cid, ((2,),)) for cid in (1, 2, 3)]
        db.append_delta(delta)
        reopened = PartitionedDatabase.open(tmp_path / "db")
        assert reopened.num_customers == 4  # overlays add no customers
        outcome = update_mining(reopened, base_result.state)
        assert "<(1)(2)>" in {str(p.sequence) for p in outcome.result.patterns}
        assert pattern_lines(outcome.result) == pattern_lines(
            mine(reopened, params)
        )

    def test_state_from_capped_run_stays_correct(self, tmp_path):
        """A snapshot from a max_pattern_length-capped run updates under
        the same cap and matches the capped full re-mine."""
        _full, base, delta = split_with_overlays(seed=11)
        params = MiningParams(minsup=MINSUP, max_pattern_length=2)
        outcome, full_result = mine_update_and_remine(
            tmp_path, base, delta, params
        )
        assert pattern_lines(outcome.result) == pattern_lines(full_result)


class TestAppendValidation:
    def test_append_rejects_descending_ids(self, tmp_path):
        db = PartitionedDatabase.create(
            tmp_path / "db",
            [CustomerSequence(1, ((1,),)), CustomerSequence(2, ((1,),))],
            partitions=1,
        )
        with pytest.raises(ValueError, match="ascending"):
            db.append_delta(
                [CustomerSequence(4, ((1,),)), CustomerSequence(3, ((1,),))]
            )

    def test_append_rejects_empty_record(self, tmp_path):
        db = PartitionedDatabase.create(
            tmp_path / "db", [CustomerSequence(1, ((1,),))], partitions=1
        )
        with pytest.raises(ValueError, match="no transactions"):
            db.append_delta([CustomerSequence(2, ())])

    def test_overlay_of_unknown_customer_rejected_at_append(self, tmp_path):
        """Ids in the overlay range must belong to existing customers: a
        dangling reference fails the whole append and records nothing."""
        db = PartitionedDatabase.create(
            tmp_path / "db",
            [CustomerSequence(2, ((1,),)), CustomerSequence(5, ((1,),))],
            partitions=1,
        )
        with pytest.raises(ValueError, match="do not exist"):
            # id 3 sits in the overlay range (<= max id 5) but no such
            # customer exists; id 9 would be a legitimate new customer.
            db.append_delta(
                [CustomerSequence(3, ((7,),)), CustomerSequence(9, ((7,),))]
            )
        reopened = PartitionedDatabase.open(tmp_path / "db")
        assert reopened.generation == 0
        assert reopened.num_customers == 2
        assert not list((tmp_path / "db").glob("delta-*"))

    def test_append_onto_legacy_manifest_recovers_watermarks(self, tmp_path):
        """A manifest written before appends existed has no
        max_customer_id/vocabulary keys: the first append recovers both
        with one scan and then persists them."""
        import json

        db = PartitionedDatabase.create(
            tmp_path / "db",
            [CustomerSequence(3, ((1, 5),)), CustomerSequence(7, ((2,),))],
            partitions=2,
        )
        manifest_path = tmp_path / "db" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for key in ("max_customer_id", "vocabulary", "deltas"):
            del manifest[key]
        manifest_path.write_text(json.dumps(manifest))
        legacy = PartitionedDatabase.open(tmp_path / "db")
        assert legacy.max_customer_id() == 7
        legacy.append_delta(
            [CustomerSequence(7, ((9,),)), CustomerSequence(8, ((5,),))]
        )
        reopened = PartitionedDatabase.open(tmp_path / "db")
        assert reopened.max_customer_id() == 8
        assert reopened.stats().num_distinct_items == 4  # {1, 2, 5, 9}
        merged = {c.customer_id: c.events for c in reopened}
        assert merged[7] == ((2,), (9,))

    def test_failed_append_leaves_manifest_unchanged(self, tmp_path):
        db = PartitionedDatabase.create(
            tmp_path / "db", [CustomerSequence(1, ((1,),))], partitions=1
        )
        def bad_source():
            yield CustomerSequence(2, ((1,),))
            raise RuntimeError("source died")
        with pytest.raises(RuntimeError):
            db.append_delta(bad_source())
        reopened = PartitionedDatabase.open(tmp_path / "db")
        assert reopened.generation == 0
        assert reopened.num_customers == 1


class TestUpdateValidation:
    def test_update_rejects_foreign_state(self, tmp_path):
        db_a = PartitionedDatabase.create(
            tmp_path / "a",
            [CustomerSequence(i, ((1,), (2,))) for i in range(1, 5)],
            partitions=1,
        )
        db_b = PartitionedDatabase.create(
            tmp_path / "b",
            [CustomerSequence(i, ((1,), (2,))) for i in range(1, 8)],
            partitions=1,
        )
        state = mine(
            db_a, MiningParams(minsup=0.5), collect_state=True
        ).state
        with pytest.raises(ValueError, match="does not belong"):
            update_mining(db_b, state)

    def test_update_rejects_state_ahead_of_database(self, tmp_path):
        db = PartitionedDatabase.create(
            tmp_path / "db",
            [CustomerSequence(i, ((1,), (2,))) for i in range(1, 5)],
            partitions=1,
        )
        db.append_delta([CustomerSequence(9, ((1,),))])
        db = PartitionedDatabase.open(tmp_path / "db")
        state = mine(db, MiningParams(minsup=0.5), collect_state=True).state
        fresh = PartitionedDatabase.create(
            tmp_path / "fresh",
            [CustomerSequence(i, ((1,), (2,))) for i in range(1, 6)],
            partitions=1,
        )
        with pytest.raises(ValueError, match="generation"):
            update_mining(fresh, state)


class TestStateRoundTrip:
    def test_json_round_trip_preserves_every_field(self, tmp_path):
        _full, base, delta = split_with_overlays(seed=3)
        db = PartitionedDatabase.create(tmp_path / "db", base, partitions=2)
        result = mine(
            db,
            MiningParams(minsup=MINSUP, max_pattern_length=4),
            collect_state=True,
        )
        path = tmp_path / "state.json"
        write_mining_state(result.state, path)
        loaded = read_mining_state(path)
        assert loaded == result.state

    def test_counts_in_state_are_exact_supports(self, tmp_path):
        """Spot-check the contract everything rests on: every stored
        sequence count equals the database's direct support count."""
        _full, base, _delta = split_with_overlays(seed=3)
        db = PartitionedDatabase.create(tmp_path / "db", base, partitions=2)
        result = mine(db, MiningParams(minsup=MINSUP), collect_state=True)
        state = result.state
        from repro.core.sequence import Sequence

        checked = 0
        for sequence, count in sorted(state.sequence_counts.items())[:25]:
            assert db.support_count(Sequence(sequence)) == count
            checked += 1
        assert checked > 0


class TestDecodeBudget:
    """Ingest cost follows the delta, not the base: of the base records,
    only those of overlaid customers are ever fully decoded."""

    BASE = 1000
    OVERLAYS = 20
    NEW = 80

    def _base_and_delta(self):
        params = SyntheticParams.from_name(
            "C10-T2.5-S4-I1.25", num_customers=self.BASE + self.NEW + self.OVERLAYS
        )
        customers = list(generate_database(params, seed=5))
        base, fresh = customers[: self.BASE], customers[self.BASE :]
        extended = random.Random(5).sample(range(1, self.BASE + 1), self.OVERLAYS)
        delta = [
            CustomerSequence(cid, donor.events[:2])
            for cid, donor in zip(extended, fresh)
        ] + fresh[self.OVERLAYS :]
        return base, sorted(delta, key=lambda c: c.customer_id)

    def test_append_and_update_decode_only_delta_records(
        self, tmp_path, monkeypatch
    ):
        base, delta = self._base_and_delta()
        params = MiningParams(minsup=0.05)
        db = PartitionedDatabase.create(tmp_path / "db", base, partitions=3)
        base_result = mine(db, params, collect_state=True)
        decoded: list[str] = []
        decode = BinlogReader._decode_record

        def counted(reader, payload, start, number):
            decoded.append(reader.path.name)
            return decode(reader, payload, start, number)

        monkeypatch.setattr(BinlogReader, "_decode_record", counted)
        db.append_delta(delta)
        reopened = PartitionedDatabase.open(tmp_path / "db")
        outcome = update_mining(reopened, base_result.state)
        monkeypatch.undo()

        assert outcome.update_stats.full_scan_passes == 0
        assert outcome.update_stats.overlaid_customers == self.OVERLAYS
        # Each overlaid customer's base record: once to validate the
        # append, once to fetch its pre-delta sequence.
        base_decodes = sum(name.startswith("part-") for name in decoded)
        assert base_decodes == 2 * self.OVERLAYS
        # Plus the overlay file once and the new customers once.
        assert len(decoded) == 3 * self.OVERLAYS + self.NEW
        full_result = mine(reopened, params, collect_state=True)
        assert_update_matches_remine(outcome, full_result)

    def test_overlaid_customer_missing_from_base_raises(self, tmp_path):
        """The pre-delta lookup still fails loudly on an id that no base
        partition holds (here: its record removed after the append)."""
        base, delta = self._base_and_delta()
        db = PartitionedDatabase.create(tmp_path / "db", base, partitions=3)
        db.append_delta(delta)
        lost = min(c.customer_id for c in delta)
        for path in db.partition_paths[:3]:
            kept = [r for r in read_binlog(path) if r[0] != lost]
            write_binlog(path, kept)
        view = PartitionedDatabase.open(tmp_path / "db").delta_since(0)
        with pytest.raises(ValueError, match=rf"do not exist: \[{lost}\]"):
            view.touched_customers()
