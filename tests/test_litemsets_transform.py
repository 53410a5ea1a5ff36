"""Tests for the litemset catalog and the transformation phase."""

import pytest
from hypothesis import given, settings

from repro.core.sequence import Sequence, id_sequence_contains, sequence_contains
from repro.datagen.generator import generate_database
from repro.datagen.params import SyntheticParams
from repro.db.database import SequenceDatabase
from repro.db.transform import transform_database
from repro.itemsets.apriori import find_litemsets
from repro.itemsets.litemsets import LitemsetCatalog
from tests import strategies as my
from tests.test_database import paper_db


def paper_catalog():
    return LitemsetCatalog.from_result(find_litemsets(paper_db(), minsup=0.25))


class TestCatalog:
    def test_ids_are_contiguous_and_ordered(self):
        catalog = paper_catalog()
        # (length, lex) order: (30) (40) (70) (90) (40 70)
        assert catalog.itemset_of(1) == (30,)
        assert catalog.itemset_of(2) == (40,)
        assert catalog.itemset_of(3) == (70,)
        assert catalog.itemset_of(4) == (90,)
        assert catalog.itemset_of(5) == (40, 70)
        assert list(catalog.ids) == [1, 2, 3, 4, 5]

    def test_id_roundtrip(self):
        catalog = paper_catalog()
        for itemset in catalog:
            assert catalog.itemset_of(catalog.id_of(itemset)) == itemset

    def test_support_of(self):
        catalog = paper_catalog()
        assert catalog.support_of(catalog.id_of((30,))) == 4
        assert catalog.support_of(catalog.id_of((40, 70))) == 2

    def test_one_sequence_supports(self):
        catalog = paper_catalog()
        supports = catalog.one_sequence_supports()
        assert supports[(catalog.id_of((90,)),)] == 3
        assert len(supports) == 5

    def test_unknown_itemset_raises(self):
        with pytest.raises(KeyError):
            paper_catalog().id_of((10,))

    def test_contained_ids_paper_transform(self):
        """Transformation of the paper's customer 2."""
        catalog = paper_catalog()
        assert catalog.contained_ids((10, 20)) == frozenset()
        assert catalog.contained_ids((30,)) == {catalog.id_of((30,))}
        assert catalog.contained_ids((40, 60, 70)) == {
            catalog.id_of((40,)),
            catalog.id_of((70,)),
            catalog.id_of((40, 70)),
        }

    def test_transform_paper_customers(self):
        """Per-customer transform: transactions without a litemset drop
        out, the survivors keep their order, and a customer left with
        none transforms to ``()``."""
        catalog = paper_catalog()
        id_of = catalog.id_of
        assert catalog.transform([(10, 20), (30,), (40, 60, 70)]) == (
            frozenset({id_of((30,))}),
            frozenset({id_of((40,)), id_of((70,)), id_of((40, 70))}),
        )
        assert catalog.transform([(90,), (50,), (30,)]) == (
            frozenset({id_of((90,))}),
            frozenset({id_of((30,))}),
        )
        assert catalog.transform([(10, 20), (60,)]) == ()
        assert catalog.transform([]) == ()

    def test_expand(self):
        catalog = paper_catalog()
        ids = (catalog.id_of((30,)), catalog.id_of((40, 70)))
        assert catalog.expand(ids) == Sequence([[30], [40, 70]])
        assert catalog.expand_events(ids) == (frozenset({30}), frozenset({40, 70}))

    def test_contains(self):
        catalog = paper_catalog()
        assert (30,) in catalog
        assert (10,) not in catalog
        assert len(catalog) == 5


class TestTransform:
    def test_paper_transformation(self):
        db = paper_db()
        catalog = paper_catalog()
        tdb = transform_database(db, catalog)
        id_of = catalog.id_of
        assert tdb.num_customers == 5
        assert len(tdb.sequences) == 5
        # Customer 2: (10 20) drops out entirely.
        assert tdb.sequences[1] == (
            frozenset({id_of((30,))}),
            frozenset({id_of((40,)), id_of((70,)), id_of((40, 70))}),
        )
        # Customer 5 keeps only (90).
        assert tdb.sequences[4] == (frozenset({id_of((90,))}),)

    def test_drops_empty_customers(self):
        db = SequenceDatabase.from_sequences([[(1,)], [(99,)], [(1,), (1,)]])
        catalog = LitemsetCatalog({(1,): 2})
        tdb = transform_database(db, catalog)
        assert len(tdb.sequences) == 2
        assert tdb.num_customers == 3  # denominator unchanged
        assert tdb.num_dropped_customers == 1
        assert tdb.customer_ids == (1, 3)

    def test_max_sequence_length(self):
        db = SequenceDatabase.from_sequences([[(1,), (1,), (1,)], [(1,)]])
        catalog = LitemsetCatalog({(1,): 2})
        tdb = transform_database(db, catalog)
        assert tdb.max_sequence_length == 3

    def test_empty_everything(self):
        tdb = transform_database(SequenceDatabase([]), LitemsetCatalog({}))
        assert tdb.max_sequence_length == 0
        assert len(tdb) == 0

    @given(my.databases(), my.minsups())
    @settings(max_examples=60, deadline=None)
    def test_transform_preserves_support(self, db, minsup):
        """Key invariant: for any sequence of litemsets, id-containment in
        the transformed DB equals itemset-containment in the raw DB."""
        result = find_litemsets(db, minsup)
        if not result.supports:
            return
        catalog = LitemsetCatalog.from_result(result)
        tdb = transform_database(db, catalog)
        transformed = {cid: seq for cid, seq in zip(tdb.customer_ids, tdb.sequences)}

        litemsets = list(catalog)
        # Probe single and double litemset sequences exhaustively.
        probes = [(catalog.id_of(a),) for a in litemsets]
        probes += [
            (catalog.id_of(a), catalog.id_of(b))
            for a in litemsets
            for b in litemsets
        ]
        for ids in probes:
            pattern = catalog.expand(ids)
            for customer in db:
                raw = sequence_contains(customer.events, pattern.events)
                cooked = id_sequence_contains(
                    ids, transformed.get(customer.customer_id, ())
                )
                assert raw == cooked, (ids, customer)


class TestBenchScaleDifferential:
    def test_transform_matches_naive_scan(self):
        """At bench scale (797 litemsets, 104 of length >= 3), every
        customer transforms as a naive scan of every litemset against
        every transaction says it should."""
        db = generate_database(
            SyntheticParams.from_name("C10-T2.5-S4-I1.25", num_customers=300),
            seed=1,
        )
        catalog = LitemsetCatalog.from_result(find_litemsets(db, minsup=0.015))
        assert len(catalog) >= 500
        assert sum(len(itemset) >= 3 for itemset in catalog) >= 50
        litemsets = [(set(itemset), catalog.id_of(itemset)) for itemset in catalog]
        for customer in db:
            expected = []
            for event in customer.events:
                held = set(event)
                ids = frozenset(lid for items, lid in litemsets if items <= held)
                if ids:
                    expected.append(ids)
            assert catalog.transform(customer.events) == tuple(expected)
