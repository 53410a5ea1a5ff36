"""Tests for the maximal phase and the dominated-set closure."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import maximal_sequences_naive
from repro.core.maximal import (
    DominatedSet,
    SequenceExpander,
    events_of_sequence,
    maximal_sequences,
    sequence_of_events,
)
from repro.core.sequence import Sequence, sequence_contains
from repro.itemsets.litemsets import LitemsetCatalog
from tests import strategies as my


def ev(*events):
    return tuple(frozenset(e) for e in events)


class TestDominatedSet:
    def test_empty_set(self):
        dominated = DominatedSet()
        assert ev({1}) not in dominated
        assert () not in dominated

    def test_finds_proper_containment(self):
        dominated = DominatedSet()
        dominated.add(ev({1, 2}, {3}))
        assert ev({1}, {3}) in dominated
        assert ev({1, 2}) in dominated
        assert ev({3}, {1}) not in dominated

    def test_equal_sequence_not_dominated(self):
        dominated = DominatedSet()
        dominated.add(ev({1}, {2}))
        assert ev({1}, {2}) not in dominated

    def test_same_length_strict_containment(self):
        dominated = DominatedSet()
        dominated.add(ev({1, 2}, {3}))
        # Same length (2) but strictly contained via event subset.
        assert ev({2}, {3}) in dominated

    def test_unseen_item_not_dominated(self):
        dominated = DominatedSet()
        dominated.add(ev({1}, {2}))
        assert ev({9}) not in dominated

    def test_longer_pattern_not_dominated(self):
        # Every pattern item is mentioned, but no stored sequence has
        # enough events to contain it.
        dominated = DominatedSet()
        dominated.add(ev({1}, {2}))
        dominated.add(ev({1, 2}))
        assert ev({1}, {2}, {1}) not in dominated
        assert ev({1}, {2}) not in dominated  # stored, and no longer one
        assert ev({1}) in dominated

    def test_chain_through_sequence_not_added(self):
        # <(1)> is reached from <(1 2)(3)> only through <(1 2)> or
        # <(1)(3)>, neither of which was ever added.
        dominated = DominatedSet()
        dominated.add(ev({1}))
        dominated.add(ev({1, 2}, {3}))
        assert ev({1}) in dominated
        assert ev({1, 2}, {3}) not in dominated
        supported = {ev({1, 2}, {3}): 2, ev({1}): 5}
        assert set(maximal_sequences(supported)) == {ev({1, 2}, {3})}

    @given(my.sequences(), st.lists(my.sequences(), max_size=8))
    @settings(max_examples=80)
    def test_matches_naive_scan(self, pattern, stored):
        dominated = DominatedSet()
        entries = [events_of_sequence(s) for s in stored]
        for entry in entries:
            dominated.add(entry)
        p = events_of_sequence(pattern)
        expected = any(e != p and sequence_contains(e, p) for e in entries)
        assert (p in dominated) == expected


class TestMaximalFilter:
    def test_paper_answer_shape(self):
        # Large sequences from the paper example; only the two 2-sequences
        # are maximal.
        supported = {
            ev({30}): 4,
            ev({40}): 2,
            ev({70}): 3,
            ev({40, 70}): 2,
            ev({90}): 3,
            ev({30}, {90}): 2,
            ev({30}, {40}): 2,
            ev({30}, {70}): 2,
            ev({30}, {40, 70}): 2,
        }
        maximal = maximal_sequences(supported)
        assert set(maximal) == {ev({30}, {90}), ev({30}, {40, 70})}
        assert maximal[ev({30}, {90})] == 2

    def test_equal_length_subset_eliminated(self):
        supported = {ev({1}, {3}): 5, ev({1, 2}, {3}): 4}
        assert set(maximal_sequences(supported)) == {ev({1, 2}, {3})}

    def test_incomparable_sequences_all_kept(self):
        supported = {ev({1}, {2}): 1, ev({2}, {1}): 1}
        assert set(maximal_sequences(supported)) == set(supported)

    def test_empty(self):
        assert maximal_sequences({}) == {}

    @given(
        st.dictionaries(
            my.sequences(max_item=4, max_events=3).map(events_of_sequence),
            st.integers(1, 10),
            max_size=12,
        )
    )
    @settings(max_examples=80)
    def test_matches_naive(self, supported):
        assert maximal_sequences(supported) == maximal_sequences_naive(supported)

    @given(
        st.dictionaries(
            my.sequences(max_item=4, max_events=3).map(events_of_sequence),
            st.integers(1, 10),
            max_size=10,
        )
    )
    @settings(max_examples=60)
    def test_result_is_antichain_and_dominating(self, supported):
        maximal = maximal_sequences(supported)
        # antichain: no member properly contains another
        for a in maximal:
            for b in maximal:
                if a != b:
                    assert not (len(a) >= len(b) and sequence_contains(a, b))
        # domination: every input is contained in some member
        for pattern in supported:
            assert any(
                len(m) >= len(pattern) and sequence_contains(m, pattern)
                for m in maximal
            )


class TestExpander:
    def test_expansion_cached_and_correct(self):
        catalog = LitemsetCatalog({(1,): 3, (2, 3): 2})
        expander = SequenceExpander(catalog)
        ids = (catalog.id_of((1,)), catalog.id_of((2, 3)))
        first = expander.expand(ids)
        assert first == (frozenset({1}), frozenset({2, 3}))
        assert expander.expand(ids) is first  # cached

    def test_roundtrip_sequence_of_events(self):
        seq = Sequence([[1, 2], [3]])
        assert sequence_of_events(events_of_sequence(seq)) == seq
