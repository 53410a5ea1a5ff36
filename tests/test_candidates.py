"""Tests for sequence-phase candidate generation."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import (
    apriori_generate,
    delete_one_subsequences,
    has_all_subsequences,
)


class TestJoin:
    def test_paper_style_example(self):
        # Sequence analogue of the VLDB'94 example: join on overlap.
        large = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 4)]
        assert apriori_generate(large) == [(1, 2, 3, 4)]

    def test_pairs_include_both_orders_and_self(self):
        assert apriori_generate([(1,), (2,)]) == [
            (1, 1),
            (1, 2),
            (2, 1),
            (2, 2),
        ]

    def test_order_sensitive_join(self):
        # (1,2) and (2,3) join to (1,2,3); (2,3) and (1,2) do not join.
        got = apriori_generate([(1, 2), (2, 3), (1, 3)])
        assert (1, 2, 3) in got
        # (3,1,2)-style rotations need (3,1) which is absent.
        assert all(c[0] != 3 for c in got)

    def test_prune_removes_missing_subsequence(self):
        # The join of (1,2) with (2,1) yields (1,2,1), whose delete-one
        # subsequence (1,1) is not large → pruned. Likewise (2,1,2) needs
        # (2,2). With both missing, nothing survives.
        assert apriori_generate([(1, 2), (2, 1)]) == []
        # Adding (1,1) rescues (1,2,1) (and creates (1,1,?) joins that
        # themselves survive only with (1,1) prefixes/suffixes available).
        got = apriori_generate([(1, 2), (2, 1), (1, 1)])
        assert (1, 2, 1) in got

    def test_empty(self):
        assert apriori_generate([]) == []

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            apriori_generate([(1,), (1, 2)])

    def test_explicit_prune_universe(self):
        prev = [(1, 2), (2, 3)]
        # Without (1,3) in the universe, (1,2,3) must be pruned.
        assert apriori_generate(prev, prune_universe=prev) == []
        universe = prev + [(1, 3)]
        assert apriori_generate(prev, prune_universe=universe) == [(1, 2, 3)]


class TestPruneLogic:
    def test_delete_one_subsequences(self):
        assert list(delete_one_subsequences((1, 2, 3))) == [
            (2, 3),
            (1, 3),
            (1, 2),
        ]

    def test_has_all_subsequences(self):
        universe = {(1, 2), (1, 3), (2, 3)}
        assert has_all_subsequences((1, 2, 3), universe)
        assert not has_all_subsequences((1, 2, 4), universe)

    def test_repeated_symbol_candidate(self):
        # (1,2,1) has subsequences (2,1), (1,1), (1,2).
        assert has_all_subsequences((1, 2, 1), {(2, 1), (1, 1), (1, 2)})
        assert not has_all_subsequences((1, 2, 1), {(2, 1), (1, 2)})


def reference_generate(prev, universe):
    """Join + full delete-one prune, with no join-parent skip — the
    specification apriori_generate's optimized prune must match."""
    prev = sorted(set(prev))
    out = []
    for seq in prev:
        for extender in prev:
            if seq[1:] == extender[:-1]:
                candidate = seq + (extender[-1],)
                if has_all_subsequences(candidate, set(universe)):
                    out.append(candidate)
    return sorted(set(out))


class TestJoinParentSkip:
    """The prune probe skips the two join parents (they are in the
    universe by construction); output must be identical to the full
    check."""

    @given(
        st.sets(
            st.lists(st.integers(1, 4), min_size=2, max_size=2).map(tuple),
            max_size=12,
        )
    )
    @settings(max_examples=80)
    def test_identical_output_default_universe(self, large_prev):
        prev = sorted(large_prev)
        assert apriori_generate(prev) == reference_generate(prev, prev)

    @given(
        st.sets(
            st.lists(st.integers(1, 4), min_size=2, max_size=2).map(tuple),
            max_size=10,
        ),
        st.sets(
            st.lists(st.integers(1, 4), min_size=2, max_size=2).map(tuple),
            max_size=10,
        ),
    )
    @settings(max_examples=80)
    def test_identical_output_explicit_universe(self, large_prev, extra):
        """Both superset universes (skip engages) and universes missing
        some of ``prev`` (skip must stand down) match the full check."""
        prev = sorted(large_prev)
        for universe in (set(prev) | extra, extra):
            assert apriori_generate(
                prev, prune_universe=universe
            ) == reference_generate(prev, universe)

    def test_universe_missing_a_parent_still_prunes(self):
        # (1,2,3)'s parents are (1,2) and (2,3); with (1,2) absent from
        # the universe the candidate must be pruned — the skip only
        # applies when the parents are provably in the universe.
        prev = [(1, 2), (2, 3), (1, 3)]
        universe = {(2, 3), (1, 3)}
        assert apriori_generate(prev, prune_universe=universe) == []

    def test_skip_join_parents_flag(self):
        # Interior deletions still probed; the two join slices are not.
        assert has_all_subsequences(
            (1, 2, 3), {(1, 3)}, skip_join_parents=True
        )
        assert not has_all_subsequences(
            (1, 2, 3), {(1, 2)}, skip_join_parents=True
        )
        # Length-2 candidates have no interior deletions.
        assert has_all_subsequences((1, 2), set(), skip_join_parents=True)


class TestWithParents:
    """Every candidate's join parents are its two slices,
    ``candidate[:-1]`` and ``candidate[1:]``, both drawn from the
    joined sequences — the vertical counter relies on the prefix
    slice."""

    @given(
        st.sets(
            st.lists(st.integers(1, 3), min_size=2, max_size=2).map(tuple),
            max_size=9,
        )
    )
    @settings(max_examples=60)
    def test_every_candidate_reported_with_its_slices(self, large_prev):
        for candidate in apriori_generate(sorted(large_prev)):
            assert candidate[:-1] in large_prev
            assert candidate[1:] in large_prev


class TestCompleteness:
    @given(
        st.sets(
            st.lists(st.integers(1, 4), min_size=2, max_size=2).map(tuple),
            max_size=12,
        )
    )
    @settings(max_examples=80)
    def test_generates_exactly_downward_closed_extensions(self, large_prev):
        """C_k must equal {k-sequences whose every (k−1)-subsequence is in
        L_{k-1}} when pruning against L_{k-1} itself."""
        large_prev = sorted(large_prev)
        got = set(apriori_generate(large_prev))
        alphabet = sorted({x for seq in large_prev for x in seq})
        expected = set()
        for combo in product(alphabet, repeat=3):
            if has_all_subsequences(combo, set(large_prev)):
                expected.add(combo)
        assert got == expected

    @given(
        st.sets(
            st.lists(st.integers(1, 3), min_size=3, max_size=3).map(tuple),
            max_size=10,
        )
    )
    @settings(max_examples=60)
    def test_sorted_and_unique(self, large_prev):
        got = apriori_generate(sorted(large_prev))
        assert got == sorted(set(got))
