"""Candidate generation for the sequence phase: ``apriori_generate``.

Works over the litemset-id alphabet produced by the transformation phase,
where a candidate k-sequence is a tuple of k ids. The procedure is the
sequence analogue of the VLDB 1994 join:

* **Join** — ``s1`` joins ``s2`` when dropping the first id of ``s1``
  equals dropping the last id of ``s2``; the candidate is ``s1`` extended
  with the last id of ``s2``. For k = 2 the shared part is empty, so the
  join yields *all ordered pairs*, including ``(x, x)`` — a customer can
  buy the same litemset twice.
* **Prune** — a candidate is kept only if every (k−1)-subsequence obtained
  by deleting one id is in the prune universe (normally ``L_{k-1}``;
  AprioriSome prunes against ``C_{k-1}`` when ``L_{k-1}`` was never
  counted).

Unlike the itemset join, sequence order matters, so there is no
"first k−2 items equal" symmetry trick; the join is indexed by the
(k−2)-length overlap instead.
"""

from __future__ import annotations

from typing import Collection, Iterable

from repro.core.sequence import IdSequence


def apriori_generate(
    large_prev: Collection[IdSequence],
    *,
    prune_universe: Collection[IdSequence] | None = None,
) -> list[IdSequence]:
    """Generate candidate k-sequences from (k−1)-sequences.

    ``prune_universe`` defaults to ``large_prev``. The result is sorted
    for determinism. By the join construction, every candidate's two
    join parents are ``candidate[:-1]`` (the joined sequence) and
    ``candidate[1:]`` (the extender), both members of ``large_prev``.
    """
    prev = sorted(set(large_prev))
    if not prev:
        return []
    k_minus_1 = len(prev[0])
    if any(len(s) != k_minus_1 for s in prev):
        raise ValueError("all sequences must have equal length for the join")
    if prune_universe is None:
        universe = set(prev)
        parents_in_universe = True
    else:
        universe = set(prune_universe)
        # Skipping the join parents in the prune probe is valid only when
        # both (members of ``prev``) are certain to pass the universe
        # check; one O(|prev|) superset test decides that for the pass.
        parents_in_universe = universe.issuperset(prev)

    by_overlap: dict[IdSequence, list[IdSequence]] = {}
    for seq in prev:
        by_overlap.setdefault(seq[:-1], []).append(seq)

    candidates: list[IdSequence] = []
    for seq in prev:
        overlap = seq[1:]
        for extender in by_overlap.get(overlap, ()):
            candidate = seq + (extender[-1],)
            if has_all_subsequences(
                candidate, universe, skip_join_parents=parents_in_universe
            ):
                candidates.append(candidate)
    candidates.sort()
    return candidates


def has_all_subsequences(
    candidate: IdSequence,
    universe: Collection[IdSequence],
    *,
    skip_join_parents: bool = False,
) -> bool:
    """True iff every delete-one subsequence of ``candidate`` is in
    ``universe``.

    With ``skip_join_parents=True`` the two subsequences that formed the
    join — ``candidate[1:]`` (drop position 0) and ``candidate[:-1]``
    (drop the last position) — are not re-probed; they are in the
    universe by construction, so only the interior deletions need the
    hash lookup (~2/k of the probes eliminated). Callers must guarantee
    the construction invariant (``apriori_generate`` verifies it once per
    pass); the default re-checks everything.
    """
    k = len(candidate)
    drops = range(1, k - 1) if skip_join_parents else range(k)
    for drop in drops:
        if candidate[:drop] + candidate[drop + 1 :] not in universe:
            return False
    return True


def delete_one_subsequences(candidate: IdSequence) -> Iterable[IdSequence]:
    """All (k−1)-subsequences of a k-sequence (delete each position once)."""
    for drop in range(len(candidate)):
        yield candidate[:drop] + candidate[drop + 1 :]
