"""Sequence hash tree for candidate counting (Section 3.3 of the paper).

The paper reuses the VLDB 1994 hash-tree idea "with sequences in place of
itemsets" to avoid testing every candidate against every customer
sequence. This implementation is position-aware: traversal state carries
the event index at which the candidate prefix's greedy match ended, and a
child is only descended when its id occurs in a *strictly later* event.
The per-customer lookup is a
:class:`~repro.core.sequence.OccurrenceIndex` (``ids()`` +
``first_after()``), built once per customer per pass. Because greedy
earliest matching is optimal, every candidate reaching a leaf has a
contained path prefix; the leaf then verifies the remaining suffix
exactly, so hash collisions cannot yield false positives.

All candidates in one tree have equal length (the sequence phase counts
one candidate length per pass), which keeps splitting simple.

Leaves may exceed ``leaf_capacity``: a bucket splits only if hashing at
some remaining depth actually spreads it over more than one child.
A bucket whose candidates collide at *every* remaining depth — always
when a leaf sits at maximum depth, and also for pathological id sets
under a small ``branch_factor`` — stays an over-full leaf rather than
growing a useless chain of single-child nodes. This is safe for
correctness (leaves verify every candidate exactly); only probe fan-out
degrades, and only for buckets no amount of splitting could separate.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.sequence import IdSequence, OccurrenceIndex

DEFAULT_LEAF_CAPACITY = 16
DEFAULT_BRANCH_FACTOR = 32


class _Node:
    __slots__ = ("children", "bucket", "unspreadable")

    def __init__(self) -> None:
        self.children: dict[int, _Node] | None = None  # None ⇒ leaf
        self.bucket: list[IdSequence] = []
        # True ⇒ proven that every bucket entry hashes identically at
        # every remaining depth, so no split could spread it. Caches the
        # O(bucket × depth) spread scan: once set, each further insert
        # only compares the new candidate against bucket[0].
        self.unspreadable = False

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class SequenceHashTree:
    """Hash tree over equal-length id sequences."""

    def __init__(
        self,
        candidates: Iterable[IdSequence] = (),
        *,
        leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
        branch_factor: int = DEFAULT_BRANCH_FACTOR,
    ) -> None:
        if leaf_capacity < 1:
            raise ValueError("leaf_capacity must be >= 1")
        if branch_factor < 2:
            raise ValueError("branch_factor must be >= 2")
        self._leaf_capacity = leaf_capacity
        self._branch_factor = branch_factor
        self._root = _Node()
        self._size = 0
        self._length: int | None = None
        for candidate in candidates:
            self.insert(candidate)

    def __len__(self) -> int:
        return self._size

    @property
    def sequence_length(self) -> int | None:
        """Length of the stored candidates (None while empty)."""
        return self._length

    def _hash(self, litemset_id: int) -> int:
        # The probe descent (_collect) inlines this modulo in its per-id
        # loop; keep the two in sync.
        return litemset_id % self._branch_factor

    def insert(self, candidate: IdSequence) -> None:
        if not candidate:
            raise ValueError("cannot insert an empty sequence")
        if self._length is None:
            self._length = len(candidate)
        elif len(candidate) != self._length:
            raise ValueError(
                f"tree holds {self._length}-sequences, got length {len(candidate)}"
            )
        node = self._root
        depth = 0
        while not node.is_leaf:
            node = node.children.setdefault(self._hash(candidate[depth]), _Node())
            depth += 1
        node.bucket.append(candidate)
        self._size += 1
        if len(node.bucket) <= self._leaf_capacity:
            return
        if node.unspreadable:
            # The pre-existing bucket is hash-uniform at every remaining
            # depth; only the newcomer can change that — an O(depth)
            # check instead of rescanning the whole bucket.
            if self._hash_uniform_with(node.bucket[0], candidate, depth):
                return
            node.unspreadable = False
        elif not self._can_spread(node.bucket, depth):
            node.unspreadable = True
            return
        self._split(node, depth)

    def _hash_uniform_with(
        self, reference: IdSequence, candidate: IdSequence, depth: int
    ) -> bool:
        """True iff ``candidate`` hashes like ``reference`` at every
        remaining depth (so adding it cannot make the bucket spreadable)."""
        return all(
            self._hash(candidate[d]) == self._hash(reference[d])
            for d in range(depth, self._length or 0)
        )

    def _can_spread(self, bucket: list[IdSequence], depth: int) -> bool:
        """True iff hashing at some depth ``>= depth`` separates ``bucket``.

        When False, splitting could only produce a chain of single-child
        nodes ending in the same over-full leaf, so the leaf is kept as
        is (see module docstring). Trivially False at maximum depth.
        """
        for d in range(depth, self._length or 0):
            first = self._hash(bucket[0][d])
            if any(self._hash(candidate[d]) != first for candidate in bucket):
                return True
        return False

    def _split(self, node: _Node, depth: int) -> None:
        bucket = node.bucket
        node.bucket = []
        node.children = {}
        for candidate in bucket:
            child = node.children.setdefault(self._hash(candidate[depth]), _Node())
            child.bucket.append(candidate)
        for child in node.children.values():
            if len(child.bucket) > self._leaf_capacity:
                if self._can_spread(child.bucket, depth + 1):
                    self._split(child, depth + 1)
                else:
                    child.unspreadable = True

    def contained_in(self, index: OccurrenceIndex) -> set[IdSequence]:
        """All stored candidates contained in the customer sequence behind
        ``index`` (id-alphabet containment)."""
        found: set[IdSequence] = set()
        if self._size:
            self._collect(self._root, 0, -1, index, found)
        return found

    def _collect(
        self,
        node: _Node,
        depth: int,
        last_pos: int,
        index: OccurrenceIndex,
        found: set[IdSequence],
    ) -> None:
        if node.is_leaf:
            for candidate in node.bucket:
                if candidate in found:
                    continue
                if self._verify_suffix(candidate, depth, last_pos, index):
                    found.add(candidate)
            return
        children = node.children
        branch = self._branch_factor
        # Try every distinct id with an occurrence after last_pos whose
        # bucket has a child. Distinct ids sharing a bucket are tried
        # separately because their earliest positions differ.
        for litemset_id in index.ids():
            child = children.get(litemset_id % branch)
            if child is None:
                continue
            pos = index.first_after(litemset_id, last_pos)
            if pos is not None:
                self._collect(child, depth + 1, pos, index, found)

    @staticmethod
    def _verify_suffix(
        candidate: IdSequence, depth: int, last_pos: int, index: OccurrenceIndex
    ) -> bool:
        # The path guarantees only that *some* prefix assignment reached
        # last_pos; because hash buckets collide, the candidate's own
        # prefix may differ. Re-verify the whole candidate greedily — the
        # occurrence index makes this O(k log n).
        pos = -1
        for litemset_id in candidate:
            pos = index.first_after(litemset_id, pos)  # type: ignore[assignment]
            if pos is None:
                return False
        return True

    def __iter__(self) -> Iterator[IdSequence]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.bucket
            else:
                stack.extend(node.children.values())
