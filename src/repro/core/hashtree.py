"""Sequence hash tree for candidate counting (Section 3.3 of the paper).

The paper reuses the VLDB 1994 hash-tree idea "with sequences in place of
itemsets" to avoid testing every candidate against every customer
sequence. The tree's shape is the paper's: an interior node at depth d
sends a candidate to the child selected by hashing its d-th id.

A probe touches only what can still match. Each interior node also maps
every id that occurs at its depth among the candidates below it to the
child that id hashes to (``routes``). The descent carries the id path
taken so far and the event index where its greedy match ended, and it
follows an id only if the customer holds it in a *strictly later*
event. At each node it walks the smaller of ``routes`` and the
customer's :class:`~repro.core.sequence.OccurrenceIndex` positions, so
ids that no candidate has at that depth are never tried. Greedy earliest
matching is optimal, so a contained candidate is reached along its own
id path, with its prefix matched as early as possible. A leaf therefore
checks only the candidates whose prefix equals the descent path, and
matches only their remaining suffix. Hash collisions put other
candidates in the same leaf; the prefix check skips them, so there are
no false positives. Each path is walked at most once, so each candidate
is found at most once.

All candidates in one tree have equal length (the sequence phase counts
one candidate length per pass), which keeps splitting simple.

Leaves may exceed ``leaf_capacity``: a bucket splits only if hashing at
some remaining depth actually spreads it over more than one child.
A bucket whose candidates collide at *every* remaining depth — always
when a leaf sits at maximum depth, and also for pathological id sets
under a small ``branch_factor`` — stays an over-full leaf rather than
growing a useless chain of single-child nodes. This is safe for
correctness (leaves check every candidate they may hold); only the
leaf's scan grows, and only for buckets no amount of splitting could
separate.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator

from repro.core.sequence import IdSequence, OccurrenceIndex

DEFAULT_LEAF_CAPACITY = 16
DEFAULT_BRANCH_FACTOR = 32


class _Node:
    __slots__ = ("children", "routes", "bucket", "unspreadable")

    def __init__(self) -> None:
        self.children: dict[int, _Node] | None = None  # None ⇒ leaf
        # Interior nodes: each id found at this depth among the
        # candidates below, mapped to the child its hash selects.
        self.routes: dict[int, _Node] = {}
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
        # Shapes the tree only: the probe never hashes, it follows the
        # id -> child routes that _route records from this hash.
        return litemset_id % self._branch_factor

    def _route(self, node: _Node, litemset_id: int) -> _Node:
        """The child of interior ``node`` that ``litemset_id`` hashes to,
        created if new; also records the id in ``node.routes``."""
        child = node.routes.get(litemset_id)
        if child is None:
            assert node.children is not None
            child = node.children.setdefault(self._hash(litemset_id), _Node())
            node.routes[litemset_id] = child
        return child

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
        while node.children is not None:
            node = self._route(node, candidate[depth])
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
            self._route(node, candidate[depth]).bucket.append(candidate)
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
            self._collect(self._root, 0, -1, (), index.positions, found)
        return found

    def _collect(
        self,
        node: _Node,
        depth: int,
        last_pos: int,
        path: IdSequence,
        positions: dict[int, list[int]],
        found: set[IdSequence],
    ) -> None:
        if node.children is None:
            # Only candidates whose prefix is this descent path can be
            # found here; their suffix is matched on from last_pos.
            for candidate in node.bucket:
                if candidate[:depth] != path:
                    continue
                pos = last_pos
                for litemset_id in candidate[depth:]:
                    occ = positions.get(litemset_id)
                    if occ is None:
                        break
                    i = bisect_right(occ, pos)
                    if i == len(occ):
                        break
                    pos = occ[i]
                else:
                    found.add(candidate)
            return
        routes = node.routes
        # The ids both routed here and present in the customer; the
        # keys-view intersection iterates the smaller of the two dicts.
        for litemset_id in routes.keys() & positions.keys():
            occ = positions[litemset_id]
            i = bisect_right(occ, last_pos)
            if i < len(occ):
                self._collect(
                    routes[litemset_id],
                    depth + 1,
                    occ[i],
                    path + (litemset_id,),
                    positions,
                    found,
                )

    def __iter__(self) -> Iterator[IdSequence]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.bucket
            else:
                stack.extend(node.children.values())
