"""Itemset hash tree (VLDB 1994) with subset lookup.

The litemset phase and the transformation phase both need the same
primitive: *given a transaction, find every stored itemset that is a subset
of it*. The Apriori paper's hash tree answers this without scanning every
stored itemset. Interior nodes hash on one item per tree level; leaves hold
small buckets of itemsets that are verified exactly.

Stored itemsets may have mixed lengths (the transformation phase stores all
litemsets, length 1..L, in one tree). An itemset whose length equals the
depth of an interior node cannot be hashed further and is kept in that
node's ``stored_here`` list; like leaf entries, those are verified with an
exact subset test, so hash-bucket collisions can never produce a false
positive.
"""

from __future__ import annotations

from typing import Collection, Iterable, Iterator

from repro.core.sequence import Itemset

DEFAULT_LEAF_CAPACITY = 8
DEFAULT_BRANCH_FACTOR = 32


class _Node:
    __slots__ = ("children", "bucket", "stored_here")

    def __init__(self) -> None:
        self.children: dict[int, _Node] | None = None  # None ⇒ leaf
        self.bucket: list[Itemset] = []
        self.stored_here: list[Itemset] = []

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class ItemsetHashTree:
    """Hash tree over canonical (sorted-tuple) itemsets."""

    def __init__(
        self,
        itemsets: Iterable[Itemset] = (),
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
        for itemset in itemsets:
            self.insert(itemset)

    def __len__(self) -> int:
        return self._size

    def _hash(self, item: int) -> int:
        return item % self._branch_factor

    def insert(self, itemset: Itemset) -> None:
        """Insert a canonical itemset (sorted tuple of ints)."""
        if not itemset:
            raise ValueError("cannot insert an empty itemset")
        node = self._root
        depth = 0
        while True:
            if node.is_leaf:
                node.bucket.append(itemset)
                self._size += 1
                if len(node.bucket) > self._leaf_capacity:
                    self._split(node, depth)
                return
            if len(itemset) == depth:
                node.stored_here.append(itemset)
                self._size += 1
                return
            child_key = self._hash(itemset[depth])
            child = node.children.get(child_key)
            if child is None:
                child = _Node()
                node.children[child_key] = child
            node = child
            depth += 1

    def _split(self, node: _Node, depth: int) -> None:
        """Convert an overflowing leaf at ``depth`` into an interior node."""
        bucket = node.bucket
        node.bucket = []
        node.children = {}
        for itemset in bucket:
            if len(itemset) == depth:
                node.stored_here.append(itemset)
                continue
            child_key = self._hash(itemset[depth])
            child = node.children.setdefault(child_key, _Node())
            child.bucket.append(itemset)
        for child in node.children.values():
            if len(child.bucket) > self._leaf_capacity:
                self._split_child_if_possible(child, depth + 1)

    def _split_child_if_possible(self, node: _Node, depth: int) -> None:
        # A bucket where every itemset has length == depth cannot be split
        # further; it simply stays an oversized leaf (rare: needs many
        # equal-length itemsets colliding along the whole hash path).
        if all(len(i) == depth for i in node.bucket):
            return
        self._split(node, depth)

    def subsets_of(self, transaction: Collection[int]) -> set[Itemset]:
        """All stored itemsets that are subsets of ``transaction``."""
        items = tuple(sorted(transaction))
        if not items:
            return set()
        item_set = frozenset(items)
        found: set[Itemset] = set()
        self._collect(self._root, items, 0, item_set, found)
        return found

    def _collect(
        self,
        node: _Node,
        items: tuple[int, ...],
        start: int,
        item_set: frozenset[int],
        found: set[Itemset],
    ) -> None:
        if node.is_leaf:
            for candidate in node.bucket:
                if item_set.issuperset(candidate):
                    found.add(candidate)
            return
        for candidate in node.stored_here:
            if item_set.issuperset(candidate):
                found.add(candidate)
        children = node.children
        for index in range(start, len(items)):
            child = children.get(self._hash(items[index]))
            if child is not None:
                self._collect(child, items, index + 1, item_set, found)

    def __iter__(self) -> Iterator[Itemset]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.bucket
            else:
                yield from node.stored_here
                stack.extend(node.children.values())
