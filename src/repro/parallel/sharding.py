"""Splitting a sharded pass's input, and merging shard counts.

These helpers are deliberately process-free: they define *what* a sharded
pass computes, independently of *how* it is executed. The executor (and
the tests, which check parallel ≡ serial) build on exactly two facts
established here:

1. :func:`shard_bounds` splits ``0..num_items`` into contiguous,
   disjoint, covering index ranges — every item lands in exactly one
   shard;
2. :func:`merge_counts` sums per-shard dicts — valid because customer
   support is additive over disjoint customer sets.
"""

from __future__ import annotations

from typing import Iterable

#: Counts keyed by an arbitrary hashable candidate type.
Counts = dict


def shard_bounds(num_items: int, num_shards: int) -> list[tuple[int, int]]:
    """Half-open ``(start, stop)`` index ranges covering ``0..num_items``.

    The items are spread over ``num_shards`` near-equal shards (sizes
    differ by at most one, large shards first). Empty shards are never
    returned.
    """
    if num_items < 0:
        raise ValueError("num_items must be >= 0")
    if num_items == 0:
        return []
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    num_shards = min(num_shards, num_items)
    base, extra = divmod(num_items, num_shards)
    bounds: list[tuple[int, int]] = []
    start = 0
    for shard in range(num_shards):
        stop = start + base + (1 if shard < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def merge_counts(per_shard: Iterable[Counts], base: Counts | None = None) -> Counts:
    """Sum per-shard count dicts.

    ``base`` seeds the result (typically ``{candidate: 0 for ...}`` so the
    merged dict has a key for every candidate, zeros included, in the same
    insertion order as the serial engine); it is not mutated. Keys absent
    from ``base`` are appended as encountered. ``per_shard`` is iterated
    exactly once, so out-of-core callers pass a generator and keep only
    one partition's dict alive at a time.
    """
    merged: Counts = dict(base) if base is not None else {}
    for counts in per_shard:
        for key, value in counts.items():
            merged[key] = merged.get(key, 0) + value
    return merged
