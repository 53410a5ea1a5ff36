"""Sharded parallel support counting.

The dominant cost of the sequence phase is the counting pass: one scan of
the transformed database per candidate length. Customer support is
*additive across disjoint customer partitions* — a customer contributes at
most 1 to each candidate, and each customer lives in exactly one shard —
so a counting pass parallelizes embarrassingly: partition the customers
into shards, count every shard independently, and sum the per-shard count
dicts. This package provides that machinery:

* :mod:`repro.parallel.sharding` — pure partition/merge helpers (no
  processes involved), property-tested on their own.
* :mod:`repro.parallel.executor` — a ``multiprocessing`` pool whose one
  shard task runs the pass's own serial engine on a slice of its input;
  the hash-tree engine therefore builds its candidate trees once per
  shard.

Callers normally do not import this package directly: passing
``workers > 1`` through :class:`repro.core.phase.CountingOptions` (or the
CLI's ``--workers``) routes the length-2 and candidate passes of
AprioriAll, AprioriSome and DynamicSome, PrefixSpan's pattern growth and
the time-constrained miner's counting passes through the shard executor.
Two passes always run serially: DynamicSome's on-the-fly forward pass
and the incremental update's full-scan fallback. Parallel counts are
bit-identical to serial counts; the equivalence is enforced by tests.

Sharding composes with both counting strategies: the hash tree shards
customers, and under ``"vertical"`` the parent inverts the database
once (see :mod:`repro.core.vertical`) and every worker counts a
disjoint slice of the *candidates* against that one inversion —
inherited copy-on-write under ``fork``, pickled once per worker under
``spawn`` — so parallelism never causes re-inversion.
"""

from repro.parallel.executor import (
    parallel_count_candidates,
    parallel_count_length2,
    parallel_count_timed,
    resolve_workers,
)
from repro.parallel.sharding import merge_counts, partition, shard_bounds

__all__ = [
    "merge_counts",
    "parallel_count_candidates",
    "parallel_count_length2",
    "parallel_count_timed",
    "partition",
    "resolve_workers",
    "shard_bounds",
]
