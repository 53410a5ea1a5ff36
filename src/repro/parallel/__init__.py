"""Sharded parallel execution for the two passes that win with it.

Customer support is *additive across disjoint customer partitions* — a
customer contributes at most 1 to each candidate, and each customer
lives in exactly one shard — and distinct PrefixSpan seed items root
disjoint pattern sets. So a pass can shard: split one input into
disjoint slices, run the serial engine on each in a worker process, and
merge. Two passes do:

* PrefixSpan's seed growth (``mine(..., algorithm="prefixspan")`` with
  :attr:`repro.miner.MiningParams.workers`, or the CLI's ``seqmine mine
  --algorithm prefixspan --workers N``): the frequent seed items are
  split across the pool, and every shard grows its seeds over the
  customer list the parent projected once;
* the time-constrained miner's counting passes
  (``mine_time_constrained(..., workers=N)``): customer shards.

The apriori family (AprioriAll, AprioriSome, DynamicSome) counts
serially, as the paper does. Sharding its passes over two workers lost
end to end in every configuration measured on a 2-CPU container, so
``MiningParams`` rejects ``workers != 1`` for those algorithms. Parallel
results are bit-identical to serial results; tests enforce the
equivalence.

This package provides that machinery:

* :mod:`repro.parallel.sharding` — pure split/merge helpers (no
  processes involved), property-tested on their own.
* :mod:`repro.parallel.executor` — a ``multiprocessing`` pool whose one
  shard task runs the pass's own serial engine on a slice of its input,
  with bounded retries and in-process degradation on worker loss.
"""

from repro.parallel.executor import (
    parallel_count_timed,
    resolve_workers,
)
from repro.parallel.sharding import merge_counts, shard_bounds

__all__ = [
    "merge_counts",
    "parallel_count_timed",
    "resolve_workers",
    "shard_bounds",
]
