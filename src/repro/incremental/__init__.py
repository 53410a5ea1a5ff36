"""Incremental mining: keep mined results updatable as data arrives.

The paper mines a static customer database; a production system's
database grows every day. Re-running the full five-phase pipeline for
every delta wastes almost all of its work — the supports of yesterday's
candidates barely move. This subsystem makes a mining run *resumable
against new data*:

* :class:`~repro.incremental.state.MiningState` — a snapshot of one
  mining run's frontier: the per-length large sets **and the negative
  border** (every candidate that was counted but fell below the
  threshold) with exact support counts, for both the litemset and the
  sequence phase. Serialized next to the partition manifest by
  :mod:`repro.io.state`.
* :func:`~repro.incremental.update.update_mining` — the delta re-mine.
  It *is* the full mine's litemset and AprioriAll loops with a cached
  count source: every retained candidate is counted against only the
  appended data (support is additive across disjoint customer sets,
  and an overlaid customer contributes the difference between its
  merged and pre-delta sequence), border candidates that crossed the
  threshold are promoted, genuinely new candidates (only those) fall
  back to full scans, and the maximal phase re-runs. The result is
  exactly the full re-mine's pattern set, at a fraction of the work.

The on-disk substrate is :meth:`repro.db.partitioned.PartitionedDatabase.
append_delta`; the CLI surface is ``seqmine mine --save-state``,
``seqmine append`` and ``seqmine update``.
"""

from repro.incremental.state import MiningState, build_mining_state
from repro.incremental.update import UpdateOutcome, UpdateStats, update_mining

__all__ = [
    "MiningState",
    "UpdateOutcome",
    "UpdateStats",
    "build_mining_state",
    "update_mining",
]
