"""Measurement harness: one mining run → one structured record.

Every figure/table builder in :mod:`repro.experiments.figures` is a loop
over :func:`run_mining` calls; this module owns the record shape so that
the benches and the CLI (``seqmine experiment``, see the README's
*Experiment harness* entry) report identical columns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.miner import MiningParams, MiningResult, mine
from repro.db.database import SequenceDatabase


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One (dataset, algorithm, minsup) measurement."""

    dataset: str
    algorithm: str
    minsup: float
    num_customers: int
    seconds: float
    num_patterns: int
    num_litemsets: int
    max_pattern_length: int
    candidates_counted: int
    candidates_generated: int
    skipped_by_containment: int

    def as_row(self) -> list:
        return [
            self.dataset,
            self.algorithm,
            f"{self.minsup:.2%}",
            self.seconds,
            self.num_patterns,
            self.num_litemsets,
            self.max_pattern_length,
            self.candidates_counted,
            self.skipped_by_containment,
        ]

    ROW_HEADERS = (
        "dataset",
        "algorithm",
        "minsup",
        "seconds",
        "patterns",
        "litemsets",
        "max_len",
        "cand_counted",
        "cand_skipped",
    )


def run_mining(
    db: SequenceDatabase,
    *,
    dataset: str,
    algorithm: str,
    minsup: float,
    **param_overrides: object,
) -> tuple[RunRecord, MiningResult]:
    """Mine once and package the measurement."""
    params = MiningParams(minsup=minsup, algorithm=algorithm, **param_overrides)
    started = time.perf_counter()
    result = mine(db, params)
    elapsed = time.perf_counter() - started
    stats = result.algorithm_stats
    max_len = max(
        (p.sequence.length for p in result.patterns),
        default=0,
    )
    record = RunRecord(
        dataset=dataset,
        algorithm=algorithm,
        minsup=minsup,
        num_customers=db.num_customers,
        seconds=elapsed,
        num_patterns=result.num_patterns,
        num_litemsets=result.num_litemsets,
        max_pattern_length=max_len,
        candidates_counted=stats.total_candidates_counted,
        candidates_generated=stats.total_generated,
        skipped_by_containment=stats.skipped_by_containment,
    )
    return record, result
