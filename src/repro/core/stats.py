"""Instrumentation shared by all three sequence-phase algorithms.

The paper's evaluation discusses not only wall-clock time but *how many
candidates each algorithm counts* (AprioriSome's win comes from skipping
non-maximal candidates; DynamicSome's loss from its exploding intermediate
phase). These counters are the raw material of the Fig. 7 reproduction and
of the ablation benches, so they are first-class results rather than debug
output.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class PassStats:
    """One counting pass of the sequence phase.

    ``elapsed_seconds`` is the pass's wall-clock time, except for the
    growth rounds of a PrefixSpan run with ``workers > 1``: each round
    runs in every seed shard, and its row holds the sum of the shards'
    times for that round (like its candidate and frequent counts).
    """

    length: int
    #: "litemset" (the free L1 row), "forward", "initialization",
    #: "backward", "incremental" (an update's level-wise pass, the
    #: AprioriAll loop over the count cache), "items" or "growth"
    #: (PrefixSpan). A length-2 row of the level-wise loop counts
    #: |L1|² candidates, the analytic size of C2.
    phase: str
    num_candidates: int
    num_large: int
    elapsed_seconds: float

    @property
    def hit_ratio(self) -> float:
        """|L_k| / |C_k| — drives AprioriSome's next(k) heuristic."""
        if self.num_candidates == 0:
            return 0.0
        return self.num_large / self.num_candidates


@dataclass(slots=True)
class AlgorithmStats:
    """Aggregate counters for one sequence-phase run."""

    algorithm: str
    passes: list[PassStats] = field(default_factory=list)
    generated_candidates: dict[int, int] = field(default_factory=dict)
    skipped_by_containment: int = 0  # backward-phase candidates never counted

    @property
    def total_candidates_counted(self) -> int:
        return sum(p.num_candidates for p in self.passes)

    @property
    def total_large(self) -> int:
        return sum(p.num_large for p in self.passes)

    @property
    def total_generated(self) -> int:
        return sum(self.generated_candidates.values())

    @property
    def counted_lengths(self) -> list[int]:
        return sorted({p.length for p in self.passes})

    def record_pass(
        self,
        *,
        length: int,
        phase: str,
        num_candidates: int,
        num_large: int,
        elapsed_seconds: float,
    ) -> None:
        self.passes.append(
            PassStats(
                length=length,
                phase=phase,
                num_candidates=num_candidates,
                num_large=num_large,
                elapsed_seconds=elapsed_seconds,
            )
        )

    def record_generated(self, length: int, count: int) -> None:
        self.generated_candidates[length] = (
            self.generated_candidates.get(length, 0) + count
        )


@dataclass(frozen=True, slots=True)
class PhaseTimings:
    """Wall-clock seconds per pipeline phase (paper Section 3 structure)."""

    sort_seconds: float
    litemset_seconds: float
    transform_seconds: float
    sequence_seconds: float
    maximal_seconds: float

    @property
    def total_seconds(self) -> float:
        return (
            self.sort_seconds
            + self.litemset_seconds
            + self.transform_seconds
            + self.sequence_seconds
            + self.maximal_seconds
        )

    def as_row(self) -> dict[str, float]:
        return {
            "sort": round(self.sort_seconds, 4),
            "litemset": round(self.litemset_seconds, 4),
            "transform": round(self.transform_seconds, 4),
            "sequence": round(self.sequence_seconds, 4),
            "maximal": round(self.maximal_seconds, 4),
            "total": round(self.total_seconds, 4),
        }
