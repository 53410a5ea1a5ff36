"""Builders for every table and figure of the paper's evaluation.

Each function regenerates one artifact of Section 4 of the paper (or one
ablation DESIGN.md calls out) and returns a :class:`FigureResult` holding
both machine-readable rows and a rendered text report. The pytest
benches under ``benchmarks/`` and the ``seqmine experiment`` CLI both call
straight into these builders, so every artifact ``seqmine experiment
--list`` names (see the README's *Experiment harness* entry) is
reproducible from either entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence as PySequence

from repro.analysis.compare import pattern_length_histogram
from repro.analysis.report import format_series_chart, format_table
from repro.core.apriorisome import NextLengthPolicy
from repro.miner import ALGORITHM_NAMES, MiningParams, mine
from repro.core.counting import COUNTING_STRATEGIES
from repro.core.phase import CountingOptions
from repro.datagen.params import SyntheticParams
from repro.experiments.datasets import (
    DEFAULT_SEED,
    PAPER_DATASETS,
    bench_customers,
    bench_minsups,
    load_dataset,
)
from repro.experiments.harness import RunRecord, run_mining


@dataclass(slots=True)
class FigureResult:
    """One regenerated artifact: rows + headers + optional chart series."""

    figure_id: str
    title: str
    headers: tuple[str, ...]
    rows: list[list] = field(default_factory=list)
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    x_label: str = ""
    y_label: str = ""
    notes: list[str] = field(default_factory=list)

    @property
    def disagreements(self) -> list[str]:
        """The notes recording algorithms or strategies that found
        different patterns."""
        return [note for note in self.notes if note.startswith("DISAGREEMENT")]

    def render(self, *, chart: bool = True) -> str:
        parts = [format_table(self.headers, self.rows, title=self.title)]
        if chart and self.series:
            parts.append(
                format_series_chart(
                    self.series,
                    title=f"{self.figure_id}: {self.y_label} vs {self.x_label}",
                    x_label=self.x_label,
                    y_label=self.y_label,
                )
            )
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)


# --------------------------------------------------------------------- #
# Table 1 / Table 2 — generator parameters and dataset characteristics
# --------------------------------------------------------------------- #


def table1_parameters() -> FigureResult:
    """The generator parameter glossary (paper Table 1)."""
    defaults = SyntheticParams()
    result = FigureResult(
        figure_id="table1-params",
        title="Table 1: synthetic data parameters (paper notation)",
        headers=("symbol", "meaning", "repro default", "paper value"),
    )
    paper = defaults.paper_scale()
    result.rows = [
        ["|D|", "Number of customers", defaults.num_customers, paper.num_customers],
        ["|C|", "Avg transactions per customer",
         defaults.avg_transactions_per_customer, "per dataset"],
        ["|T|", "Avg items per transaction",
         defaults.avg_items_per_transaction, "per dataset"],
        ["|S|", "Avg length of potentially large sequences",
         defaults.avg_pattern_sequence_length, "per dataset"],
        ["|I|", "Avg size of itemsets in potentially large sequences",
         defaults.avg_pattern_itemset_size, "per dataset"],
        ["N_S", "Number of potentially large sequences",
         defaults.num_pattern_sequences, paper.num_pattern_sequences],
        ["N_I", "Number of potentially large itemsets",
         defaults.num_pattern_itemsets, paper.num_pattern_itemsets],
        ["N", "Number of items", defaults.num_items, paper.num_items],
    ]
    return result


def table2_datasets(
    *,
    datasets: PySequence[str] = PAPER_DATASETS,
    num_customers: int | None = None,
    seed: int = DEFAULT_SEED,
) -> FigureResult:
    """Characteristics of the five generated datasets (paper Table 2)."""
    result = FigureResult(
        figure_id="table2-datasets",
        title="Table 2: generated dataset characteristics",
        headers=(
            "dataset",
            "customers",
            "transactions",
            "avg_trans/cust",
            "avg_items/trans",
            "distinct_items",
            "size_mb",
        ),
    )
    for name in datasets:
        db = load_dataset(name, num_customers=num_customers, seed=seed)
        stats = db.stats()
        result.rows.append(
            [
                name,
                stats.num_customers,
                stats.num_transactions,
                round(stats.avg_transactions_per_customer, 2),
                round(stats.avg_items_per_transaction, 2),
                stats.num_distinct_items,
                round(stats.approx_size_mb, 3),
            ]
        )
    return result


# --------------------------------------------------------------------- #
# Figure 6 — execution time vs minimum support, per dataset
# --------------------------------------------------------------------- #


def fig6_execution_times(
    dataset: str,
    *,
    minsups: PySequence[float] | None = None,
    algorithms: PySequence[str] = ALGORITHM_NAMES,
    num_customers: int | None = None,
    seed: int = DEFAULT_SEED,
) -> FigureResult:
    """One panel of the paper's Fig. 6: runtime of the three algorithms as
    the minimum support decreases."""
    if minsups is None:
        minsups = bench_minsups(dataset)
    db = load_dataset(dataset, num_customers=num_customers, seed=seed)
    result = FigureResult(
        figure_id=f"fig6-{dataset}",
        title=f"Fig. 6 panel: execution times on {dataset} "
        f"(|D|={db.num_customers})",
        headers=RunRecord.ROW_HEADERS,
        x_label="minsup (%)",
        y_label="seconds",
    )
    answers: dict[float, int] = {}
    for algorithm in algorithms:
        points = []
        for minsup in minsups:
            record, mined = run_mining(
                db, dataset=dataset, algorithm=algorithm, minsup=minsup
            )
            result.rows.append(record.as_row())
            points.append((minsup * 100, record.seconds))
            expected = answers.setdefault(minsup, mined.num_patterns)
            if expected != mined.num_patterns:
                result.notes.append(
                    f"DISAGREEMENT at minsup={minsup}: {algorithm} found "
                    f"{mined.num_patterns} patterns, expected {expected}"
                )
        result.series[algorithm] = points
    result.notes.append(
        "expected shape: AprioriSome ≲ AprioriAll; DynamicSome degrades "
        "sharply at the lowest supports (intermediate-phase explosion)."
    )
    return result


# --------------------------------------------------------------------- #
# Figure 7 — candidates counted per pass (AprioriSome's advantage)
# --------------------------------------------------------------------- #


def fig7_candidate_counts(
    *,
    dataset: str = "C10-T5-S4-I1.25",
    minsup: float = 0.03,
    num_customers: int | None = None,
    seed: int = DEFAULT_SEED,
) -> FigureResult:
    """Per-pass candidate counts for the three algorithms: how much
    counting work each algorithm does at each length (the paper's §4
    discussion of why AprioriSome wins)."""
    db = load_dataset(dataset, num_customers=num_customers, seed=seed)
    result = FigureResult(
        figure_id="fig7-candidates",
        title=f"Fig. 7: candidates counted per pass on {dataset} "
        f"(minsup {minsup:.2%}, |D|={db.num_customers})",
        headers=("algorithm", "length", "phase", "candidates", "large", "seconds"),
        x_label="pass length",
        y_label="candidates counted",
    )
    for algorithm in ALGORITHM_NAMES:
        _, mined = run_mining(
            db, dataset=dataset, algorithm=algorithm, minsup=minsup
        )
        points = []
        for p in mined.algorithm_stats.passes:
            result.rows.append(
                [algorithm, p.length, p.phase, p.num_candidates, p.num_large,
                 p.elapsed_seconds]
            )
            points.append((p.length, p.num_candidates))
        result.series[algorithm] = sorted(points)
        result.rows.append(
            [algorithm, "-", "skipped-by-containment",
             mined.algorithm_stats.skipped_by_containment, "-", "-"]
        )
    return result


# --------------------------------------------------------------------- #
# Figure 8 — scale-up with the number of customers
# --------------------------------------------------------------------- #


def fig8_scaleup_customers(
    *,
    dataset: str = "C10-T2.5-S4-I1.25",
    factors: PySequence[float] = (1.0, 2.0, 3.0, 4.0),
    minsup: float = 0.025,
    algorithms: PySequence[str] = ("aprioriall", "apriorisome"),
    base_customers: int | None = None,
    seed: int = DEFAULT_SEED,
) -> FigureResult:
    """Relative runtime as |D| grows (paper Fig. 8 shows ~linear)."""
    base = base_customers if base_customers is not None else bench_customers()
    result = FigureResult(
        figure_id="fig8-scaleup-customers",
        title=f"Fig. 8: scale-up with customers on {dataset} "
        f"(minsup {minsup:.2%})",
        headers=("algorithm", "customers", "seconds", "relative"),
        x_label="customers",
        y_label="relative time",
    )
    for algorithm in algorithms:
        baseline: float | None = None
        points = []
        for factor in factors:
            customers = max(1, round(base * factor))
            db = load_dataset(dataset, num_customers=customers, seed=seed)
            record, _ = run_mining(
                db, dataset=dataset, algorithm=algorithm, minsup=minsup
            )
            if baseline is None:
                baseline = record.seconds or 1e-9
            relative = record.seconds / baseline
            result.rows.append(
                [algorithm, customers, record.seconds, round(relative, 2)]
            )
            points.append((customers, relative))
        result.series[algorithm] = points
    result.notes.append("expected shape: close-to-linear growth in |D|.")
    return result


# --------------------------------------------------------------------- #
# Figure 9 — scale-up with transactions/customer and items/transaction
# --------------------------------------------------------------------- #


def fig9_scaleup_density(
    *,
    trans_per_customer: PySequence[float] = (10, 20, 30, 40),
    items_per_transaction: PySequence[float] = (2.5, 5.0, 7.5, 10.0),
    minsup: float = 0.03,
    algorithm: str = "apriorisome",
    num_customers: int | None = None,
    seed: int = DEFAULT_SEED,
) -> FigureResult:
    """Relative runtime as customer-sequence density grows (paper Fig. 9):
    one family varying |C| at |T|=2.5, one varying |T| at |C|=10."""
    customers = (
        num_customers if num_customers is not None else max(200, bench_customers() // 2)
    )
    result = FigureResult(
        figure_id="fig9-scaleup-density",
        title=f"Fig. 9: scale-up with sequence density ({algorithm}, "
        f"minsup {minsup:.2%}, |D|={customers})",
        headers=("family", "C", "T", "seconds", "relative"),
        x_label="avg items per customer",
        y_label="relative time",
    )

    def run_family(name: str, configs: list[tuple[float, float]]) -> None:
        baseline: float | None = None
        points = []
        for c_value, t_value in configs:
            params_name = SyntheticParams(
                avg_transactions_per_customer=c_value,
                avg_items_per_transaction=t_value,
            ).name
            db = load_dataset(params_name, num_customers=customers, seed=seed)
            record, _ = run_mining(
                db, dataset=params_name, algorithm=algorithm, minsup=minsup
            )
            if baseline is None:
                baseline = record.seconds or 1e-9
            relative = record.seconds / baseline
            result.rows.append(
                [name, c_value, t_value, record.seconds, round(relative, 2)]
            )
            points.append((c_value * t_value, relative))
        result.series[name] = points

    run_family("vary-C (T=2.5)", [(c, 2.5) for c in trans_per_customer])
    run_family("vary-T (C=10)", [(10, t) for t in items_per_transaction])
    result.notes.append(
        "expected shape: superlinear growth with density — more contained "
        "candidate occurrences per customer."
    )
    return result


# --------------------------------------------------------------------- #
# Ablations (DESIGN.md §3)
# --------------------------------------------------------------------- #


def ablation_counting(
    *,
    dataset: str = "C10-T5-S4-I1.25",
    minsup: float = 0.03,
    num_customers: int | None = None,
    seed: int = DEFAULT_SEED,
) -> FigureResult:
    """The two counting strategies: the paper's candidate hash tree
    against the vertical id-list joins."""
    db = load_dataset(dataset, num_customers=num_customers, seed=seed)
    result = FigureResult(
        figure_id="ablation-counting",
        title=f"Ablation: counting engine on {dataset} (minsup {minsup:.2%})",
        headers=("strategy", "seconds", "patterns"),
    )
    patterns_seen = set()
    for strategy in COUNTING_STRATEGIES:
        record, mined = run_mining(
            db,
            dataset=dataset,
            algorithm="aprioriall",
            minsup=minsup,
            counting=CountingOptions(strategy=strategy),
        )
        result.rows.append([strategy, record.seconds, record.num_patterns])
        patterns_seen.add(tuple(str(p.sequence) for p in mined.patterns))
    if len(patterns_seen) != 1:
        result.notes.append("DISAGREEMENT between counting strategies!")
    return result


def ablation_phases(
    *,
    dataset: str = "C10-T5-S4-I1.25",
    minsup: float = 0.03,
    num_customers: int | None = None,
    seed: int = DEFAULT_SEED,
) -> FigureResult:
    """Per-phase wall-clock breakdown of the five-phase pipeline."""
    db = load_dataset(dataset, num_customers=num_customers, seed=seed)
    result = FigureResult(
        figure_id="ablation-phases",
        title=f"Ablation: phase breakdown on {dataset} (minsup {minsup:.2%})",
        headers=("algorithm", "litemset", "transform", "sequence", "maximal",
                 "total"),
    )
    for algorithm in ALGORITHM_NAMES:
        mined = mine(db, MiningParams(minsup=minsup, algorithm=algorithm))
        t = mined.timings
        result.rows.append(
            [
                algorithm,
                t.litemset_seconds,
                t.transform_seconds,
                t.sequence_seconds,
                t.maximal_seconds,
                t.total_seconds,
            ]
        )
    return result


def ablation_next_policy(
    *,
    dataset: str = "C10-T5-S4-I1.25",
    minsup: float = 0.03,
    num_customers: int | None = None,
    seed: int = DEFAULT_SEED,
) -> FigureResult:
    """AprioriSome under different next(k) skip policies."""
    db = load_dataset(dataset, num_customers=num_customers, seed=seed)
    policies: Mapping[str, NextLengthPolicy] = {
        "paper-default": NextLengthPolicy(),
        "never-skip": NextLengthPolicy(breakpoints=((2.0, 1),), max_skip=1),
        "always-skip-2": NextLengthPolicy(breakpoints=((0.0001, 2),), max_skip=2),
        "aggressive": NextLengthPolicy(breakpoints=((0.2, 2), (0.5, 4)), max_skip=6),
    }
    result = FigureResult(
        figure_id="ablation-next-policy",
        title=f"Ablation: next(k) policy on {dataset} (minsup {minsup:.2%})",
        headers=("policy", "seconds", "patterns", "counted_lengths",
                 "cand_counted", "cand_skipped"),
    )
    for name, policy in policies.items():
        record, mined = run_mining(
            db,
            dataset=dataset,
            algorithm="apriorisome",
            minsup=minsup,
            next_policy=policy,
        )
        stats = mined.algorithm_stats
        result.rows.append(
            [
                name,
                record.seconds,
                record.num_patterns,
                ",".join(str(k) for k in stats.counted_lengths),
                stats.total_candidates_counted,
                stats.skipped_by_containment,
            ]
        )
    return result


def ablation_dynamic_step(
    *,
    dataset: str = "C10-T5-S4-I1.25",
    minsup: float = 0.03,
    steps: PySequence[int] = (1, 2, 3, 4),
    num_customers: int | None = None,
    seed: int = DEFAULT_SEED,
) -> FigureResult:
    """DynamicSome's step knob (the paper evaluated step variants)."""
    db = load_dataset(dataset, num_customers=num_customers, seed=seed)
    result = FigureResult(
        figure_id="ablation-dynamic-step",
        title=f"Ablation: DynamicSome step on {dataset} (minsup {minsup:.2%})",
        headers=("step", "seconds", "patterns", "cand_counted", "cand_generated"),
    )
    for step in steps:
        record, _ = run_mining(
            db,
            dataset=dataset,
            algorithm="dynamicsome",
            minsup=minsup,
            dynamic_step=step,
        )
        result.rows.append(
            [
                step,
                record.seconds,
                record.num_patterns,
                record.candidates_counted,
                record.candidates_generated,
            ]
        )
    return result


def pattern_length_summary(
    *,
    dataset: str = "C10-T2.5-S4-I1.25",
    minsup: float = 0.015,
    num_customers: int | None = None,
    seed: int = DEFAULT_SEED,
) -> FigureResult:
    """Supplementary: histogram of maximal pattern lengths."""
    db = load_dataset(dataset, num_customers=num_customers, seed=seed)
    _, mined = run_mining(
        db, dataset=dataset, algorithm="apriorisome", minsup=minsup
    )
    histogram = pattern_length_histogram(mined)
    result = FigureResult(
        figure_id="pattern-lengths",
        title=f"Maximal pattern lengths on {dataset} (minsup {minsup:.2%})",
        headers=("length", "patterns"),
    )
    result.rows = [[k, v] for k, v in histogram.items()]
    return result


#: Registry used by the CLI: experiment id → zero-arg builder.
EXPERIMENTS: dict[str, Callable[[], FigureResult]] = {
    "table1-params": table1_parameters,
    "table2-datasets": table2_datasets,
    **{
        f"fig6-{name}": (lambda name=name: fig6_execution_times(name))
        for name in PAPER_DATASETS
    },
    "fig7-candidates": fig7_candidate_counts,
    "fig8-scaleup-customers": fig8_scaleup_customers,
    "fig9-scaleup-density": fig9_scaleup_density,
    "ablation-counting": ablation_counting,
    "ablation-phases": ablation_phases,
    "ablation-next-policy": ablation_next_policy,
    "ablation-dynamic-step": ablation_dynamic_step,
    "pattern-lengths": pattern_length_summary,
}
