"""Shared plumbing for the benchmark suite.

Every bench regenerates one table/figure of the paper via
:mod:`repro.experiments.figures`, times it with pytest-benchmark, prints
the paper-style rows, and saves the rendered report under
``benchmarks/results/<figure-id>.txt`` so the numbers survive the run.

The experiment runs take seconds each (they are whole mining sweeps), so
benches use ``benchmark.pedantic(rounds=1)`` — the interesting numbers are
the *per-run rows inside each figure*, not statistical timing of the
sweep wrapper. Micro-benchmarks of the core primitives (the itemset
trie, the sequence hash tree, containment, counting) live in
``bench_micro.py`` with normal rounds.

Scale knobs (``seqmine experiment --list`` lists the artifacts these
benches build; see the README's *Experiment harness* entry):

* ``REPRO_BENCH_CUSTOMERS`` — |D| for bench datasets (default 600).
* ``REPRO_BENCH_FAST=1`` — 3-point sweeps at |D|=400 for smoke runs.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable

import pytest

from repro.experiments.figures import FigureResult

#: The ``save_figure`` fixture's value: persist + print one figure.
SaveFigure = Callable[[FigureResult], None]

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def save_figure() -> SaveFigure:
    """Persist and print a rendered FigureResult."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(figure: FigureResult) -> None:
        from repro.io.atomic import atomic_write_text

        rendered = figure.render()
        atomic_write_text(
            RESULTS_DIR / f"{figure.figure_id}.txt", rendered + "\n"
        )
        print(f"\n{rendered}\n", file=sys.stderr)

    return _save


def assert_no_disagreement(figure: FigureResult) -> None:
    """Benches double as integration tests: algorithm disagreement fails."""
    assert not figure.disagreements, figure.disagreements
