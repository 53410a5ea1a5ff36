"""Ablation benches for the design choices DESIGN.md calls out:

* counting engine: paper's hash tree vs vertical id-list joins;
* five-phase time breakdown (§3);
* AprioriSome's next(k) skip policy (§3.4);
* DynamicSome's step (§3.5).
"""

from benchmarks.conftest import SaveFigure, assert_no_disagreement
from repro.experiments.figures import (
    ablation_counting,
    ablation_dynamic_step,
    ablation_next_policy,
    ablation_phases,
)
from pytest_benchmark.fixture import BenchmarkFixture


def test_ablation_counting(benchmark: BenchmarkFixture, save_figure: SaveFigure) -> None:
    figure = benchmark.pedantic(ablation_counting, rounds=1, iterations=1)
    save_figure(figure)
    assert_no_disagreement(figure)
    by_strategy = {row[0]: row for row in figure.rows}
    # Identical answers from both engines.
    assert by_strategy["hashtree"][2] == by_strategy["vertical"][2]


def test_ablation_phases(benchmark: BenchmarkFixture, save_figure: SaveFigure) -> None:
    figure = benchmark.pedantic(ablation_phases, rounds=1, iterations=1)
    save_figure(figure)
    assert len(figure.rows) == 3
    for row in figure.rows:
        # total covers the parts
        assert row[5] >= row[1] + row[2] + row[3] + row[4] - 1e-6


def test_ablation_next_policy(benchmark: BenchmarkFixture, save_figure: SaveFigure) -> None:
    figure = benchmark.pedantic(ablation_next_policy, rounds=1, iterations=1)
    save_figure(figure)
    # All policies agree on the answer.
    patterns = {row[2] for row in figure.rows}
    assert len(patterns) == 1


def test_ablation_dynamic_step(benchmark: BenchmarkFixture, save_figure: SaveFigure) -> None:
    figure = benchmark.pedantic(ablation_dynamic_step, rounds=1, iterations=1)
    save_figure(figure)
    patterns = {row[2] for row in figure.rows}
    assert len(patterns) == 1
