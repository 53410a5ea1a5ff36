"""The benchmark's own tests: every workload at toy sizes.

    python3 -m pytest perfbench/smoke.py -q

Run from the repository root. Not collected by the repository's test
suite (the file name does not match ``test_*.py``): each case starts
worker and server processes and takes a few seconds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SECONDS = "1"

#: The issue-named figures each workload prints, by name, with their unit.
PRINTED = {
    "mine-apriori": {"mine_s": "s"},
    "mine-growth": {"mine_s": "s"},
    "ingest-update": {"ingest_s": "s", "mine_s": "s"},
    "serve-mixed": {
        "query_rps": "1/s", "query_p50_ms": "ms", "query_p99_ms": "ms",
        "reload_ms": "ms",
    },
}


def _run(workload: str, trace: int, cwd: Path = REPO) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", SECONDS, "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_runner() -> None:
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_reports_every_metric(workload: str, trace: int) -> None:
    done = _run(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = dict(run.PER_LAYER if trace else run.END_TO_END)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = "\n".join(lines[:-1])
    for name, unit in {**expected, **PRINTED[workload]}.items():
        assert re.search(rf"^{workload}\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$",
                         printed, re.MULTILINE), name


def test_traced_mining_spans_cover_the_operation() -> None:
    done = _run("mine-apriori", 1)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["trace.layer_share"]["value"] >= 0.9
    assert metrics["itemsets.find_litemsets_s"]["value"] > 0


def test_corrupted_reference_fails_the_check(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    monkeypatch.setattr(run, "ROOT", REPO)
    monkeypatch.setattr(run, "SOURCE", REPO / "src")
    real = run._reference

    def corrupted(*args: object) -> tuple[int, str]:
        count, _sha = real(*args)
        return count, "0" * 64

    monkeypatch.setattr(run, "_reference", corrupted)
    code = run.main(["--workload", "mine-apriori", "--seed", "5",
                     "--seconds", SECONDS, "--smoke"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    result = json.loads(out[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert any(line.startswith("CHECK FAILED") for line in out)


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run("mine-apriori", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
