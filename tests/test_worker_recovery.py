"""Worker-loss recovery in the sharded executor.

The contract (see :func:`repro.parallel.executor._run_sharded`): a
SIGKILLed pool worker no longer aborts the pass — the failed shards are
re-dispatched through a fresh pool with bounded, logged retries; a shard
that keeps failing degrades to in-process serial counting (logged, never
silent); and however many workers died along the way, the merged counts
are identical to a serial run.

Both sharded passes run the same shard task,
:func:`repro.parallel.executor._run_shard`, so one patched task injects
the kills into the PrefixSpan seed pass and the timed counting pass
alike.
The kill tests require the ``fork`` start method (the patched task and
the kill markers travel to workers via inherited module globals), so
they are Linux-only — exactly the platform where the executor prefers
fork.
"""

import logging
import os
import signal
import sys
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.miner import MiningParams, mine
from repro.db.database import SequenceDatabase
from repro.db.records import Transaction
from repro.extensions.timeconstraints import (
    TimeConstraints,
    build_timed_sequences,
    count_timed,
    mine_time_constrained,
)
from repro.parallel import executor
from repro.parallel.executor import parallel_count_timed

needs_fork = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="kill-injection rides fork-inherited globals",
)


def events(*ids_per_event):
    return tuple(frozenset(ids) for ids in ids_per_event)


SEQUENCES = [
    events({1}, {2}, {1}),
    events({2, 3}, {1}),
    events({1, 2}),
    events({3}, {3}, {2}),
    events({1}, {1}, {1}),
    events({2}, {3}),
    events({4}, {1, 3}),
]
CANDIDATES = [(1, 2), (2, 1), (3, 3), (3, 2), (1, 1), (4, 3), (9, 9)]

#: ``SEQUENCES`` as raw records, event ``i`` at time ``i``.
ROWS = [
    Transaction(customer_id, time, tuple(sorted(event)))
    for customer_id, sequence in enumerate(SEQUENCES, start=1)
    for time, event in enumerate(sequence)
]
TIMED = build_timed_sequences(ROWS)
TIMED_CANDIDATES = [
    tuple(frozenset((item,)) for item in candidate) for candidate in CANDIDATES
]

#: Set at import, in the parent: workers (forked later) see a different
#: pid, which is how the injected tasks know they are in a child.
_PARENT_PID = os.getpid()

#: Directory for cross-process kill markers; monkeypatched per test.
_KILL_DIR = None

_ORIGINAL_RUN_SHARD = executor._run_shard


def _mark_once(name: str) -> bool:
    """True for exactly one caller per marker name, across processes."""
    try:
        fd = os.open(Path(_KILL_DIR) / name, os.O_CREAT | os.O_EXCL)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _killing_run_shard(bounds):
    """Real shard counting, except each shard's first worker run dies by
    SIGKILL — the genuine article, not an exception. The marker names the
    engine and the shard's bounds, so every distinct shard of a run
    loses a worker once."""
    if _KILL_DIR is not None and os.getpid() != _PARENT_PID:
        engine = executor._PASS[0].__name__
        if _mark_once(f"killed-{engine}-{bounds[0]}-{bounds[1]}"):
            os.kill(os.getpid(), signal.SIGKILL)
    return _ORIGINAL_RUN_SHARD(bounds)


def _child_hostile_task(bounds):
    """Fails deterministically in any worker, succeeds in the parent —
    the shape that must end in logged in-process degradation."""
    if os.getpid() != _PARENT_PID:
        raise OSError("this shard only works in the parent")
    return {bounds: bounds[1] - bounds[0]}


def _always_failing_task(bounds):
    raise ValueError(f"shard {bounds} is deterministically broken")


@pytest.fixture
def fast_retries(monkeypatch):
    monkeypatch.setattr(executor, "SHARD_BACKOFF_SECONDS", 0.0)


@needs_fork
class TestWorkerLossRecovery:
    @pytest.fixture
    def kill_dir(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            sys.modules[__name__], "_KILL_DIR", str(tmp_path)
        )
        return tmp_path

    def test_sigkilled_worker_counts_identical(
        self, fast_retries, kill_dir, monkeypatch, caplog
    ):
        monkeypatch.setattr(executor, "_run_shard", _killing_run_shard)
        constraints = TimeConstraints()
        serial = count_timed(TIMED, TIMED_CANDIDATES, constraints)
        with caplog.at_level(logging.WARNING, logger="repro.parallel"):
            parallel = parallel_count_timed(
                TIMED, TIMED_CANDIDATES, constraints, workers=2
            )
        assert parallel == serial
        assert list(parallel) == list(serial)
        messages = [record.getMessage() for record in caplog.records]
        assert any("worker lost during shard" in m for m in messages)

    def test_sigkilled_worker_mid_mine_run_completes(
        self, fast_retries, kill_dir, monkeypatch, caplog
    ):
        """The acceptance criterion end to end: SIGKILL a pool worker in
        every counting pass of a full time-constrained mine; the run
        finishes with results identical to serial."""
        monkeypatch.setattr(executor, "_run_shard", _killing_run_shard)
        rows = [
            Transaction(row.customer_id + offset, row.transaction_time, row.items)
            for offset in (0, 100, 200)
            for row in ROWS
        ]
        constraints = TimeConstraints(max_gap=2)
        serial = mine_time_constrained(rows, 0.2, constraints, workers=1)
        assert any(len(p.sequence) > 1 for p in serial)
        with caplog.at_level(logging.WARNING, logger="repro.parallel"):
            parallel = mine_time_constrained(rows, 0.2, constraints, workers=2)
        assert parallel == serial
        assert any(kill_dir.iterdir()), "no worker was actually killed"

    def test_sigkilled_worker_mid_prefixspan_run_completes(
        self, fast_retries, kill_dir, monkeypatch, caplog
    ):
        """The pattern-growth engine rides the same recovery contract:
        SIGKILL a seed-shard worker mid-run; the merged frequent set is
        identical to serial."""
        monkeypatch.setattr(executor, "_run_shard", _killing_run_shard)
        db = SequenceDatabase.from_sequences(
            [list(s) for s in SEQUENCES] * 3
        )
        serial = mine(
            db, MiningParams(minsup=0.3, algorithm="prefixspan", workers=1)
        )
        with caplog.at_level(logging.WARNING, logger="repro.parallel"):
            parallel = mine(
                db, MiningParams(minsup=0.3, algorithm="prefixspan", workers=2)
            )
        assert [(p.sequence, p.count) for p in parallel.patterns] == [
            (p.sequence, p.count) for p in serial.patterns
        ]
        assert any(kill_dir.iterdir()), "no worker was actually killed"

    def test_repeated_failure_degrades_in_process_with_logs(
        self, fast_retries, caplog
    ):
        with caplog.at_level(logging.WARNING, logger="repro.parallel"):
            results = executor._run_sharded(
                "payload", 6, 2, _child_hostile_task
            )
        assert results == [{(0, 3): 3}, {(3, 6): 3}]
        messages = [record.getMessage() for record in caplog.records]
        warnings = [m for m in messages if "failed (attempt" in m]
        degradations = [
            m for m in messages
            if "degrading to in-process serial counting" in m
        ]
        # Each shard burned its full attempt budget, then degraded.
        assert len(warnings) == 2 * executor.SHARD_MAX_ATTEMPTS
        assert len(degradations) == 2

    def test_deterministic_error_propagates_with_real_traceback(
        self, fast_retries, caplog
    ):
        """A shard broken everywhere (including in-process) must raise
        its own exception after the retry budget, not be swallowed."""
        with caplog.at_level(logging.WARNING, logger="repro.parallel"):
            with pytest.raises(ValueError, match="deterministically broken"):
                executor._run_sharded(
                    "payload", 4, 2, _always_failing_task
                )
        assert any(
            "degrading" in record.getMessage() for record in caplog.records
        )

    def test_state_cleaned_up_after_failure(self, fast_retries):
        with pytest.raises(ValueError):
            executor._run_sharded("payload", 4, 2, _always_failing_task)
        assert executor._PASS is None


class _SubmitBreaksOncePool:
    """A pool whose first ``submit`` finds it broken, as when a worker
    dies before the parent has submitted every shard; later submits run
    the task in-process."""

    submits = 0

    def __init__(self, *_args):
        pass

    def submit(self, task, bounds):
        type(self).submits += 1
        if type(self).submits == 1:
            raise BrokenProcessPool("a child process terminated abruptly")
        future = Future()
        future.set_result(task(bounds))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_pool_broken_during_submit_is_retried(fast_retries, monkeypatch, caplog):
    """``submit`` itself raises once the pool is broken; that shard is
    retried through a fresh pool, not lost with the pass."""
    monkeypatch.setattr(_SubmitBreaksOncePool, "submits", 0)
    monkeypatch.setattr(executor, "_pool", _SubmitBreaksOncePool)
    with caplog.at_level(logging.WARNING, logger="repro.parallel"):
        results = executor._run_sharded(
            "payload", 4, 2, lambda bounds: {bounds: bounds[1] - bounds[0]}
        )
    assert results == [{(0, 2): 2}, {(2, 4): 2}]
    assert any(
        "worker lost during shard 1/2" in record.getMessage()
        for record in caplog.records
    )
    assert executor._PASS is None


class TestRetryKnobs:
    def test_constants_are_sane(self):
        # The retry budget and backoff base are part of the documented
        # recovery contract; changing them is an intentional act.
        assert executor.SHARD_MAX_ATTEMPTS == 3
        assert executor.SHARD_BACKOFF_SECONDS > 0
