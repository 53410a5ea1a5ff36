"""Crash-consistency sweep: kill the process at sampled io operations
across a full mine → append → update lifecycle, then recover.

Each injection point simulates a hard kill (a :class:`SimulatedCrash`
``BaseException`` raised from inside the filesystem seam, before the
traced operation executes). Recovery is the documented operator
protocol — ``seqmine fsck`` then re-running the interrupted step — and
the invariant under test is that it always converges to a final state
byte-identical to an uninterrupted run:

* the partition manifest and mining-state snapshot match the baseline
  byte for byte;
* no temp-file litter, no quarantined files, and the same file set;
* steps that already committed (manifest replace, snapshot replace)
  are detected from disk and *not* re-run — appends are not idempotent,
  so this detection is what the sweep proves out.

The sampled injection points are drawn with
:func:`repro.testing.fault_schedule`, seeded by the ``CHAOS_SEED``
environment variable so CI can sweep disjoint samples across jobs
while any single failure stays exactly reproducible.
"""

import os
import random
import shutil
from pathlib import Path

from repro.core.phase import CountingOptions
from repro.db.database import CustomerSequence
from repro.db.fsck import QUARANTINE_SUFFIX, fsck_directory
from repro.db.partitioned import (
    MANIFEST_NAME,
    MINING_STATE_NAME,
    PartitionedDatabase,
)
from repro.incremental import update_mining
from repro.io.state import read_mining_state, write_mining_state
from repro.miner import MiningParams, mine
from repro.testing import (
    FaultInjector,
    SimulatedCrash,
    count_io_ops,
    fault_schedule,
    inject_faults,
)

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
CHAOS_SAMPLES = int(os.environ.get("CHAOS_SAMPLES", "12"))
MINSUP = 0.25


def _random_customers(seed, ids, items=8):
    rng = random.Random(seed)
    return [
        CustomerSequence(
            customer_id=cid,
            events=tuple(
                tuple(sorted(rng.sample(range(1, items + 1), rng.randint(1, 3))))
                for _ in range(rng.randint(1, 4))
            ),
        )
        for cid in ids
    ]


def base_customers():
    return _random_customers(97, range(1, 15))


def delta_customers():
    # Two overlay records (extra events for existing customers) followed
    # by six new customers — both delta shapes in one append.
    overlays = [
        CustomerSequence(customer_id=2, events=((1, 2),)),
        CustomerSequence(customer_id=5, events=((3,), (1, 4))),
    ]
    return overlays + _random_customers(131, range(15, 21))


def _mine_step(directory: Path) -> None:
    db = PartitionedDatabase.open(directory)
    result = mine(
        db,
        MiningParams(minsup=MINSUP, counting=CountingOptions()),
        collect_state=True,
    )
    write_mining_state(result.state, directory / MINING_STATE_NAME)


def _append_step(directory: Path) -> None:
    PartitionedDatabase.open(directory).append_delta(delta_customers())


def _update_step(directory: Path) -> None:
    db = PartitionedDatabase.open(directory)
    state = read_mining_state(directory / MINING_STATE_NAME)
    outcome = update_mining(db, state)
    write_mining_state(outcome.state, directory / MINING_STATE_NAME)


def run_lifecycle(directory: Path) -> None:
    PartitionedDatabase.create(directory, base_customers(), partitions=2)
    _mine_step(directory)
    _append_step(directory)
    _update_step(directory)


def recover_and_finish(directory: Path) -> None:
    """The operator protocol after a crash at an arbitrary point.

    Every decision is made from on-disk state alone — the recovering
    process knows nothing about where the dead one stopped.
    """
    if not (directory / MANIFEST_NAME).exists():
        # Crashed before the create committed: nothing durable exists.
        shutil.rmtree(directory, ignore_errors=True)
        PartitionedDatabase.create(directory, base_customers(), partitions=2)
    else:
        fsck_directory(directory)

    state_path = directory / MINING_STATE_NAME
    if (
        PartitionedDatabase.open(directory).generation == 0
        and not state_path.exists()
    ):
        _mine_step(directory)
    if PartitionedDatabase.open(directory).generation == 0:
        _append_step(directory)  # manifest never committed: safe to redo
    if (
        read_mining_state(state_path).generation
        < PartitionedDatabase.open(directory).generation
    ):
        _update_step(directory)


def fingerprint(directory: Path) -> dict:
    return {
        "manifest": (directory / MANIFEST_NAME).read_bytes(),
        "state": (directory / MINING_STATE_NAME).read_bytes(),
        "files": sorted(
            str(path.relative_to(directory))
            for path in directory.rglob("*")
            if path.is_file()
        ),
    }


class TestCrashSweep:
    def test_recovery_converges_from_every_sampled_injection_point(
        self, tmp_path
    ):
        baseline_dir = tmp_path / "baseline"
        with count_io_ops() as counter:
            run_lifecycle(baseline_dir)
        total_ops = counter.ops_seen
        assert total_ops > 20, "lifecycle too small to be worth sweeping"
        baseline = fingerprint(baseline_dir)

        points = fault_schedule(CHAOS_SEED, total_ops, CHAOS_SAMPLES)
        assert points, "empty schedule"
        for point in points:
            workdir = tmp_path / f"crash-{point:04d}"
            injector = FaultInjector(point, kind="kill")
            crashed = False
            try:
                with inject_faults(injector):
                    run_lifecycle(workdir)
            except SimulatedCrash:
                crashed = True
            assert crashed and injector.fired, (
                f"injection point {point} never fired ({injector.ops_seen} "
                f"ops seen)"
            )
            recover_and_finish(workdir)
            recovered = fingerprint(workdir)
            assert recovered["manifest"] == baseline["manifest"], (
                f"manifest diverged after crash at io op {point}"
            )
            assert recovered["state"] == baseline["state"], (
                f"mining state diverged after crash at io op {point}"
            )
            assert recovered["files"] == baseline["files"], (
                f"file set diverged after crash at io op {point}: "
                f"{sorted(set(recovered['files']) ^ set(baseline['files']))}"
            )
            assert not any(
                name.endswith(QUARANTINE_SUFFIX) or name.endswith(".tmp")
                for name in recovered["files"]
            )

    def test_recovery_protocol_is_idempotent(self, tmp_path):
        """Running recovery on an already-complete directory changes
        nothing — operators can always fsck-and-resume defensively."""
        directory = tmp_path / "db"
        run_lifecycle(directory)
        before = fingerprint(directory)
        recover_and_finish(directory)
        recover_and_finish(directory)
        assert fingerprint(directory) == before

    def test_double_crash_still_converges(self, tmp_path):
        """A crash during *recovery* (the second failure mode operators
        actually hit) must leave the directory recoverable again."""
        baseline_dir = tmp_path / "baseline"
        with count_io_ops() as counter:
            run_lifecycle(baseline_dir)
        baseline = fingerprint(baseline_dir)
        total_ops = counter.ops_seen

        first, second = total_ops // 3, 5
        workdir = tmp_path / "crash"
        try:
            with inject_faults(FaultInjector(first, kind="kill")):
                run_lifecycle(workdir)
        except SimulatedCrash:
            pass
        try:
            with inject_faults(FaultInjector(second, kind="kill")):
                recover_and_finish(workdir)
        except SimulatedCrash:
            pass
        recover_and_finish(workdir)
        recovered = fingerprint(workdir)
        assert recovered["manifest"] == baseline["manifest"]
        assert recovered["state"] == baseline["state"]
        assert recovered["files"] == baseline["files"]
