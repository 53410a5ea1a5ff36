"""``seqmine fsck``: validate and repair a partitioned-database directory.

The durability design (:mod:`repro.io.atomic`, the binlog footer) makes
every on-disk artifact either complete or detectably broken; fsck is
the tool that walks a directory and acts on what it detects. Damage is
handled at the smallest possible blast radius:

* **Interrupted writes** — ``*.tmp`` orphans from atomic writes that
  never committed, and delta partition files whose append never
  reached its manifest commit — are removed and reported: they were
  never part of the database.
* **The base** — the manifest and the base partitions — is
  load-bearing for everything; if it is missing or corrupt, fsck fails
  with a one-line error (there is nothing safe to repair *to*).
* **Delta generations** are transactional suffixes: if generation G's
  files are corrupt, fsck *quarantines* G and every later generation
  (renames each file to ``*.quarantined``, preserving the evidence)
  and rewrites the manifest rolled back to generation G−1, with
  statistics recomputed by a streaming scan of the survivors. The
  database reopens as it was before the damaged append.
* **The mining-state snapshot** is quarantined if unreadable, or if a
  rollback left it describing a generation the database no longer has.
* **Derived caches** (``transformed/`` binlogs and vertical-inversion
  pickles) are simply deleted when invalid — they are recomputed on the
  next mine.

Partition validation is full-strength: every surviving binlog is
checked with :meth:`~repro.io.binlog.BinlogReader.verify`, which
re-hashes the record region against the version-2 footer CRC — so bit
rot inside records is caught, not just truncation.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.io.atomic import atomic_write_json
from repro.io.binlog import BinlogFormatError, BinlogReader
from repro.db.partitioned import (
    MANIFEST_FORMAT,
    MANIFEST_NAME,
    MANIFEST_VERSION,
    MINING_STATE_NAME,
    delta_overlay_file_name,
    delta_partition_file_name,
    partition_file_name,
)

__all__ = ["FsckReport", "QUARANTINE_SUFFIX", "fsck_directory"]

#: Appended to a damaged file's name instead of deleting it: the
#: evidence survives for post-mortems, while every reader (which
#: matches exact names from the manifest) stops seeing it.
QUARANTINE_SUFFIX = ".quarantined"


@dataclass(slots=True)
class FsckReport:
    """What ``fsck`` found and did; ``clean`` means nothing was wrong."""

    directory: Path
    checked_files: int = 0
    problems: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)
    rolled_back_to_generation: int | None = None

    @property
    def clean(self) -> bool:
        return not self.problems

    def lines(self) -> list[str]:
        """The CLI's stdout rendering, one finding per line."""
        out = [f"fsck {self.directory}: checked {self.checked_files} files"]
        for problem in self.problems:
            out.append(f"  problem: {problem}")
        for name in self.removed:
            out.append(f"  removed: {name}")
        for name in self.quarantined:
            out.append(f"  quarantined: {name}")
        if self.rolled_back_to_generation is not None:
            out.append(
                f"  rolled back to generation {self.rolled_back_to_generation}"
            )
        out.append("clean" if self.clean else "repaired")
        return out


def _quarantine(path: Path, report: FsckReport) -> None:
    if path.exists():
        path.replace(path.with_name(path.name + QUARANTINE_SUFFIX))
        report.quarantined.append(path.name)


def _verify_binlog(path: Path) -> str | None:
    """``None`` if ``path`` is a fully valid binlog, else the problem."""
    if not path.exists():
        return f"{path.name}: missing"
    try:
        BinlogReader(path).verify()
    except BinlogFormatError as exc:
        return str(exc)
    return None


def _read_manifest_strict(directory: Path) -> dict[str, Any]:
    """The manifest, or ``ValueError`` — manifest damage is fatal."""
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise ValueError(
            f"{directory} is not a partitioned database: missing {MANIFEST_NAME}"
        )
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{manifest_path}: not valid JSON: {exc}") from exc
    if (
        not isinstance(manifest, dict)
        or manifest.get("format") != MANIFEST_FORMAT
        or manifest.get("version") != MANIFEST_VERSION
        or not isinstance(manifest.get("partitions"), int)
    ):
        raise ValueError(
            f"{manifest_path}: not a version-{MANIFEST_VERSION} "
            f"partitioned-database manifest"
        )
    return manifest


def _delta_files(directory: Path, delta: dict[str, Any]) -> list[Path]:
    paths = [
        directory / delta_partition_file_name(delta["generation"], i)
        for i in range(delta.get("partitions", 0))
    ]
    if delta.get("num_overlay_customers", 0):
        paths.append(directory / delta_overlay_file_name(delta["generation"]))
    return paths


def _recompute_statistics(
    manifest: dict[str, Any],
    partition_paths: Iterable[Path],
    overlay_paths: Iterable[Path],
) -> None:
    """Rebuild the manifest's scan-derived totals from surviving files.

    Per-delta transaction/item totals are not stored in the manifest, so
    a rollback cannot subtract its way back — it rescans, streaming, and
    the result is exact by construction.
    """
    num_customers = 0
    num_transactions = 0
    num_items_total = 0
    vocabulary: set[int] = set()
    max_customer_id = 0
    for path in partition_paths:
        for customer_id, events in BinlogReader(path):
            num_customers += 1
            if customer_id > max_customer_id:
                max_customer_id = customer_id
            num_transactions += len(events)
            for event in events:
                num_items_total += len(event)
                vocabulary.update(event)
    for path in overlay_paths:
        # Overlay records extend existing customers: they add
        # transactions and items but never customers.
        for _customer_id, events in BinlogReader(path):
            num_transactions += len(events)
            for event in events:
                num_items_total += len(event)
                vocabulary.update(event)
    manifest["num_customers"] = num_customers
    manifest["num_transactions"] = num_transactions
    manifest["num_items_total"] = num_items_total
    manifest["num_distinct_items"] = len(vocabulary)
    manifest["max_customer_id"] = max_customer_id
    manifest["vocabulary"] = sorted(vocabulary)


def _remove_tmp_orphans(directory: Path, report: FsckReport) -> None:
    for scan_dir in (directory, directory / "transformed"):
        if not scan_dir.is_dir():
            continue
        for orphan in sorted(scan_dir.glob("*.tmp")):
            orphan.unlink()
            relative = orphan.relative_to(directory)
            report.problems.append(
                f"{relative}: interrupted write (orphaned temp file)"
            )
            report.removed.append(str(relative))


def _remove_uncommitted_deltas(
    directory: Path, manifest: dict[str, Any], report: FsckReport
) -> None:
    """Delete delta files no manifest entry commits to.

    These are the droppings of an append that crashed before its
    manifest replace — the database never contained them, and the next
    append will reuse their generation number.
    """
    committed = {
        path.name
        for delta in manifest.get("deltas", ())
        for path in _delta_files(directory, delta)
    }
    for path in sorted(directory.glob("delta-*.binlog")):
        if path.name not in committed:
            path.unlink()
            report.problems.append(
                f"{path.name}: uncommitted delta file (append never "
                f"reached its manifest commit)"
            )
            report.removed.append(path.name)


def _check_derived_caches(directory: Path, report: FsckReport) -> None:
    transformed = directory / "transformed"
    if not transformed.is_dir():
        return
    for path in sorted(transformed.glob("*.binlog")):
        report.checked_files += 1
        problem = _verify_binlog(path)
        if problem is not None:
            path.unlink()
            report.problems.append(f"transformed cache invalid: {problem}")
            report.removed.append(str(path.relative_to(directory)))
    for path in sorted(transformed.glob("*.pkl")):
        report.checked_files += 1
        try:
            pickle.loads(path.read_bytes())
        except Exception as exc:
            path.unlink()
            report.problems.append(
                f"{path.relative_to(directory)}: corrupt inversion cache: {exc}"
            )
            report.removed.append(str(path.relative_to(directory)))


def fsck_directory(directory: str | Path) -> FsckReport:
    """Validate ``directory``; repair what is repairable.

    Returns the report. Raises ``ValueError`` (one line, CLI-ready) only
    for unrepairable damage: a missing/corrupt manifest or a corrupt
    *base* partition.
    """
    directory = Path(directory)
    report = FsckReport(directory=directory)
    _remove_tmp_orphans(directory, report)

    manifest = _read_manifest_strict(directory)
    report.checked_files += 1

    base_paths = [
        directory / partition_file_name(i)
        for i in range(manifest["partitions"])
    ]
    for path in base_paths:
        report.checked_files += 1
        problem = _verify_binlog(path)
        if problem is not None:
            raise ValueError(f"base partition damaged beyond repair: {problem}")

    _remove_uncommitted_deltas(directory, manifest, report)

    deltas = list(manifest.get("deltas", ()))
    surviving: list[dict[str, Any]] = []
    rolled_back = False
    for position, delta in enumerate(deltas):
        problem = None
        for path in _delta_files(directory, delta):
            report.checked_files += 1
            problem = _verify_binlog(path)
            if problem is not None:
                break
        if problem is None:
            surviving.append(delta)
            continue
        # First damaged generation: quarantine it and every later one —
        # deltas are an ordered chain, and a chain with a hole is not
        # the database the manifest describes.
        report.problems.append(
            f"delta generation {delta['generation']} damaged: {problem}"
        )
        for later in deltas[position:]:
            for path in _delta_files(directory, later):
                _quarantine(path, report)
        rolled_back = True
        break

    good_generation = surviving[-1]["generation"] if surviving else 0
    if rolled_back:
        manifest["deltas"] = surviving
        overlay_paths = [
            directory / delta_overlay_file_name(delta["generation"])
            for delta in surviving
            if delta.get("num_overlay_customers", 0)
        ]
        partition_paths = list(base_paths)
        for delta in surviving:
            partition_paths.extend(
                directory / delta_partition_file_name(delta["generation"], i)
                for i in range(delta.get("partitions", 0))
            )
        _recompute_statistics(manifest, partition_paths, overlay_paths)
        atomic_write_json(directory / MANIFEST_NAME, manifest)
        report.rolled_back_to_generation = good_generation

    state_path = directory / MINING_STATE_NAME
    if state_path.exists():
        from repro.io.state import MiningStateError, read_mining_state

        report.checked_files += 1
        try:
            state = read_mining_state(state_path)
        except MiningStateError as exc:
            report.problems.append(str(exc))
            _quarantine(state_path, report)
        else:
            if state.generation > good_generation:
                report.problems.append(
                    f"{MINING_STATE_NAME}: snapshot of generation "
                    f"{state.generation}, database rolled back to "
                    f"{good_generation}"
                )
                _quarantine(state_path, report)

    _check_derived_caches(directory, report)
    return report
