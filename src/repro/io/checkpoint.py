"""The durable pass store behind ``mine --checkpoint-dir`` / ``resume``.

A mining run is a deterministic sequence of counting passes (see
:mod:`repro.core.passkey`), so checkpointing does not need to snapshot
algorithm state at all: it records each pass's exact counts as the pass
completes, and a resumed run simply *replays* the recorded prefix in
order — every replayed pass returns the identical counts, so the
resumed run makes the identical decisions, regenerates the identical
next candidate sets, and produces byte-identical output. (A replayed
dict lists its keys in sorted order; no consumer of a pass depends on
the order the pass found its keys in.) The first pass past the durable
prefix is counted for real and recorded, and the run continues
normally.

On disk, a checkpoint directory holds:

* ``checkpoint.json`` — the run's full configuration. ``attach`` is
  create-or-open: opening an existing directory with a *different*
  configuration is refused, because replaying another run's passes
  would silently produce that run's answer.
* ``pass-0000.json``, ``pass-0001.json``, ... — one file per completed
  pass: its kind, its input digest, and its counts with keys in the
  stable text encoding, sorted by key, so equal counts give equal
  bytes whatever order the pass found them in. Every file is written
  atomically (:mod:`repro.io.atomic`), so a crash mid-record leaves the
  previous passes durable and at most a ``.tmp`` orphan — never a torn
  pass.

Divergence (a resumed run whose next pass does not match the stored
kind+digest at the cursor) raises :class:`CheckpointError`: the store
and the run disagree about history, and recounting is the only honest
answer. That can only happen if the database or the code changed under
an unchanged configuration.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.core.passkey import PASS_KINDS, decode_key, encode_key
from repro.io.atomic import atomic_write_json

__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "META_NAME",
    "pass_file_name",
]

META_NAME = "checkpoint.json"
META_FORMAT = "seqmine-checkpoint"
PASS_FORMAT = "seqmine-checkpoint-pass"
VERSION = 1


class CheckpointError(ValueError):
    """Raised for unusable checkpoint directories: configuration
    mismatch, corrupt pass files, or a resumed run that diverged from
    the recorded pass sequence."""


def pass_file_name(index: int) -> str:
    return f"pass-{index:04d}.json"


def _normalize(config: Mapping[str, Any]) -> Any:
    """The JSON-round-tripped form of a config, so equality means
    'serializes identically' (tuples == lists, no type leakage)."""
    return json.loads(json.dumps(config))


class CheckpointStore:
    """One checkpoint directory, opened at a cursor.

    Satisfies :class:`repro.core.protocols.PassCheckpoint`. The cursor
    walks the stored passes strictly in order: ``replay`` serves and
    advances while stored passes remain, then returns ``None`` forever
    after; ``record`` appends at the cursor. ``num_replayed`` /
    ``num_recorded`` expose how much of the run came from disk — the
    CLI reports them, and tests assert resume did no redundant
    counting.
    """

    def __init__(self, directory: str | Path, config: Mapping[str, Any]) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        meta_path = self._directory / META_NAME
        wanted = _normalize(config)
        if meta_path.exists():
            stored = self.read_config(self._directory)
            if stored != wanted:
                raise CheckpointError(
                    f"{self._directory}: checkpoint belongs to a different "
                    f"run configuration; resume with the same inputs or "
                    f"use a fresh --checkpoint-dir"
                )
        else:
            atomic_write_json(
                meta_path,
                {"format": META_FORMAT, "version": VERSION, "config": wanted},
            )
        self._num_stored = 0
        while (self._directory / pass_file_name(self._num_stored)).exists():
            self._num_stored += 1
        self._cursor = 0
        self.num_replayed = 0
        self.num_recorded = 0

    @classmethod
    def attach(
        cls, directory: str | Path, config: Mapping[str, Any]
    ) -> "CheckpointStore":
        """Create-or-open ``directory`` for a run with ``config``.

        A fresh directory is created (with its meta file) and starts
        empty; an existing one is opened at its durable pass prefix,
        after verifying the stored configuration matches exactly.
        """
        return cls(directory, config)

    @staticmethod
    def read_config(directory: str | Path) -> Any:
        """The stored run configuration, or :class:`CheckpointError`."""
        meta_path = Path(directory) / META_NAME
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise CheckpointError(
                f"{meta_path}: cannot read checkpoint meta: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"{meta_path}: corrupt checkpoint meta: {exc}"
            ) from exc
        if (
            not isinstance(payload, dict)
            or payload.get("format") != META_FORMAT
            or payload.get("version") != VERSION
            or not isinstance(payload.get("config"), dict)
        ):
            raise CheckpointError(
                f"{meta_path}: not a version-{VERSION} checkpoint meta file"
            )
        return payload["config"]

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def num_stored(self) -> int:
        """Durable passes on disk (the replayable prefix at attach)."""
        return self._num_stored

    def _load_pass(self, index: int) -> dict[str, Any]:
        path = self._directory / pass_file_name(index)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise CheckpointError(f"{path}: cannot read pass: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"{path}: corrupt pass file: {exc}") from exc
        if (
            not isinstance(payload, dict)
            or payload.get("format") != PASS_FORMAT
            or payload.get("version") != VERSION
            or payload.get("index") != index
            or payload.get("kind") not in PASS_KINDS
            or not isinstance(payload.get("digest"), str)
            or not isinstance(payload.get("counts"), dict)
        ):
            raise CheckpointError(
                f"{path}: not a version-{VERSION} checkpoint pass file"
            )
        return payload

    def replay(self, kind: str, key: str) -> dict[Any, int] | None:
        """Counts of the next stored pass; ``None`` once past the end."""
        if self._cursor >= self._num_stored:
            return None
        payload = self._load_pass(self._cursor)
        if payload["kind"] != kind or payload["digest"] != key:
            raise CheckpointError(
                f"{self._directory}: run diverged from checkpoint at pass "
                f"{self._cursor}: stored {payload['kind']} pass "
                f"{payload['digest'][:12]}..., run produced {kind} pass "
                f"{key[:12]}..."
            )
        counts: dict[Any, int] = {}
        for text, count in payload["counts"].items():
            if not isinstance(count, int):
                raise CheckpointError(
                    f"{self._directory / pass_file_name(self._cursor)}: "
                    f"non-integer count for key {text!r}"
                )
            counts[decode_key(kind, text)] = count
        self._cursor += 1
        self.num_replayed += 1
        return counts

    def record(self, kind: str, key: str, counts: Mapping[Any, int]) -> None:
        """Durably append one completed pass at the cursor."""
        payload = {
            "format": PASS_FORMAT,
            "version": VERSION,
            "index": self._cursor,
            "kind": kind,
            "digest": key,
            # Sorted by key: the bytes depend on the counts only, not on
            # the order the pass found them in.
            "counts": {
                encode_key(key): int(counts[key]) for key in sorted(counts)
            },
        }
        atomic_write_json(self._directory / pass_file_name(self._cursor), payload)
        self._cursor += 1
        self._num_stored = max(self._num_stored, self._cursor)
        self.num_recorded += 1
