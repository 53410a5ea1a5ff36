"""Atomic replacement writes: no reader ever observes a torn artifact.

Every persistent file the package writes — partition manifests,
``mining_state.json``, checkpoint passes, inversion-cache pickles,
pattern output, bench JSON — goes through :func:`atomic_writer`, which
implements the classic commit protocol:

1. write to a temp file **in the target's directory** (same filesystem,
   so the final rename cannot degrade to a copy);
2. flush and ``fsync`` the temp file (the bytes are on disk, not in the
   page cache, before anything points at them);
3. ``os.replace`` it over the target — the atomic commit point: readers
   see either the complete old file or the complete new one, never a
   prefix;
4. ``fsync`` the directory, so the rename itself survives power loss.

On an in-process failure (the ``OSError`` family) the temp file is
removed and the target is untouched; on a process-death-like failure
(``BaseException`` that is not an ``Exception`` — a kill, a simulated
crash) the temp file is deliberately left behind, exactly as a real
crash would leave it, and ``seqmine fsck`` reports and removes such
orphans. The ``durable-writes`` lint rule (``python -m tools.lint
--explain durable-writes``) enforces that persistent writers use this
module rather than a bare ``open(path, "w")``.

All filesystem calls route through :mod:`repro.io.fsops`, so the
fault-injection harness exercises these exact code paths.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterator

from repro.io.fsops import fs_fsync, fs_open, fs_replace, fsync_dir

__all__ = [
    "TMP_SUFFIX",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "atomic_writer",
]

#: Suffix of in-flight temp files. Fixed (not randomized) so runs are
#: deterministic, concurrent writers to the *same* target serialize on
#: one temp name instead of littering, and ``fsck`` can recognize an
#: interrupted write by name alone.
TMP_SUFFIX = ".tmp"


def _tmp_path(target: Path) -> Path:
    return target.with_name(target.name + TMP_SUFFIX)


@contextmanager
def atomic_writer(
    path: str | Path,
    mode: str = "w",
    *,
    encoding: str | None = None,
    newline: str | None = None,
) -> Iterator[IO[Any]]:
    """Yield a handle whose contents replace ``path`` atomically on exit.

    ``mode`` must be ``"w"`` or ``"wb"``. The handle streams to a temp
    file next to the target; a clean exit fsyncs, renames it over the
    target, and fsyncs the directory. An exception aborts the write and
    leaves the target untouched.
    """
    if mode not in ("w", "wb"):
        raise ValueError(
            f"atomic_writer mode must be 'w' or 'wb', got {mode!r}"
        )
    target = Path(path)
    tmp = _tmp_path(target)
    kwargs: dict[str, Any] = {}
    if mode == "w":
        kwargs["encoding"] = "utf-8" if encoding is None else encoding
        if newline is not None:
            kwargs["newline"] = newline
    handle = fs_open(tmp, mode, **kwargs)
    try:
        yield handle
        fs_fsync(handle)
    except Exception:
        # In-process failure: clean up our temp file; the target is
        # untouched either way.
        handle.close()
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    except BaseException:
        # Process-death-like failure (kill, simulated crash): leave the
        # temp file exactly as a real crash would; fsck removes orphans.
        handle.close()
        raise
    handle.close()
    fs_replace(tmp, target)
    fsync_dir(target.parent)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Atomically replace ``path`` with ``text`` (UTF-8)."""
    with atomic_writer(path, "w") as handle:
        handle.write(text)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``."""
    with atomic_writer(path, "wb") as handle:
        handle.write(data)


def atomic_write_json(path: str | Path, payload: Any) -> None:
    """Atomically replace ``path`` with compact JSON + newline.

    ``json.dumps`` without ``indent`` runs CPython's C encoder (an
    indented dump falls back to the pure-Python one, about four times
    slower). Key order is the payload's insertion order (never
    re-sorted), so a caller that builds its dict deterministically gets
    byte-identical files across runs — the property the
    crash-consistency suite asserts.
    """
    atomic_write_text(path, json.dumps(payload) + "\n")
