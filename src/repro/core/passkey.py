"""Canonical identities for counting passes — the checkpoint vocabulary.

Checkpoint/resume (``seqmine mine --checkpoint-dir`` + ``seqmine
resume``) works by treating a mining run as a deterministic sequence of
counting passes. Each pass is identified by a *kind* (which engine ran)
and a *digest* of its input — for a candidate pass, the candidate set
itself. On resume the store replays passes strictly in order, and the
digest is what detects divergence: if the resumed run generates a
different candidate set at the same position, the stored pass is stale
and replay must fail loudly rather than return wrong counts.

This module is the shared vocabulary between the producers (the counting
engines in :mod:`repro.core`) and the store
(:class:`repro.io.checkpoint.CheckpointStore`): the pass kinds, the
stable text encoding of count keys (ints for raw items, id tuples for
everything else), the order-insensitive input digest, and
:func:`checkpointed`, the one replay-or-count-and-record wrapper every
counting pass goes through.

Layering: core must not import io — hence the codec lives here, and the
disk format lives with the store.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Iterable

from repro.core.protocols import PassCheckpoint

__all__ = [
    "INT_KEY_KINDS",
    "PASS_KINDS",
    "checkpointed",
    "decode_key",
    "encode_key",
    "pass_digest",
]

#: Every pass kind a mining run can emit, in the vocabulary's canonical
#: order: raw-item support scan (litemset pass 1), per-level candidate
#: itemsets, the occurring-pairs length-2 sweep, a candidate-sequence
#: pass, and DynamicSome's on-the-fly forward pass.
PASS_KINDS = ("items", "itemsets", "length2", "candidates", "onthefly")

#: Kinds whose count keys are bare ints; all others key by id tuple.
INT_KEY_KINDS = frozenset({"items"})


def encode_key(key: Any) -> str:
    """Stable text form of one count key (an int or a tuple of ints)."""
    if isinstance(key, int):
        return str(key)
    return " ".join(str(part) for part in key)


def decode_key(kind: str, text: str) -> Any:
    """Inverse of :func:`encode_key`, dispatched on the pass kind."""
    if kind in INT_KEY_KINDS:
        return int(text)
    return tuple(int(token) for token in text.split())


def pass_digest(kind: str, keys: Iterable[Any]) -> str:
    """Order-insensitive SHA-256 identity of one pass's input key set.

    Sorted before hashing, so the digest is a function of the *set* of
    inputs — candidate generation order may legitimately differ between
    the run that recorded a pass and the run replaying it, but the set
    may not.
    """
    hasher = hashlib.sha256()
    hasher.update(kind.encode("utf-8"))
    for encoded in sorted(encode_key(key) for key in keys):
        hasher.update(b"\x00")
        hasher.update(encoded.encode("utf-8"))
    return hasher.hexdigest()


def checkpointed(
    checkpoint: PassCheckpoint | None,
    kind: str,
    keys: Iterable[Any],
    count: Callable[[], dict[Any, int]],
) -> dict[Any, int]:
    """Run one counting pass through the durable pass store.

    Without a store this is just ``count()``. With one, the pass whose
    input is ``keys`` is replayed if it is next in the stored sequence;
    otherwise ``count()`` runs and its result is recorded before it is
    returned. The store is consulted before any work, so a replayed pass
    scans nothing. Passes whose input is the whole database (the
    raw-item scan, the length-2 sweep) pass the empty key set.
    """
    if checkpoint is None:
        return count()
    key = pass_digest(kind, keys)
    cached = checkpoint.replay(kind, key)
    if cached is not None:
        return cached
    counts = count()
    checkpoint.record(kind, key, counts)
    return counts
