"""(De)serialization of :class:`~repro.incremental.state.MiningState`.

The snapshot lives in one JSON file, by convention
``mining_state.json`` next to the partition manifest
(:data:`repro.db.partitioned.MINING_STATE_NAME`). Keys must be strings
in JSON, so itemsets and sequences use a compact text encoding:

* an itemset is its items, ascending, space-separated — ``"3 7"``;
* a sequence is its itemsets joined by ``/`` — ``"3/7 9"`` is
  ``<(3)(7 9)>``.

Malformed input — missing file, invalid JSON, wrong format marker,
wrong types — raises :class:`MiningStateError` naming the file, which
the CLI surfaces as a one-line error (exit 1), never a traceback.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.sequence import Itemset
from repro.io.atomic import atomic_write_json
from repro.incremental.state import (
    STATE_FORMAT,
    STATE_VERSION,
    ExpandedSequence,
    MiningState,
)


class MiningStateError(ValueError):
    """Raised for missing or malformed mining-state files."""


def encode_itemset(itemset: Itemset) -> str:
    return " ".join(str(item) for item in itemset)


def decode_itemset(text: str) -> Itemset:
    try:
        items = tuple(int(part) for part in text.split())
    except ValueError:
        raise ValueError(f"bad itemset key {text!r}") from None
    if not items or any(
        items[i] >= items[i + 1] for i in range(len(items) - 1)
    ):
        raise ValueError(f"bad itemset key {text!r}: not strictly ascending")
    return items


def encode_sequence(sequence: ExpandedSequence) -> str:
    return "/".join(encode_itemset(event) for event in sequence)


def decode_sequence(text: str) -> ExpandedSequence:
    return tuple(decode_itemset(part) for part in text.split("/"))


def write_mining_state(state: MiningState, path: str | Path) -> None:
    """Serialize ``state`` to ``path`` (pretty-printed JSON)."""
    payload = {
        "format": STATE_FORMAT,
        "version": STATE_VERSION,
        "minsup": state.minsup,
        "algorithm": state.algorithm,
        "strategy": state.strategy,
        "num_customers": state.num_customers,
        "generation": state.generation,
        "length2_complete": state.length2_complete,
        "max_pattern_length": state.max_pattern_length,
        "max_litemset_size": state.max_litemset_size,
        "item_counts": {
            str(item): count for item, count in sorted(state.item_counts.items())
        },
        "itemset_counts": {
            encode_itemset(itemset): count
            for itemset, count in sorted(state.itemset_counts.items())
        },
        "sequence_counts": {
            encode_sequence(sequence): count
            for sequence, count in sorted(state.sequence_counts.items())
        },
    }
    # Atomic replacement: a crash mid-serialization must never leave a
    # torn snapshot that poisons every later `update` (see repro.io.atomic).
    atomic_write_json(path, payload)


def read_mining_state(path: str | Path) -> MiningState:
    """Load and validate a mining-state snapshot.

    Raises :class:`MiningStateError` (a ``ValueError``) naming ``path``
    for every way the file can be wrong.
    """
    path = Path(path)
    if not path.exists():
        raise MiningStateError(
            f"{path}: no mining-state snapshot found (mine with "
            f"--save-state first)"
        )
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise MiningStateError(f"{path}: not valid JSON: {exc}") from exc
    except OSError as exc:
        raise MiningStateError(f"{path}: cannot read: {exc}") from exc
    if not isinstance(payload, dict):
        raise MiningStateError(f"{path}: expected a JSON object")
    if payload.get("format") != STATE_FORMAT:
        raise MiningStateError(
            f"{path}: unexpected format {payload.get('format')!r} "
            f"(not a mining-state snapshot)"
        )
    if payload.get("version") != STATE_VERSION:
        raise MiningStateError(
            f"{path}: unsupported state version {payload.get('version')!r}"
        )
    try:
        state = MiningState(
            minsup=float(payload["minsup"]),
            algorithm=str(payload["algorithm"]),
            strategy=str(payload["strategy"]),
            num_customers=int(payload["num_customers"]),
            generation=int(payload["generation"]),
            length2_complete=bool(payload["length2_complete"]),
            item_counts={
                int(key): int(count)
                for key, count in payload["item_counts"].items()
            },
            itemset_counts={
                decode_itemset(key): int(count)
                for key, count in payload["itemset_counts"].items()
            },
            sequence_counts={
                decode_sequence(key): int(count)
                for key, count in payload["sequence_counts"].items()
            },
            max_pattern_length=(
                None
                if payload.get("max_pattern_length") is None
                else int(payload["max_pattern_length"])
            ),
            max_litemset_size=(
                None
                if payload.get("max_litemset_size") is None
                else int(payload["max_litemset_size"])
            ),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise MiningStateError(f"{path}: corrupt mining state: {exc}") from exc
    if not 0.0 < state.minsup <= 1.0:
        raise MiningStateError(
            f"{path}: corrupt mining state: minsup {state.minsup} "
            f"out of range"
        )
    if state.num_customers < 0 or state.generation < 0:
        raise MiningStateError(
            f"{path}: corrupt mining state: negative customer count "
            f"or generation"
        )
    return state
