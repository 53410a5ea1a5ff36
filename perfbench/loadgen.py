"""The serve-mixed load: a closed loop over keep-alive HTTP connections.

All connections live in this one process and one event loop. Each sends
its next request only after the previous answer arrived; requests
alternate ``/match`` and ``/predict?k=5`` over held-out customer
histories. Connection 0 also rewrites the pattern file (atomically,
alternating two pattern sets) and sends ``POST /reload`` every
``RELOAD_EVERY`` of its requests, so index builds run next to the reads.

Every answer is checked against an in-process :class:`PatternIndex` for
the generation the answer reports: generation 1 is pattern set 0, and
each reload moves to the other set. A response that mixes generations
fails the check.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence
from urllib.parse import quote

from repro.core.sequence import format_sequence
from repro.io.patterns import write_patterns
from repro.miner import Pattern
from repro.serving.index import PatternIndex, pattern_payload, prediction_payload

PREDICT_K = 5
#: Two connections from one process: no more than the 2 CPUs the
#: benchmark is sized for, one of which the server itself needs.
CONNECTIONS = 2
#: Requests of connection 0 between two reloads.
RELOAD_EVERY = 250

Events = tuple[tuple[int, ...], ...]


def expected_answers(
    path: Path, queries: Sequence[Events]
) -> tuple[list[Any], list[Any]]:
    """``(match bodies, predict bodies)`` per query, less ``generation``,
    in the form ``json.loads`` gives them, from the pattern file at
    ``path`` read the way the server reads it."""
    index = PatternIndex.from_file(path)
    matches, predictions = [], []
    for query in queries:
        matched = index.match(query)
        matches.append(json.loads(json.dumps({
            "num_matched": len(matched),
            "patterns": [pattern_payload(pattern) for pattern in matched],
        })))
        predictions.append(json.loads(json.dumps({
            "predictions": [
                prediction_payload(prediction)
                for prediction in index.predict_next(query, PREDICT_K)
            ],
        })))
    return matches, predictions


@dataclass
class LoadResult:
    latencies_ms: list[float] = field(default_factory=list)
    reload_ms: list[float] = field(default_factory=list)
    matches: int = 0
    predicts: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    failures: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms) + len(self.reload_ms)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)


async def _exchange(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, request: bytes
) -> tuple[int, bytes]:
    writer.write(request)
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, await reader.readexactly(length)


@dataclass
class Load:
    """Everything a closed loop sends and checks, prepared once."""

    targets: list[tuple[bytes, bytes]]
    answers: list[tuple[list[Any], list[Any]]]
    staged: list[Path]
    patterns_path: Path


def prepare_load(
    queries: Sequence[Events],
    pattern_sets: Sequence[Sequence[Pattern]],
    patterns_path: Path,
) -> Load:
    """Render the requests, compute the expected answers of both pattern
    sets, and stage both pattern files next to ``patterns_path``, so no
    request waits on a pattern file being written."""
    staged = []
    for number, patterns in enumerate(pattern_sets):
        path = patterns_path.with_name(f"{patterns_path.name}.set{number}")
        write_patterns(patterns, path)
        staged.append(path)
    return Load(
        targets=[
            (
                f"GET /match?seq={quote(format_sequence(query))} HTTP/1.1\r\n"
                f"Host: bench\r\n\r\n".encode("latin-1"),
                f"GET /predict?seq={quote(format_sequence(query))}&k={PREDICT_K} "
                f"HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1"),
            )
            for query in queries
        ],
        answers=[expected_answers(path, queries) for path in staged],
        staged=staged,
        patterns_path=patterns_path,
    )


def serve_set(load: Load, number: int) -> None:
    """Atomically make pattern set ``number`` the served pattern file."""
    temporary = load.patterns_path.with_name(load.patterns_path.name + ".tmp")
    shutil.copyfile(load.staged[number], temporary)
    os.replace(temporary, load.patterns_path)


async def _drive(load: Load, port: int, seconds: float) -> LoadResult:
    targets, answers = load.targets, load.answers
    reload_request = (
        b"POST /reload HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n"
    )
    result = LoadResult()
    state = {"next": 0, "generation": 1}
    started = time.perf_counter()
    deadline = started + seconds

    async def reload(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        generation = state["generation"] + 1
        serve_set(load, (generation - 1) % 2)
        sent = time.perf_counter()
        status, body = await _exchange(reader, writer, reload_request)
        result.reload_ms.append((time.perf_counter() - sent) * 1000)
        if status != 200 or json.loads(body).get("generation") != generation:
            result.fail(f"reload: HTTP {status} {body[:120]!r}")
        else:
            state["generation"] = generation

    async def connection(number: int) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            sent_here = 0
            while time.perf_counter() < deadline:
                if number == 0 and sent_here and sent_here % RELOAD_EVERY == 0:
                    await reload(reader, writer)
                serial = state["next"]
                state["next"] += 1
                query, kind = (serial // 2) % len(targets), serial % 2
                sent = time.perf_counter()
                status, body = await _exchange(reader, writer, targets[query][kind])
                result.latencies_ms.append((time.perf_counter() - sent) * 1000)
                sent_here += 1
                if kind == 0:
                    result.matches += 1
                else:
                    result.predicts += 1
                answer = json.loads(body)
                generation = answer.pop("generation", None)
                if status != 200 or not isinstance(generation, int):
                    result.fail(f"HTTP {status}: {body[:120]!r}")
                elif answer != answers[(generation - 1) % 2][kind][query]:
                    result.fail(
                        f"{('match', 'predict')[kind]} answer for query {query} "
                        f"differs from generation {generation}'s index"
                    )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    await asyncio.gather(*(connection(number) for number in range(CONNECTIONS)))
    result.elapsed_s = time.perf_counter() - started
    return result


def drive(load: Load, port: int, seconds: float) -> LoadResult:
    """Run the closed loop for ``seconds`` against the server on ``port``,
    which has just started on pattern set 0 (generation 1)."""
    return asyncio.run(_drive(load, port, seconds))
