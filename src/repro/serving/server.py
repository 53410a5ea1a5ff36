"""An asyncio HTTP service over a :class:`~repro.serving.index.PatternIndex`.

Stdlib only: ``asyncio.start_server`` plus a deliberately minimal
HTTP/1.1 implementation (request line, headers, optional
``Content-Length`` body, keep-alive) — enough for the four JSON
endpoints without pulling a web framework into the dependency set:

* ``GET /match?seq=<(30)(40 70)>`` (or ``POST`` with a JSON
  ``{"sequence": [[30], [40, 70]]}`` body) — the mined patterns
  contained in the query sequence;
* ``GET /predict?seq=...&k=5`` (or ``POST``) — ranked next-event
  candidates;
* ``GET /healthz`` and ``GET /stats`` — liveness and counters;
* ``POST /reload`` — hot-swap to a freshly mined snapshot.

**Hot swap.** The server never mutates an index. It holds one
:class:`IndexSnapshot` — an immutable (index, generation, source)
triple — and a reload builds the *next* snapshot off the event loop (in
a worker thread), then publishes it with a single attribute assignment.
Every request handler captures the snapshot reference exactly once and
answers entirely from it, so a response is always internally consistent
with exactly one generation: there is no moment at which a request can
see half the old and half the new pattern set, and in-flight requests
simply finish on the snapshot they started with. A failed reload (file
missing, truncated, torn mid-write) leaves the published snapshot
untouched — the service keeps serving the old generation and reports
the failure in ``/stats``. ``SIGHUP`` triggers the same reload path
(fire-and-forget), so ``seqmine update ... --output patterns.txt &&
kill -HUP $(cat server.pid)`` is a zero-downtime deploy.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Awaitable, Callable

from repro.serving.index import (
    PatternIndex,
    QueryEvents,
    canonical_query,
    parse_query,
    pattern_payload,
    prediction_payload,
)

__all__ = [
    "IndexSnapshot",
    "PatternServer",
    "RequestError",
    "ServingError",
]

#: Hard cap on request bodies — queries are short; anything bigger is a
#: client bug or abuse.
MAX_BODY_BYTES = 1 << 20
#: Hard cap on header fields per request, so one request cannot make the
#: server read header lines without end.
MAX_HEADERS = 100


class ServingError(ValueError):
    """An operational serving failure (bad snapshot, reload failure)."""


class RequestError(ValueError):
    """A malformed client request; rendered as an HTTP 4xx."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True, slots=True)
class IndexSnapshot:
    """One immutable served generation of the pattern index."""

    index: PatternIndex
    generation: int
    source: str
    loaded_at: float

    @property
    def num_patterns(self) -> int:
        return self.index.num_patterns


class PatternServer:
    """The serving tier: an index snapshot behind an asyncio HTTP server.

    Lifecycle: construct with the pattern-file path, ``await start()``
    (loads the first snapshot, binds the socket, installs the SIGHUP
    handler where the platform has one), then either ``await
    serve_forever()`` or drive requests from the same loop; ``await
    close()`` tears down. ``port=0`` binds an ephemeral port, published
    as :attr:`port` after ``start()``.
    """

    def __init__(
        self,
        patterns_path: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._patterns_path = str(patterns_path)
        self._host = host
        self._requested_port = port
        self._snapshot: IndexSnapshot | None = None
        self._server: asyncio.base_events.Server | None = None
        self._reload_lock = asyncio.Lock()
        self._sighup_installed = False
        self._started_at = 0.0
        self._request_counts: dict[str, int] = {}
        self._reloads_ok = 0
        self._reloads_failed = 0
        self._last_reload_error: str | None = None

    # ------------------------------------------------------------- #
    # Lifecycle
    # ------------------------------------------------------------- #

    @property
    def snapshot(self) -> IndexSnapshot:
        """The currently published snapshot (requires ``start()``)."""
        if self._snapshot is None:
            raise ServingError("server not started: no snapshot loaded")
        return self._snapshot

    @property
    def port(self) -> int:
        if self._server is None:
            raise ServingError("server not started: no bound port")
        sock = self._server.sockets[0]
        return int(sock.getsockname()[1])

    @property
    def address(self) -> str:
        return f"http://{self._host}:{self.port}"

    async def start(self) -> None:
        """Load the initial snapshot and bind the listening socket."""
        index = PatternIndex.from_file(self._patterns_path)
        self._snapshot = IndexSnapshot(
            index=index,
            generation=1,
            source=self._patterns_path,
            loaded_at=time.time(),
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._requested_port
        )
        self._started_at = time.monotonic()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGHUP, self._sighup)
            self._sighup_installed = True
        except (NotImplementedError, RuntimeError):
            # No signal support on this platform/loop (e.g. Windows,
            # or a loop embedded in a thread): /reload still works.
            self._sighup_installed = False

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ServingError("server not started")
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._sighup_installed:
            asyncio.get_running_loop().remove_signal_handler(signal.SIGHUP)
            self._sighup_installed = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------- #
    # Hot swap
    # ------------------------------------------------------------- #

    async def reload(self) -> IndexSnapshot:
        """Build the next snapshot from the pattern file and publish it.

        The index is built in a worker thread, so the event loop keeps
        answering requests from the old snapshot for the whole build;
        the publish itself is one attribute assignment. Raises
        :class:`ServingError` on any load failure, in which case the
        old snapshot remains published and serving.
        """
        async with self._reload_lock:
            old = self.snapshot
            loop = asyncio.get_running_loop()
            try:
                index = await loop.run_in_executor(
                    None, PatternIndex.from_file, self._patterns_path
                )
            except (ValueError, OSError) as exc:
                self._reloads_failed += 1
                self._last_reload_error = str(exc)
                raise ServingError(
                    f"reload failed, still serving generation "
                    f"{old.generation}: {exc}"
                ) from exc
            snapshot = IndexSnapshot(
                index=index,
                generation=old.generation + 1,
                source=self._patterns_path,
                loaded_at=time.time(),
            )
            self._snapshot = snapshot
            self._reloads_ok += 1
            self._last_reload_error = None
            return snapshot

    def _sighup(self) -> None:
        """SIGHUP → background reload; failures land in ``/stats``."""

        async def _run() -> None:
            try:
                await self.reload()
            except ServingError:
                pass  # counted in _reloads_failed, old snapshot serving

        asyncio.get_running_loop().create_task(_run())

    # ------------------------------------------------------------- #
    # HTTP plumbing
    # ------------------------------------------------------------- #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                keep_alive = await self._handle_one_request(reader, writer)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_one_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Serve one request; returns whether to keep the connection."""
        try:
            head = await self._read_head(reader)
        except RequestError as exc:
            await self._respond(
                writer, exc.status, {"error": str(exc)}, close=True
            )
            return False
        if head is None:
            return False
        method, target, headers, length = head
        body = await reader.readexactly(length) if length else b""
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        try:
            status, payload = await self._route(method.upper(), target, body)
        except RequestError as exc:
            status, payload = exc.status, {"error": str(exc)}
        except ServingError as exc:
            status, payload = 500, {"error": str(exc)}
        await self._respond(writer, status, payload, close=not keep_alive)
        return keep_alive

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        try:
            return await reader.readline()
        except ValueError as exc:
            # readline() re-raises the StreamReader's LimitOverrunError
            # as ValueError when a line outgrows its buffer limit.
            raise RequestError(400, "request or header line too long") from exc

    async def _read_head(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], int] | None:
        """Request line, headers and body length of the next request, or
        ``None`` at end of stream. A malformed head raises
        :class:`RequestError`; the caller answers it and closes."""
        request_line = await self._read_line(reader)
        if not request_line:
            return None
        try:
            method, target, _version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError as exc:
            raise RequestError(400, "malformed request line") from exc
        headers: dict[str, str] = {}
        fields = 0
        while True:
            line = await self._read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            fields += 1
            if fields > MAX_HEADERS:
                raise RequestError(431, f"more than {MAX_HEADERS} header fields")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            length = -1
        if length < 0:
            raise RequestError(400, f"bad Content-Length {length_text!r}")
        if length > MAX_BODY_BYTES:
            raise RequestError(413, "request body too large")
        return method, target, headers, length

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        *,
        close: bool,
    ) -> None:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed", 413: "Payload Too Large",
                   431: "Request Header Fields Too Large",
                   500: "Internal Server Error"}
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'Error')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------- #
    # Routing
    # ------------------------------------------------------------- #

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        from urllib.parse import parse_qs, unquote, urlsplit

        split = urlsplit(target)
        path = unquote(split.path)
        params = {
            key: values[-1]
            for key, values in parse_qs(split.query).items()
        }
        self._request_counts[path] = self._request_counts.get(path, 0) + 1
        handlers: dict[str, Callable[[], Awaitable[tuple[int, dict[str, Any]]]]] = {
            "/match": lambda: self._handle_match(method, params, body),
            "/predict": lambda: self._handle_predict(method, params, body),
            "/healthz": lambda: self._handle_healthz(method),
            "/stats": lambda: self._handle_stats(method),
            "/reload": lambda: self._handle_reload(method),
        }
        handler = handlers.get(path)
        if handler is None:
            raise RequestError(404, f"unknown path {path!r}")
        return await handler()

    def _query_from(
        self, method: str, params: dict[str, str], body: bytes
    ) -> tuple[QueryEvents, dict[str, str]]:
        """The query events of a /match or /predict request.

        GET passes ``seq=<(30)(40 70)>``; POST passes a JSON body
        ``{"sequence": [[30], [40, 70]], ...}`` whose remaining keys
        (e.g. ``k``) merge into the parameter map.
        """
        if method == "POST" and body:
            try:
                decoded = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise RequestError(400, f"bad JSON body: {exc}") from exc
            if not isinstance(decoded, dict) or "sequence" not in decoded:
                raise RequestError(
                    400, "POST body must be a JSON object with 'sequence'"
                )
            raw = decoded["sequence"]
            if not isinstance(raw, list) or not all(
                isinstance(event, list) for event in raw
            ):
                raise RequestError(400, "'sequence' must be a list of lists")
            try:
                events = canonical_query(raw)
            except ValueError as exc:
                raise RequestError(400, f"bad sequence: {exc}") from exc
            merged = dict(params)
            for key, value in decoded.items():
                if key != "sequence":
                    merged[key] = str(value)
            return events, merged
        if method not in ("GET", "POST"):
            raise RequestError(405, f"method {method} not allowed")
        seq_text = params.get("seq")
        if seq_text is None:
            raise RequestError(
                400, "missing 'seq' parameter (or POST a JSON body)"
            )
        try:
            return parse_query(seq_text), params
        except ValueError as exc:
            raise RequestError(400, f"bad seq: {exc}") from exc

    async def _handle_match(
        self, method: str, params: dict[str, str], body: bytes
    ) -> tuple[int, dict[str, Any]]:
        events, _ = self._query_from(method, params, body)
        # One snapshot read per request: everything below — matching,
        # generation, pattern payloads — comes from this object, so the
        # response can never mix generations mid-swap.
        snapshot = self.snapshot
        matched = snapshot.index.match(events)
        return 200, {
            "generation": snapshot.generation,
            "num_matched": len(matched),
            "patterns": [pattern_payload(pattern) for pattern in matched],
        }

    async def _handle_predict(
        self, method: str, params: dict[str, str], body: bytes
    ) -> tuple[int, dict[str, Any]]:
        events, merged = self._query_from(method, params, body)
        k_text = merged.get("k", "5")
        try:
            k = int(k_text)
        except ValueError as exc:
            raise RequestError(400, f"bad k {k_text!r}") from exc
        if k < 0:
            raise RequestError(400, f"k must be >= 0, got {k}")
        snapshot = self.snapshot
        predictions = snapshot.index.predict_next(events, k)
        return 200, {
            "generation": snapshot.generation,
            "predictions": [
                prediction_payload(prediction) for prediction in predictions
            ],
        }

    async def _handle_healthz(self, method: str) -> tuple[int, dict[str, Any]]:
        if method != "GET":
            raise RequestError(405, f"method {method} not allowed")
        snapshot = self.snapshot
        return 200, {
            "status": "ok",
            "generation": snapshot.generation,
            "patterns": snapshot.num_patterns,
        }

    async def _handle_stats(self, method: str) -> tuple[int, dict[str, Any]]:
        if method != "GET":
            raise RequestError(405, f"method {method} not allowed")
        snapshot = self.snapshot
        return 200, {
            "generation": snapshot.generation,
            "source": snapshot.source,
            "patterns": snapshot.num_patterns,
            "index_nodes": snapshot.index.num_nodes,
            "max_pattern_length": snapshot.index.max_pattern_length,
            "uptime_seconds": time.monotonic() - self._started_at,
            "requests": dict(sorted(self._request_counts.items())),
            "reloads": {
                "ok": self._reloads_ok,
                "failed": self._reloads_failed,
                "last_error": self._last_reload_error,
            },
        }

    async def _handle_reload(self, method: str) -> tuple[int, dict[str, Any]]:
        if method != "POST":
            raise RequestError(
                405, "reload is a POST (it changes served state)"
            )
        snapshot = await self.reload()
        return 200, {
            "generation": snapshot.generation,
            "patterns": snapshot.num_patterns,
            "source": snapshot.source,
        }
