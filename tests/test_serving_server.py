"""Concurrency and robustness tests for the pattern-serving HTTP tier.

The hot-swap contract under test: while snapshots are swapped in a loop
under concurrent client load, **every** response is wholly consistent
with exactly one snapshot generation (no mixed/torn results) and no
request errors; a failed reload — corrupt file, or a writer crashed
mid-rewrite by the :class:`~repro.testing.faults.FaultInjector` — keeps
the old index serving.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal

import pytest

from repro.io.patterns import write_patterns
from repro.miner import Pattern
from repro.core.sequence import Sequence
from repro.serving.index import PatternIndex, pattern_payload
from repro.serving.server import MAX_HEADERS, PatternServer, ServingError
from repro.testing.faults import (
    FaultInjector,
    SimulatedCrash,
    count_io_ops,
    inject_faults,
)

#: Two distinguishable snapshot contents; every pattern set below keeps
#: support = count / 10 so payloads are fully deterministic.
GEN_A = [
    Pattern(sequence=Sequence([(30,), (40, 70)]), count=2, support=0.2),
    Pattern(sequence=Sequence([(30,), (90,)]), count=4, support=0.4),
]
GEN_B = [
    Pattern(sequence=Sequence([(30,), (40, 70)]), count=3, support=0.3),
    Pattern(sequence=Sequence([(10, 20), (30,)]), count=5, support=0.5),
    Pattern(sequence=Sequence([(90,)]), count=6, support=0.6),
]

#: The query used by the load clients: matches patterns from both
#: generations, with different results in each.
QUERY_TEXT = "<(10 20)(30)(40 60 70)(90)>"
QUERY_EVENTS = [(10, 20), (30,), (40, 60, 70), (90,)]


def expected_match_payload(patterns: list[Pattern]) -> list[dict[str, object]]:
    index = PatternIndex(patterns)
    return [pattern_payload(p) for p in index.match(QUERY_EVENTS)]


async def http_request(
    port: int, target: str, *, method: str = "GET", body: bytes = b""
) -> tuple[int, dict[str, object]]:
    """One raw HTTP round trip on a fresh connection."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        head = (
            f"{method} {target} HTTP/1.1\r\n"
            f"Host: test\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = json.loads((await reader.readexactly(length)).decode("utf-8"))
        return status, payload
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


@pytest.fixture()
def patterns_path(tmp_path):
    path = tmp_path / "patterns.txt"
    write_patterns(GEN_A, path)
    return path


def run(coro):
    return asyncio.run(coro)


class TestEndpoints:
    def test_match_predict_healthz_stats(self, patterns_path):
        async def scenario():
            server = PatternServer(patterns_path)
            await server.start()
            try:
                port = server.port
                status, payload = await http_request(
                    port, "/match?seq=%3C(30)(40%2070)%3E"
                )
                assert status == 200
                assert payload["generation"] == 1
                assert payload["num_matched"] == 1
                assert payload["patterns"][0]["pattern"] == "<(30)(40 70)>"

                status, payload = await http_request(
                    port, "/predict?seq=%3C(30)%3E&k=3"
                )
                assert status == 200
                # (30) re-opens with count 4, tying (90); label breaks it.
                events = [(p["event"], p["count"]) for p in payload["predictions"]]
                assert events == [([30], 4), ([90], 4), ([40, 70], 2)]

                body = json.dumps(
                    {"sequence": [[30], [40, 60, 70]], "k": 1}
                ).encode()
                status, payload = await http_request(
                    port, "/predict", method="POST", body=body
                )
                assert status == 200

                status, payload = await http_request(port, "/healthz")
                assert (status, payload["status"]) == (200, "ok")

                status, payload = await http_request(port, "/stats")
                assert status == 200
                assert payload["patterns"] == len(GEN_A)
                assert payload["requests"]["/match"] == 1
            finally:
                await server.close()

        run(scenario())

    def test_error_paths(self, patterns_path):
        async def scenario():
            server = PatternServer(patterns_path)
            await server.start()
            try:
                port = server.port
                for target, expect in [
                    ("/nope", 404),
                    ("/match", 400),              # missing seq
                    ("/match?seq=30", 400),       # unparsable
                    ("/predict?seq=%3C%3E&k=x", 400),
                    ("/predict?seq=%3C%3E&k=-1", 400),
                ]:
                    status, payload = await http_request(port, target)
                    assert status == expect
                    assert "error" in payload
                status, _ = await http_request(port, "/reload")  # GET
                assert status == 405
                status, _ = await http_request(port, "/stats", method="POST")
                assert status == 405
                body = b"{not json"
                status, _ = await http_request(
                    port, "/match", method="POST", body=body
                )
                assert status == 400
                # Empty query is legal, not an error.
                status, payload = await http_request(port, "/match?seq=%3C%3E")
                assert (status, payload["num_matched"]) == (200, 0)
            finally:
                await server.close()

        run(scenario())

    def test_missing_patterns_file_fails_startup(self, tmp_path):
        async def scenario():
            server = PatternServer(tmp_path / "absent.txt")
            with pytest.raises(OSError):
                await server.start()

        run(scenario())


async def raw_exchange(port: int, request: bytes) -> bytes:
    """Send raw bytes on a fresh connection; return everything the server
    sends back before closing it."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(request)
        await writer.drain()
        return await asyncio.wait_for(reader.read(), timeout=10)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


class TestMalformedRequests:
    """Heads the request parser cannot accept get a 4xx and a closed
    connection — never an unhandled exception in the connection task —
    and the server keeps serving the next client."""

    #: Longer than asyncio's default 64 KiB StreamReader line limit.
    LONG = "x" * (70 * 1024)

    def _assert_rejected_then_served(
        self, patterns_path, request: bytes, expected: int = 400
    ):
        async def scenario():
            server = PatternServer(patterns_path)
            await server.start()
            try:
                reply = await raw_exchange(server.port, request)
                head, _, body = reply.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 %d " % expected), reply[:200]
                assert b"Connection: close" in head
                assert "error" in json.loads(body)
                status, payload = await http_request(
                    server.port, "/match?seq=%3C(30)(90)%3E"
                )
                assert (status, payload["num_matched"]) == (200, 1)
            finally:
                await server.close()

        run(scenario())

    def test_negative_content_length(self, patterns_path):
        self._assert_rejected_then_served(
            patterns_path,
            b"POST /match HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
        )

    def test_overlong_request_line(self, patterns_path):
        self._assert_rejected_then_served(
            patterns_path,
            f"GET /match?seq={self.LONG} HTTP/1.1\r\n\r\n".encode("latin-1"),
        )

    def test_overlong_header_line(self, patterns_path):
        self._assert_rejected_then_served(
            patterns_path,
            f"GET /healthz HTTP/1.1\r\nX-Long: {self.LONG}\r\n\r\n".encode(
                "latin-1"
            ),
        )

    @staticmethod
    def _with_headers(count: int) -> bytes:
        """A request with ``count`` header fields, the last one
        ``Connection: close``."""
        fields = "".join(f"X-Field-{n}: {n}\r\n" for n in range(count - 1))
        return (
            f"GET /healthz HTTP/1.1\r\n{fields}Connection: close\r\n\r\n"
        ).encode("latin-1")

    def test_too_many_header_fields(self, patterns_path):
        self._assert_rejected_then_served(
            patterns_path, self._with_headers(MAX_HEADERS + 1), expected=431
        )

    def test_header_fields_up_to_the_cap_are_served(self, patterns_path):
        async def scenario():
            server = PatternServer(patterns_path)
            await server.start()
            try:
                reply = await raw_exchange(
                    server.port, self._with_headers(MAX_HEADERS)
                )
                assert reply.startswith(b"HTTP/1.1 200 "), reply[:200]
            finally:
                await server.close()

        run(scenario())


class TestHotSwapConsistency:
    def test_concurrent_load_while_swapping(self, patterns_path):
        """Hammer /match from concurrent clients while snapshots swap in
        a loop; every response must be byte-consistent with exactly one
        generation and zero requests may error."""

        async def scenario():
            server = PatternServer(patterns_path)
            await server.start()
            expected = {1: expected_match_payload(GEN_A)}
            responses: list[tuple[int, dict[str, object]]] = []
            stop = asyncio.Event()

            async def client() -> None:
                while not stop.is_set():
                    status, payload = await http_request(
                        server.port, "/match?seq=" + QUERY_PARAM
                    )
                    responses.append((status, payload))

            async def swapper() -> None:
                for round_number in range(12):
                    content = GEN_B if round_number % 2 == 0 else GEN_A
                    write_patterns(content, patterns_path)
                    # Record before publishing: a response may carry the
                    # new generation the instant reload() publishes it.
                    next_generation = server.snapshot.generation + 1
                    expected[next_generation] = expected_match_payload(content)
                    await server.reload()
                    await asyncio.sleep(0)  # let clients interleave
                # Requests already in flight finish on the generation they
                # started on, so keep the clients going until one has been
                # served the last generation (bounded; the check below
                # fails if it never is).
                final = server.snapshot.generation
                for _ in range(500):
                    if any(p.get("generation") == final for _, p in responses):
                        break
                    await asyncio.sleep(0.01)
                stop.set()

            from urllib.parse import quote

            QUERY_PARAM = quote(QUERY_TEXT)
            try:
                await asyncio.gather(
                    swapper(), *(client() for _ in range(4))
                )
            finally:
                await server.close()

            assert len(responses) > 0
            generations_seen = set()
            for status, payload in responses:
                assert status == 200, payload
                generation = payload["generation"]
                generations_seen.add(generation)
                assert payload["patterns"] == expected[generation], (
                    f"torn response: generation {generation} served a "
                    f"pattern set from another snapshot"
                )
            assert 13 in generations_seen  # the last swap was observed

        run(scenario())

    def test_inflight_requests_finish_on_their_snapshot(self, patterns_path):
        """A request that reads its snapshot before a swap completes on
        that snapshot — generation and patterns stay mutually consistent
        even when the reload commits mid-request."""

        async def scenario():
            server = PatternServer(patterns_path)
            await server.start()
            from urllib.parse import quote

            try:
                results = await asyncio.gather(
                    http_request(server.port, "/match?seq=" + quote(QUERY_TEXT)),
                    server.reload(),
                    http_request(server.port, "/match?seq=" + quote(QUERY_TEXT)),
                )
            finally:
                await server.close()
            for status, payload in (results[0], results[2]):
                assert status == 200
                expected = expected_match_payload(GEN_A)
                assert payload["patterns"] == expected
                assert payload["generation"] in (1, 2)

        run(scenario())


class TestFailedReload:
    def test_corrupt_file_keeps_old_index_serving(self, patterns_path):
        async def scenario():
            server = PatternServer(patterns_path)
            await server.start()
            try:
                port = server.port
                # Corrupt the pattern file (simulates a bad deploy).
                patterns_path.write_text("#! seqmine-patterns v1\ngarbage\n")
                status, payload = await http_request(
                    port, "/reload", method="POST"
                )
                assert status == 500
                assert "still serving generation 1" in payload["error"]
                # Old snapshot still answers, same generation.
                status, payload = await http_request(port, "/match?seq=%3C(30)(90)%3E")
                assert (status, payload["generation"]) == (200, 1)
                assert payload["num_matched"] == 1
                status, payload = await http_request(port, "/stats")
                assert payload["reloads"] == {
                    "ok": 0,
                    "failed": 1,
                    "last_error": payload["reloads"]["last_error"],
                }
                assert "garbage" in payload["reloads"]["last_error"]
                # Fix the file: the next reload succeeds.
                write_patterns(GEN_B, patterns_path)
                status, payload = await http_request(
                    port, "/reload", method="POST"
                )
                assert (status, payload["generation"]) == (200, 2)
            finally:
                await server.close()

        run(scenario())

    def test_truncated_file_rejected_by_reload(self, patterns_path):
        async def scenario():
            server = PatternServer(patterns_path)
            await server.start()
            try:
                data = patterns_path.read_bytes()
                patterns_path.write_bytes(data[: len(data) // 2])
                with pytest.raises(ServingError, match="still serving"):
                    await server.reload()
                assert server.snapshot.generation == 1
            finally:
                await server.close()

        run(scenario())

    def test_faultinjector_crashed_rewrite_keeps_serving(self, patterns_path):
        """Sweep a simulated crash over every I/O op of the snapshot
        rewrite: whatever the crash left on disk, a reload either serves
        the complete old or the complete new set — never a torn one —
        because the atomic-writer protocol plus the strict loader make
        partial states unreachable."""

        async def scenario():
            with count_io_ops(match="patterns.txt") as counter:
                write_patterns(GEN_B, patterns_path)
            total_ops = counter.ops_seen
            assert total_ops > 0
            for fail_at in range(total_ops):
                write_patterns(GEN_A, patterns_path)  # reset: old snapshot
                server = PatternServer(patterns_path)
                await server.start()
                try:
                    injector = FaultInjector(
                        fail_at, kind="kill", match="patterns.txt"
                    )
                    with inject_faults(injector):
                        try:
                            write_patterns(GEN_B, patterns_path)
                        except SimulatedCrash:
                            pass
                    assert injector.fired
                    await server.reload()  # file is old-or-new complete
                    served = server.snapshot.index.match(QUERY_EVENTS)
                    expected_old = PatternIndex(GEN_A).match(QUERY_EVENTS)
                    expected_new = PatternIndex(GEN_B).match(QUERY_EVENTS)
                    assert served in (expected_old, expected_new)
                finally:
                    await server.close()

        run(scenario())


class TestSighup:
    def test_sighup_triggers_hot_swap(self, patterns_path):
        async def scenario():
            server = PatternServer(patterns_path)
            await server.start()
            try:
                write_patterns(GEN_B, patterns_path)
                os.kill(os.getpid(), signal.SIGHUP)
                for _ in range(100):
                    await asyncio.sleep(0.01)
                    if server.snapshot.generation == 2:
                        break
                assert server.snapshot.generation == 2
                assert server.snapshot.num_patterns == len(GEN_B)
            finally:
                await server.close()

        run(scenario())
