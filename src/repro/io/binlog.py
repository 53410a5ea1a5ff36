"""Binlog: the compact binary on-disk customer-sequence format.

The paper's scale-up experiments (Section 4, Fig. 8) mine databases of
millions of customers — far beyond anything that should be parsed from
text per pass. Binlog is the disk substrate of the out-of-core path
(:mod:`repro.db.partitioned`): one file holds one *partition* of the
customer database, varint-encoded so a record costs roughly one byte per
item, streamable front to back so a counting pass never needs the whole
partition in memory, and self-describing enough that corruption is
detected and reported with the file name and byte offset.

Layout::

    +--------------------+  offset 0
    | magic  b"SQBL"     |  4 bytes
    | version 0x01       |  1 byte
    +--------------------+  offset 5 = first record
    | record*            |  uvarint customer_id
    |                    |  uvarint num_events
    |                    |    per event: uvarint num_items,
    |                    |               num_items × uvarint item
    +--------------------+  index_offset
    | uvarint num_records|  the partition index: every record's byte
    | uvarint gap*       |  offset, delta-encoded (first gap is from
    +--------------------+  offset 5)
    | crc32         4 LE |  fixed 20-byte footer (version 2): CRC-32 of
    | index_offset  8 LE |  the record region [5, index_offset), then
    | magic b"SQBLend\n" |  the index offset, then the magic tail
    +--------------------+

All integers (ids, items, counts) must be non-negative; items within an
event are written in ascending order and validated on read, so a binlog
record round-trips the canonical itemset form exactly. The footer makes
``len()`` and truncation detection O(1): a file whose tail is missing or
whose index disagrees with the records raises :class:`BinlogFormatError`
naming the file and the offending offset.

Version 2 (this release) adds the record-region CRC-32 to the footer so
bit rot *inside* records — which can decode into plausible-but-wrong
data the structural checks cannot catch — is detectable. Opening stays
O(1): the CRC is checked only by :meth:`BinlogReader.verify`, which
``seqmine fsck`` runs over every file. Version-1 files (no CRC, 16-byte
footer) still read fine; :attr:`BinlogReader.crc32` is ``None`` for
them and ``verify`` falls back to a full structural decode.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path
from types import TracebackType
from typing import Container, Iterable, Iterator, Sequence as PySequence

from repro.io.fsops import fs_fsync, fs_open

MAGIC = b"SQBL"
VERSION = 2
SUPPORTED_VERSIONS = (1, 2)
HEADER = MAGIC + bytes([VERSION])
FOOTER_MAGIC = b"SQBLend\n"
#: Version-2 footer: crc32 (4 LE) + index_offset (8 LE) + magic.
FOOTER_SIZE = 4 + 8 + len(FOOTER_MAGIC)
#: Version-1 footer: index_offset (8 LE) + magic.
FOOTER_SIZE_V1 = 8 + len(FOOTER_MAGIC)

#: One decoded record: (customer_id, events), events canonical
#: (ascending items, tuple-of-tuples).
BinlogRecord = tuple[int, tuple[tuple[int, ...], ...]]


class BinlogFormatError(ValueError):
    """Raised for malformed binlog input; names the file and byte offset."""


def encode_uvarint(value: int) -> bytes:
    """LEB128 unsigned varint encoding of a non-negative integer."""
    if value < 0:
        raise ValueError(f"cannot varint-encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(buffer: bytes, offset: int) -> tuple[int, int]:
    """Decode one uvarint from ``buffer`` at ``offset``.

    Returns ``(value, next_offset)``; raises ``IndexError`` on truncation
    (callers translate into :class:`BinlogFormatError` with file context).
    """
    result = 0
    shift = 0
    while True:
        byte = buffer[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def encode_record(customer_id: int, events: PySequence[PySequence[int]]) -> bytes:
    """Encode one customer record (canonical ascending items per event)."""
    out = bytearray(encode_uvarint(customer_id))
    out += encode_uvarint(len(events))
    for event in events:
        out += encode_uvarint(len(event))
        for item in event:
            out += encode_uvarint(item)
    return bytes(out)


#: Bytes a writer buffers before appending to its file. Writers hold
#: **no file descriptor between flushes**, which is what lets the
#: partitioned layer round-robin customers across hundreds of partitions
#: (e.g. a --max-memory-mb conversion of a multi-GB input) without
#: tripping the process fd limit.
WRITER_FLUSH_BYTES = 64 * 1024


class BinlogWriter:
    """Stream customer records into one binlog partition file.

    Appends are buffered and flushed to the file in ``WRITER_FLUSH_BYTES``
    batches through a transient append-mode handle — a writer owns no
    open file descriptor between flushes, so any number of writers can
    be live at once. Use as a context manager; the footer (index + fixed
    tail) is written on :meth:`close`, so a crash mid-write leaves a
    file the reader rejects as truncated rather than silently short.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        with fs_open(self.path, "wb") as handle:
            handle.write(HEADER)
        self._buffer = bytearray()
        # The record index, delta-encoded incrementally as records are
        # appended (~1-2 bytes per record) — never a list of offsets, so
        # writer memory stays O(flush buffer + index bytes), not
        # O(records * sizeof(int)).
        self._index = bytearray()
        # Record-region CRC-32, folded in per appended payload so the
        # footer checksum costs no extra pass over the data.
        self._crc = 0
        self._num_records = 0
        self._previous_offset = len(HEADER)
        self._position = len(HEADER)
        self._closed = False

    def append(
        self, customer_id: int, events: PySequence[PySequence[int]]
    ) -> None:
        if self._closed:
            raise ValueError(f"{self.path}: writer already closed")
        payload = encode_record(customer_id, events)
        self._index += encode_uvarint(self._position - self._previous_offset)
        self._previous_offset = self._position
        self._num_records += 1
        self._buffer += payload
        self._crc = zlib.crc32(payload, self._crc)
        self._position += len(payload)
        if len(self._buffer) >= WRITER_FLUSH_BYTES:
            self._flush()

    def _flush(self, *, sync: bool = False) -> None:
        if self._buffer or sync:
            with fs_open(self.path, "ab") as handle:
                handle.write(self._buffer)
                if sync:
                    fs_fsync(handle)
            self._buffer.clear()

    @property
    def num_records(self) -> int:
        return self._num_records

    def close(self) -> None:
        if self._closed:
            return
        index_offset = self._position
        self._buffer += encode_uvarint(self._num_records)
        self._buffer += self._index
        self._buffer += self._crc.to_bytes(4, "little")
        self._buffer += index_offset.to_bytes(8, "little")
        self._buffer += FOOTER_MAGIC
        self._flush(sync=True)
        self._closed = True

    def abort(self) -> None:
        """Stop writing **without** finalizing: no index, no footer.

        The file is left in the state a crash would leave it — missing
        its footer — which every reader rejects as truncated. This is
        the correct exit when the record *source* failed mid-stream: the
        alternative (a valid footer over a prefix of the records) would
        read back as a smaller-but-valid partition, silently.
        """
        self._flush()
        self._closed = True

    def __enter__(self) -> "BinlogWriter":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        _exc: BaseException | None,
        _tb: TracebackType | None,
    ) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


def write_binlog(
    path: str | Path, records: Iterable[BinlogRecord]
) -> int:
    """Write all ``records`` to ``path``; returns the record count."""
    with BinlogWriter(path) as writer:
        for customer_id, events in records:
            writer.append(customer_id, events)
        return writer.num_records


#: Records per transient read in :meth:`BinlogReader.records` — spans
#: are contiguous, so one batch is one ``seek``+``read``.
READER_BATCH_RECORDS = 256


class BinlogReader:
    """One binlog partition, validated on open, streamed on iteration.

    Opening reads and checks the header, footer and the (compact,
    delta-encoded) record index — so ``len()`` is O(1) and truncated
    files fail fast — but **not** the record region: iteration reads the
    file in contiguous batches of ``READER_BATCH_RECORDS`` record spans,
    opening the file only for the duration of each batch read. A reader
    therefore holds **no file descriptor between batches** and its
    resident cost is the index (a byte or two per record) plus one
    batch — which is what lets the out-of-core layer keep a reader per
    partition live at once (the ordered K-way merge, the round-robin
    writers' mirror image) at any K, without fd-limit or memory concerns.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        try:
            size = os.path.getsize(self.path)
        except OSError as exc:
            raise BinlogFormatError(f"{self.path}: cannot open: {exc}") from exc
        if size < len(HEADER) + FOOTER_SIZE_V1:
            raise BinlogFormatError(
                f"{self.path}: truncated at offset {size}: file shorter "
                f"than header plus footer"
            )
        with open(self.path, "rb") as handle:
            header = handle.read(len(HEADER))
            if header[: len(MAGIC)] != MAGIC:
                raise BinlogFormatError(
                    f"{self.path}: bad magic at offset 0: not a binlog file"
                )
            self.version = header[len(MAGIC)]
            if self.version not in SUPPORTED_VERSIONS:
                raise BinlogFormatError(
                    f"{self.path}: unsupported version {self.version} "
                    f"at offset {len(MAGIC)}"
                )
            footer_size = FOOTER_SIZE if self.version >= 2 else FOOTER_SIZE_V1
            if size < len(HEADER) + footer_size:
                raise BinlogFormatError(
                    f"{self.path}: truncated at offset {size}: file shorter "
                    f"than header plus footer"
                )
            handle.seek(size - footer_size)
            footer = handle.read(footer_size)
            if footer[-len(FOOTER_MAGIC):] != FOOTER_MAGIC:
                raise BinlogFormatError(
                    f"{self.path}: truncated at offset "
                    f"{size - len(FOOTER_MAGIC)}: footer magic missing"
                )
            #: Footer CRC-32 of the record region; ``None`` for
            #: version-1 files, which carry no checksum.
            self.crc32: int | None = None
            if self.version >= 2:
                self.crc32 = int.from_bytes(footer[:4], "little")
                footer = footer[4:]
            self._index_offset = int.from_bytes(footer[:8], "little")
            if not len(HEADER) <= self._index_offset <= size - footer_size:
                raise BinlogFormatError(
                    f"{self.path}: corrupt footer at offset "
                    f"{size - footer_size}: index offset "
                    f"{self._index_offset} out of range"
                )
            handle.seek(self._index_offset)
            index = handle.read(size - footer_size - self._index_offset)
        try:
            self._num_records, consumed = decode_uvarint(index, 0)
        except IndexError:
            raise BinlogFormatError(
                f"{self.path}: truncated index at offset {self._index_offset}"
            ) from None
        self._index = index[consumed:]
        if self._num_records == 0 and self._index_offset != len(HEADER):
            # Record bytes exist that the index does not account for — a
            # zeroed count must not read back as a valid empty partition.
            raise BinlogFormatError(
                f"{self.path}: corrupt index at offset {self._index_offset}: "
                f"zero records but record region ends at {self._index_offset}"
            )

    def __len__(self) -> int:
        return self._num_records

    def __iter__(self) -> Iterator[BinlogRecord]:
        return self.records()

    def verify(self) -> int:
        """Fully validate the file; returns the record count.

        For version-2 files the record region is re-hashed and compared
        against the footer CRC-32 — this is the check that catches bit
        rot *inside* records, which structural decoding can miss. Every
        record is then structurally decoded (all versions). O(file
        size); ``seqmine fsck`` runs this, plain opens do not.
        """
        if self.crc32 is not None:
            crc = 0
            position = len(HEADER)
            with open(self.path, "rb") as handle:
                handle.seek(position)
                remaining = self._index_offset - position
                while remaining:
                    chunk = handle.read(min(remaining, 1 << 20))
                    if not chunk:
                        raise BinlogFormatError(
                            f"{self.path}: truncated record region at "
                            f"offset {self._index_offset - remaining}"
                        )
                    crc = zlib.crc32(chunk, crc)
                    remaining -= len(chunk)
            if crc != self.crc32:
                raise BinlogFormatError(
                    f"{self.path}: checksum mismatch over records "
                    f"5..{self._index_offset}: footer says "
                    f"{self.crc32:#010x}, records hash to {crc:#010x}"
                )
        count = 0
        for _ in self.records():
            count += 1
        return count

    def _record_spans(self) -> Iterator[tuple[int, int]]:
        """Each record's ``(start, end)`` byte span, decoded lazily from
        the delta index; the last record ends where the index begins."""
        position = 0
        previous = len(HEADER)
        start: int | None = None
        for _ in range(self._num_records):
            try:
                gap, position = decode_uvarint(self._index, position)
            except IndexError:
                raise BinlogFormatError(
                    f"{self.path}: truncated index at offset "
                    f"{self._index_offset}"
                ) from None
            offset = previous + gap
            previous = offset
            if start is not None:
                yield (start, offset)
            start = offset
        if start is not None:
            if start >= self._index_offset:
                raise BinlogFormatError(
                    f"{self.path}: corrupt index at offset "
                    f"{self._index_offset}: record offset {start} overruns "
                    f"the index"
                )
            yield (start, self._index_offset)

    def records(
        self, ids: Container[int] | None = None
    ) -> Iterator[BinlogRecord]:
        """Stream records front to back, one transient read per batch.

        With ``ids``, yield only the records of those customers: each
        record's leading customer-id varint is read first, and only a
        wanted record is fully decoded. Every record's span is still
        checked, wanted or not."""
        position = len(HEADER)
        batch: list[tuple[int, int, int]] = []  # (number, start, end)
        for number, (start, end) in enumerate(self._record_spans(), 1):
            if start != position or end <= start:
                raise BinlogFormatError(
                    f"{self.path}: corrupt index at offset "
                    f"{self._index_offset}: record {number} span "
                    f"{start}..{end} does not follow offset {position}"
                )
            batch.append((number, start, end))
            position = end
            if len(batch) >= READER_BATCH_RECORDS:
                yield from self._read_batch(batch, ids)
                batch = []
        if batch:
            yield from self._read_batch(batch, ids)

    def _read_batch(
        self, batch: list[tuple[int, int, int]], ids: Container[int] | None
    ) -> Iterator[BinlogRecord]:
        base = batch[0][1]
        length = batch[-1][2] - base
        with open(self.path, "rb") as handle:
            handle.seek(base)
            blob = handle.read(length)
        if len(blob) < length:
            raise BinlogFormatError(
                f"{self.path}: truncated record {batch[0][0]} at offset "
                f"{base + len(blob)}"
            )
        for number, start, end in batch:
            if ids is not None:
                try:
                    customer_id, id_end = decode_uvarint(blob, start - base)
                    if id_end > end - base:  # the varint runs past its record
                        raise IndexError
                except IndexError:
                    raise BinlogFormatError(
                        f"{self.path}: truncated record {number} at offset "
                        f"{start}"
                    ) from None
                if customer_id not in ids:
                    continue
            yield self._decode_record(blob[start - base : end - base],
                                      start, number)

    def _decode_record(
        self, payload: bytes, start: int, number: int
    ) -> BinlogRecord:
        offset = 0
        try:
            customer_id, offset = decode_uvarint(payload, offset)
            num_events, offset = decode_uvarint(payload, offset)
            events: list[tuple[int, ...]] = []
            for _ in range(num_events):
                num_items, offset = decode_uvarint(payload, offset)
                items: list[int] = []
                for _ in range(num_items):
                    item, offset = decode_uvarint(payload, offset)
                    items.append(item)
                events.append(tuple(items))
        except IndexError:
            raise BinlogFormatError(
                f"{self.path}: truncated record {number} at offset {start}"
            ) from None
        if offset != len(payload):
            raise BinlogFormatError(
                f"{self.path}: corrupt record {number} at offset {start}: "
                f"decoded {offset} of {len(payload)} bytes"
            )
        for event in events:
            if any(event[i] >= event[i + 1] for i in range(len(event) - 1)):
                raise BinlogFormatError(
                    f"{self.path}: corrupt record {number} at offset {start}: "
                    f"items not strictly ascending"
                )
        return customer_id, tuple(events)


def read_binlog(path: str | Path) -> list[BinlogRecord]:
    """Read and validate a whole partition file. Convenience for tests
    and tools; the out-of-core layer streams via :class:`BinlogReader`."""
    return list(BinlogReader(path))
