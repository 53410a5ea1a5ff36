"""Binlog format and PartitionedDatabase round-trip / corruption tests.

The round-trip property the out-of-core path rests on: any database that
goes through disk partitions comes back *identical* — SPMF → partitions
→ SPMF is byte-identical, CSV → partitions reproduces the same sorted
database, and the binlog reader rejects corrupt or truncated partition
files with errors naming the file and byte offset (mirroring the SPMF
error-message contract).
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.database import CustomerSequence, SequenceDatabase
from repro.db.partitioned import (
    PartitionedDatabase,
    write_partitions_from_csv,
    write_partitions_from_spmf,
)
from repro.io.binlog import (
    BinlogFormatError,
    BinlogReader,
    BinlogWriter,
    decode_uvarint,
    encode_uvarint,
    read_binlog,
    write_binlog,
)
from repro.io.csvio import database_to_transactions, write_transactions_csv
from repro.io.spmf import iter_spmf, read_spmf, write_spmf
from tests.strategies import event_lists


class TestUvarint:
    @given(st.integers(min_value=0, max_value=2**70))
    def test_round_trip(self, value):
        encoded = encode_uvarint(value)
        decoded, offset = decode_uvarint(encoded, 0)
        assert decoded == value
        assert offset == len(encoded)

    def test_single_byte_boundary(self):
        assert encode_uvarint(127) == b"\x7f"
        assert len(encode_uvarint(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            encode_uvarint(-1)

    @given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=8))
    def test_concatenated_stream(self, values):
        buffer = b"".join(encode_uvarint(v) for v in values)
        offset = 0
        decoded = []
        for _ in values:
            value, offset = decode_uvarint(buffer, offset)
            decoded.append(value)
        assert decoded == values
        assert offset == len(buffer)


class TestBinlogRoundTrip:
    RECORDS = [
        (1, ((30,), (90,))),
        (2, ((10, 20), (30,), (40, 60, 70))),
        (7, ((30, 50, 70),)),
    ]

    def test_write_read_identical(self, tmp_path):
        path = tmp_path / "part.binlog"
        assert write_binlog(path, self.RECORDS) == 3
        assert read_binlog(path) == self.RECORDS

    def test_len_from_footer(self, tmp_path):
        path = tmp_path / "part.binlog"
        write_binlog(path, self.RECORDS)
        assert len(BinlogReader(path)) == 3

    def test_empty_partition(self, tmp_path):
        path = tmp_path / "empty.binlog"
        assert write_binlog(path, []) == 0
        assert read_binlog(path) == []

    @given(st.lists(event_lists(max_item=50), max_size=6))
    @settings(max_examples=30)
    def test_arbitrary_records_round_trip(self, customer_events):
        records = [
            (cid, tuple(tuple(event) for event in events))
            for cid, events in enumerate(customer_events, start=1)
        ]
        # Round-trip through a real file (the format is file-offset based).
        import tempfile

        with tempfile.NamedTemporaryFile(suffix=".binlog") as handle:
            write_binlog(handle.name, records)
            assert read_binlog(handle.name) == records

    def test_zero_event_customer_preserved(self, tmp_path):
        path = tmp_path / "part.binlog"
        write_binlog(path, [(5, ())])
        assert read_binlog(path) == [(5, ())]


class TestBinlogCorruption:
    def _write(self, tmp_path, records=None):
        path = tmp_path / "bad.binlog"
        write_binlog(
            path,
            records if records is not None else TestBinlogRoundTrip.RECORDS,
        )
        return path

    def test_error_names_file_and_offset(self, tmp_path):
        path = self._write(tmp_path)
        data = bytearray(path.read_bytes())
        data[0] = 0xFF  # clobber the magic
        path.write_bytes(bytes(data))
        with pytest.raises(BinlogFormatError, match=r"bad\.binlog.*offset 0"):
            BinlogReader(path)

    def test_truncated_footer(self, tmp_path):
        path = self._write(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(BinlogFormatError, match=r"bad\.binlog.*truncated"):
            BinlogReader(path)

    def test_file_shorter_than_header(self, tmp_path):
        path = tmp_path / "bad.binlog"
        path.write_bytes(b"SQ")
        with pytest.raises(
            BinlogFormatError, match=r"bad\.binlog: truncated at offset 2"
        ):
            BinlogReader(path)

    def test_bad_version(self, tmp_path):
        path = self._write(tmp_path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(
            BinlogFormatError, match=r"unsupported version 99 at offset 4"
        ):
            BinlogReader(path)

    def test_record_region_corruption_cites_record_offset(self, tmp_path):
        path = self._write(tmp_path)
        data = bytearray(path.read_bytes())
        # Inflate the first record's event count so decoding overruns the
        # following records and disagrees with the index.
        data[6] = 0x60
        path.write_bytes(bytes(data))
        with pytest.raises(BinlogFormatError, match=r"bad\.binlog.*offset"):
            list(BinlogReader(path))

    def test_unsorted_items_rejected(self, tmp_path):
        path = tmp_path / "bad.binlog"
        with BinlogWriter(path) as writer:
            writer.append(1, ((3, 2),))  # not ascending — forged producer
        with pytest.raises(
            BinlogFormatError, match=r"items not strictly ascending"
        ):
            read_binlog(path)

    def test_interior_truncation(self, tmp_path):
        path = self._write(tmp_path)
        whole = path.read_bytes()
        # Keep header + footer but cut bytes out of the record region, so
        # the index offsets no longer line up.
        cut = bytes(whole[:8]) + bytes(whole[10:])
        path.write_bytes(cut)
        with pytest.raises(BinlogFormatError, match=r"bad\.binlog"):
            list(BinlogReader(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(BinlogFormatError, match=r"nope\.binlog"):
            BinlogReader(tmp_path / "nope.binlog")

    def test_zeroed_record_count_rejected(self, tmp_path):
        """An index whose num_records varint is corrupted to zero must
        not read back as a valid empty partition."""
        path = self._write(tmp_path)
        data = bytearray(path.read_bytes())
        index_offset = int.from_bytes(data[-16:-8], "little")
        assert data[index_offset] == 3  # records written
        data[index_offset] = 0
        path.write_bytes(bytes(data))
        with pytest.raises(BinlogFormatError, match=r"zero records"):
            BinlogReader(path)

    def test_undercounted_records_rejected(self, tmp_path):
        path = self._write(tmp_path)
        data = bytearray(path.read_bytes())
        index_offset = int.from_bytes(data[-16:-8], "little")
        data[index_offset] = 2  # claim 2 of the 3 records
        path.write_bytes(bytes(data))
        with pytest.raises(BinlogFormatError, match=r"bad\.binlog"):
            list(BinlogReader(path))

    def test_exception_in_with_body_leaves_rejectable_file(self, tmp_path):
        """__exit__ must NOT finalize on error: a valid footer over a
        prefix of the records would be silent data loss."""
        path = tmp_path / "aborted.binlog"
        with pytest.raises(RuntimeError, match="source died"):
            with BinlogWriter(path) as writer:
                writer.append(1, ((1, 2),))
                raise RuntimeError("source died")
        with pytest.raises(BinlogFormatError, match=r"aborted\.binlog"):
            BinlogReader(path)

    def test_writer_crash_leaves_rejectable_file(self, tmp_path):
        path = tmp_path / "crash.binlog"
        writer = BinlogWriter(path)
        writer.append(1, ((1, 2),))
        writer._flush()
        writer._closed = True  # simulate a crash before close(): no footer
        with pytest.raises(BinlogFormatError, match=r"crash\.binlog"):
            BinlogReader(path)

    def test_many_writers_exceeding_fd_limit(self, tmp_path):
        """Writers hold no fd between flushes, so partition counts far
        beyond the soft file-descriptor limit must work."""
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        lowered = min(soft, 64)
        resource.setrlimit(resource.RLIMIT_NOFILE, (lowered, hard))
        try:
            writers = [
                BinlogWriter(tmp_path / f"p{i}.binlog")
                for i in range(lowered + 36)
            ]
            for i, writer in enumerate(writers):
                writer.append(i + 1, ((1, 2), (3,)))
                writer.close()
        finally:
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        for i, writer in enumerate(writers):
            assert read_binlog(writer.path) == [(i + 1, ((1, 2), (3,)))]


def paper_spmf_text() -> str:
    return (
        "30 -1 90 -1 -2\n"
        "10 20 -1 30 -1 40 60 70 -1 -2\n"
        "30 50 70 -1 -2\n"
        "30 -1 40 70 -1 90 -1 -2\n"
        "90 -1 -2\n"
    )


class TestPartitionRoundTrip:
    def test_spmf_to_partitions_to_spmf_byte_identical(self, tmp_path):
        source = tmp_path / "in.spmf"
        source.write_text(paper_spmf_text())
        pdb = write_partitions_from_spmf(
            source, tmp_path / "parts", partitions=3
        )
        out = io.StringIO()
        write_spmf(pdb, out)
        assert out.getvalue() == paper_spmf_text()

    @given(st.lists(event_lists(max_item=60), min_size=1, max_size=9),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_property_spmf_round_trip(self, tmp_path_factory,
                                      customer_events, partitions):
        tmp_path = tmp_path_factory.mktemp("roundtrip")
        db = SequenceDatabase.from_sequences(customer_events)
        source = tmp_path / "in.spmf"
        write_spmf(db, source)
        pdb = write_partitions_from_spmf(
            source, tmp_path / "parts", partitions=partitions
        )
        out = io.StringIO()
        write_spmf(pdb, out)
        assert out.getvalue() == source.read_text()

    def test_csv_to_partitions_matches_sorted_database(self, tmp_path):
        db = read_spmf(io.StringIO(paper_spmf_text()))
        source = tmp_path / "in.csv"
        write_transactions_csv(database_to_transactions(db), source)
        pdb = write_partitions_from_csv(
            source, tmp_path / "parts", partitions=2
        )
        assert pdb.to_memory() == db

    def test_iter_spmf_matches_read_spmf(self, tmp_path):
        source = tmp_path / "in.spmf"
        source.write_text("# comment\n\n" + paper_spmf_text())
        streamed = list(iter_spmf(source))
        assert SequenceDatabase(streamed) == read_spmf(source)

    def test_ordered_iteration_across_partitions(self, tmp_path):
        customers = [
            CustomerSequence(customer_id=i, events=((i,),))
            for i in range(1, 11)
        ]
        pdb = PartitionedDatabase.create(
            tmp_path / "parts", iter(customers), partitions=3
        )
        assert [c.customer_id for c in pdb] == list(range(1, 11))

    def test_create_refuses_overwrite_without_flag(self, tmp_path):
        directory = tmp_path / "parts"
        PartitionedDatabase.create(directory, iter([]), partitions=2)
        with pytest.raises(ValueError, match="already holds"):
            PartitionedDatabase.create(directory, iter([]), partitions=2)
        PartitionedDatabase.create(
            directory, iter([]), partitions=2, overwrite=True
        )

    def test_open_missing_manifest(self, tmp_path):
        with pytest.raises(ValueError, match="missing manifest.json"):
            PartitionedDatabase.open(tmp_path)

    def test_open_corrupt_manifest_one_line_error(self, tmp_path):
        """A manifest missing required keys must raise ValueError (the
        CLI's one-line contract), not KeyError with a traceback."""
        tmp_path.joinpath("manifest.json").write_text(
            '{"format": "seqmine-partitioned", "version": 1}\n'
        )
        with pytest.raises(ValueError, match="missing partitions"):
            PartitionedDatabase.open(tmp_path)

    def test_open_unreadable_manifest(self, tmp_path):
        tmp_path.joinpath("manifest.json").write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            PartitionedDatabase.open(tmp_path)

    def test_open_future_manifest_version(self, tmp_path):
        tmp_path.joinpath("manifest.json").write_text(
            '{"format": "seqmine-partitioned", "version": 99}\n'
        )
        with pytest.raises(ValueError, match="unsupported manifest version"):
            PartitionedDatabase.open(tmp_path)

    def test_open_missing_partition_file(self, tmp_path):
        directory = tmp_path / "parts"
        PartitionedDatabase.create(
            directory,
            iter([CustomerSequence(customer_id=1, events=((1,),))]),
            partitions=2,
        )
        (directory / "part-00001.binlog").unlink()
        with pytest.raises(ValueError, match="part-00001.binlog"):
            PartitionedDatabase.open(directory)

    def test_stats_match_in_memory(self, tmp_path):
        db = read_spmf(io.StringIO(paper_spmf_text()))
        pdb = PartitionedDatabase.from_database(
            db, tmp_path / "parts", partitions=2
        )
        assert pdb.stats() == db.stats()
        assert pdb.item_vocabulary() == db.item_vocabulary()


class TestBinlogV2Checksum:
    """The version-2 footer CRC and its version-1 compatibility story."""

    def _write(self, tmp_path):
        path = tmp_path / "part.binlog"
        write_binlog(path, TestBinlogRoundTrip.RECORDS)
        return path

    def test_writer_emits_version_2_with_crc(self, tmp_path):
        path = self._write(tmp_path)
        reader = BinlogReader(path)
        assert reader.version == 2
        assert isinstance(reader.crc32, int)
        assert reader.verify() == len(TestBinlogRoundTrip.RECORDS)

    def test_verify_catches_bit_rot_structural_decode_misses(self, tmp_path):
        """A flipped item-id bit keeps the file structurally decodable
        (records() is happy) but changes the data — only the footer CRC
        can catch it. This is the whole point of the v2 footer."""
        path = self._write(tmp_path)
        data = bytearray(path.read_bytes())
        # Record region starts after the 5-byte header; byte 8 is the
        # first record's single item id (a one-byte uvarint), so
        # flipping its low bit yields a different but valid file.
        data[8] ^= 0x01
        path.write_bytes(bytes(data))
        reader = BinlogReader(path)
        list(reader)  # structurally fine: decodes without error
        with pytest.raises(BinlogFormatError, match="checksum mismatch"):
            reader.verify()

    def test_version_1_files_still_read(self, tmp_path):
        """Downgrade a v2 file by hand to the v1 layout (no CRC in the
        footer): the reader must accept it, expose crc32=None, and
        verify() must still do the structural pass."""
        path = self._write(tmp_path)
        data = path.read_bytes()
        v1 = data[:4] + b"\x01" + data[5:-20] + data[-16:]
        v1_path = tmp_path / "v1.binlog"
        v1_path.write_bytes(v1)
        reader = BinlogReader(v1_path)
        assert reader.version == 1
        assert reader.crc32 is None
        assert list(reader) == TestBinlogRoundTrip.RECORDS
        assert reader.verify() == len(TestBinlogRoundTrip.RECORDS)

    def test_corrupt_crc_field_detected(self, tmp_path):
        path = self._write(tmp_path)
        data = bytearray(path.read_bytes())
        data[-20] ^= 0xFF  # first CRC byte of the v2 footer
        path.write_bytes(bytes(data))
        with pytest.raises(BinlogFormatError, match="checksum mismatch"):
            BinlogReader(path).verify()


class TestBinlogIdFilter:
    """``records(ids)``: only wanted records are decoded, every span is
    still checked."""

    # Enough records for several READER_BATCH_RECORDS batches, with
    # one-, two- and three-byte id varints.
    RECORDS = [
        (cid, tuple((cid % 7 + j, cid % 7 + j + 3) for j in range(cid % 4)))
        for cid in [*range(1, 600, 2), *range(20_000, 20_300, 3)]
    ]
    WANTED = {1, 127, 129, 301, 599, 20_000, 20_297, 2, 600, 70_000}

    def _write(self, tmp_path, version):
        path = tmp_path / "part.binlog"
        write_binlog(path, self.RECORDS)
        if version == 1:  # the v1 layout: no CRC in the footer
            data = path.read_bytes()
            path.write_bytes(data[:4] + b"\x01" + data[5:-20] + data[-16:])
        return path

    @pytest.mark.parametrize("version", [1, 2])
    def test_filtered_read_matches_filtered_records(self, tmp_path, version):
        reader = BinlogReader(self._write(tmp_path, version))
        assert reader.version == version
        expected = [r for r in reader.records() if r[0] in self.WANTED]
        assert len(expected) == 7
        assert list(reader.records(self.WANTED)) == expected

    def test_empty_id_set_yields_nothing(self, tmp_path):
        reader = BinlogReader(self._write(tmp_path, 2))
        assert list(reader.records(set())) == []

    @pytest.mark.parametrize("record", [1, 2])
    def test_cut_off_leading_id_raises(self, tmp_path, record):
        """Record ``record``'s id varint has its continuation bit set up
        to the end of the record: it runs into the next record (record
        1) or off the end of the record region (record 2)."""
        path = tmp_path / "bad.binlog"
        write_binlog(path, [(1, ()), (2, ())])  # two bytes each
        data = bytearray(path.read_bytes())
        start = 5 + 2 * (record - 1)
        data[start : start + 2] = b"\x80\x80"
        path.write_bytes(bytes(data))
        with pytest.raises(
            BinlogFormatError,
            match=rf"bad\.binlog: truncated record {record} at offset {start}",
        ):
            list(BinlogReader(path).records({99}))

    def test_corrupt_span_raises_without_a_wanted_match(self, tmp_path):
        path = tmp_path / "bad.binlog"
        write_binlog(path, TestBinlogRoundTrip.RECORDS)
        data = bytearray(path.read_bytes())
        index_offset = int.from_bytes(data[-16:-8], "little")
        # Index: record count, then one gap per record. A zero second
        # gap makes record 1's span empty.
        data[index_offset + 2] = 0
        path.write_bytes(bytes(data))
        with pytest.raises(
            BinlogFormatError,
            match=r"bad\.binlog: corrupt index .* record 1 span 5\.\.5",
        ):
            list(BinlogReader(path).records({999}))
