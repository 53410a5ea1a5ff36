"""Out-of-core partitioned customer database (disk-backed mining).

The in-memory :class:`~repro.db.database.SequenceDatabase` holds every
customer as Python objects — fine for the paper's 5-customer example,
hopeless for its Fig. 8 scale-up experiments (millions of customers).
This module keeps the database on disk instead, split into K binlog
partitions (:mod:`repro.io.binlog`), and streams it through every phase
of the pipeline:

* the **litemset phase** iterates customers partition by partition (the
  database object is re-iterable, so the multi-pass Apriori loop works
  unchanged);
* the **transformation phase** streams each raw partition through the
  litemset catalog and writes a *transformed* binlog partition next to
  it — the whole transformed database never exists in memory either;
* every **counting pass** (forward, on-the-fly, backward; both
  strategies) streams one partition at a time through the ordinary
  serial engine — exact, because customer support is additive across
  disjoint customer partitions. The row-scanning passes read the
  transformed partitions as one plain iterable;
* the **vertical strategy** inverts each transformed partition once per
  mining run and pickles that partition's
  :class:`~repro.core.vertical.VerticalDatabase` next to it
  (``tpart-NNNNN.compiled.pkl``), so later passes unpickle instead of
  re-inverting — the out-of-core analogue of the in-memory once-per-run
  inversion contract;
* the **parallel executor** shards by partition: each worker receives
  a slice of the partition list, opens the files itself, and counts
  them — no sequence data is ever pickled, under fork or spawn alike
  (:mod:`repro.parallel.executor`).

Customers are assigned to partitions round-robin at write time, which
makes streaming creation possible without knowing the total count;
iteration (`__iter__`) K-way-merges the partitions back into ascending
``customer_id`` order, so a partitioned database enumerates customers
exactly like its in-memory equivalent.

A partitioned database is also **appendable** (the substrate of the
incremental-mining subsystem, :mod:`repro.incremental`): each
:meth:`PartitionedDatabase.append_delta` call adds one *generation* of
new data without rewriting any existing partition file. New customers
land in fresh ``delta-GGGGG-part-*.binlog`` partitions; additional
transactions for customers that already exist land as *overlay* records
in ``delta-GGGGG-overlay.binlog`` and are spliced onto the owning
customer's event list during iteration (appended transactions are later
in time, so the merged sequence is simply base events followed by
overlay events, in generation order). :meth:`delta_since` exposes
exactly what changed after a given generation — the view the
incremental miner counts instead of rescanning the base.

The two places an ingest touches existing customers — checking that
every overlay id exists, and fetching the overlaid customers' pre-delta
sequences — look those ids up in the partitions: each record's leading
customer id is read first and only the wanted records are decoded
(:meth:`BinlogReader.records` with ``ids``), so their cost follows the
delta, not the base.
"""

from __future__ import annotations

import heapq
import json
import math
import pickle
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.core.protocols import CountingStrategy, LitemsetCatalogLike
from repro.core.sequence import Sequence
from repro.core.vertical import VerticalDatabase

from repro.db.database import (
    CustomerSequence,
    DatabaseStats,
    SequenceDatabase,
    support_threshold,
)
from repro.io.atomic import atomic_write_json, atomic_writer
from repro.io.binlog import BinlogReader, BinlogRecord, BinlogWriter

#: The database's commit record: an append becomes visible exactly when
#: its manifest replace lands, so it is always written with
#: :func:`~repro.io.atomic.atomic_write_json` — a torn manifest would
#: poison every later open/append/update.
MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "seqmine-partitioned"
MANIFEST_VERSION = 1

#: File name of the mining-state snapshot the incremental subsystem
#: serializes next to the manifest (see :mod:`repro.io.state`).
MINING_STATE_NAME = "mining_state.json"


#: Rough ratio of resident Python-object footprint to binlog bytes, used
#: to pick a partition count from a ``--max-memory-mb`` budget. Python
#: tuples/ints cost an order of magnitude more than varints on disk;
#: measured on CPython 3.11 synthetic data the ratio is ~20-30x, so 32 is
#: a deliberately conservative planning factor.
MEMORY_EXPANSION_FACTOR = 32

#: Measured binlog-bytes-per-SPMF-text-byte (0.42 on bench_outofcore's
#: synthetic data; varints vs space-separated decimals plus -1/-2
#: terminators). Used to translate a *text* input's file size into the
#: binlog bytes :data:`MEMORY_EXPANSION_FACTOR` is calibrated against.
TEXT_TO_BINLOG_FACTOR = 0.42


def partition_file_name(index: int) -> str:
    return f"part-{index:05d}.binlog"


def delta_partition_file_name(generation: int, index: int) -> str:
    return f"delta-{generation:05d}-part-{index:05d}.binlog"


def delta_overlay_file_name(generation: int) -> str:
    return f"delta-{generation:05d}-overlay.binlog"


def transformed_file_name(index: int) -> str:
    return f"tpart-{index:05d}.binlog"


def compiled_cache_path(binlog: Path) -> Path:
    """The cached vertical inversion kept next to a transformed partition."""
    return binlog.with_suffix(".compiled.pkl")


def partitions_for_budget(data_bytes: int, max_memory_mb: float) -> int:
    """Partition count keeping one partition's resident form under budget.

    ``data_bytes`` is the database's **binlog** size (the unit
    :data:`MEMORY_EXPANSION_FACTOR` is calibrated against); for a text
    input use :func:`partitions_for_budget_from_text`.
    """
    if max_memory_mb <= 0:
        raise ValueError(f"max-memory-mb must be > 0, got {max_memory_mb}")
    budget_bytes = max_memory_mb * 1024 * 1024
    estimated_resident = data_bytes * MEMORY_EXPANSION_FACTOR
    return max(1, math.ceil(estimated_resident / budget_bytes))


def partitions_for_budget_from_text(
    text_bytes: int, max_memory_mb: float
) -> int:
    """Partition count for a budget, from an SPMF/CSV *text* file's size
    (scaled down to estimated binlog bytes first, so the budget is not
    over-partitioned ~2.5x)."""
    return partitions_for_budget(
        max(1, int(text_bytes * TEXT_TO_BINLOG_FACTOR)), max_memory_mb
    )


class PartitionedDatabase:
    """A customer-sequence database stored as K binlog partitions on disk.

    Duck-type compatible with :class:`~repro.db.database.SequenceDatabase`
    everywhere the pipeline needs it (iteration over
    :class:`CustomerSequence`, ``num_customers``, ``threshold``,
    ``stats``, ``support_count``), but with O(partition) peak memory: no
    method ever materializes more than one partition (for counting) or
    one record per partition (for ordered iteration).
    """

    def __init__(self, directory: str | Path, manifest: dict[str, Any]) -> None:
        self.directory = Path(directory)
        self._manifest = manifest
        self.partition_paths = [
            self.directory / partition_file_name(i)
            for i in range(manifest["partitions"])
        ]
        # Every partition's generation: 0 for the base files, then the
        # delta generations in order. Appends only ever add entries, so
        # a partition index is stable for the lifetime of the database.
        self._partition_generations = [0] * manifest["partitions"]
        for delta in manifest.get("deltas", ()):
            for i in range(delta["partitions"]):
                self.partition_paths.append(
                    self.directory
                    / delta_partition_file_name(delta["generation"], i)
                )
                self._partition_generations.append(delta["generation"])
        for path in self.partition_paths:
            if not path.exists():
                raise ValueError(f"{self.directory}: missing partition {path.name}")
        for path in self.overlay_paths():
            if not path.exists():
                raise ValueError(f"{self.directory}: missing overlay {path.name}")
        self._overlay_cache: list[tuple[int, dict[int, tuple]]] | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls,
        directory: str | Path,
        customers: Iterable[CustomerSequence],
        *,
        partitions: int,
        overwrite: bool = False,
    ) -> "PartitionedDatabase":
        """Stream ``customers`` into ``directory`` as K round-robin partitions.

        The iterable is consumed exactly once and never buffered, so this
        works for sources far larger than memory (the streaming SPMF
        reader, the synthetic generator's customer iterator).
        """
        if partitions < 1:
            raise ValueError(f"partitions must be >= 1, got {partitions}")
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if manifest_path.exists():
            if not overwrite:
                raise ValueError(
                    f"{directory} already holds a partitioned database "
                    f"(pass overwrite to replace it)"
                )
            # Drop the old manifest *before* touching the partitions: if
            # this write fails mid-stream, the directory must read as
            # "no database here" rather than as the previous database's
            # manifest over partially overwritten partition files. Old
            # partition files (and the transformed cache) go too, so a
            # smaller replacement cannot leave stale higher-index
            # partitions beside the new manifest.
            manifest_path.unlink()
            for stale in directory.glob("part-*.binlog"):
                stale.unlink()
            for stale in directory.glob("delta-*.binlog"):
                stale.unlink()
            stale_state = directory / MINING_STATE_NAME
            if stale_state.exists():
                stale_state.unlink()  # snapshot of the replaced database
            shutil.rmtree(directory / "transformed", ignore_errors=True)
        directory.mkdir(parents=True, exist_ok=True)
        writers = [
            BinlogWriter(directory / partition_file_name(i))
            for i in range(partitions)
        ]
        num_customers = 0
        num_transactions = 0
        num_items_total = 0
        vocabulary: set[int] = set()
        last_id: int | None = None
        try:
            for customer in customers:
                if last_id is not None and customer.customer_id <= last_id:
                    raise ValueError(
                        f"customers must arrive in ascending id order "
                        f"(got {customer.customer_id} after {last_id})"
                    )
                last_id = customer.customer_id
                writers[num_customers % partitions].append(
                    customer.customer_id, customer.events
                )
                num_customers += 1
                num_transactions += len(customer.events)
                for event in customer.events:
                    num_items_total += len(event)
                    vocabulary.update(event)
        except BaseException:
            # Source failed mid-stream: leave footerless (reader-rejected)
            # partition files, never valid-looking truncated ones.
            for writer in writers:
                writer.abort()
            raise
        for writer in writers:
            writer.close()
        manifest = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "partitions": partitions,
            "num_customers": num_customers,
            "num_transactions": num_transactions,
            "num_items_total": num_items_total,
            "num_distinct_items": len(vocabulary),
            # Append bookkeeping: the id watermark splits a future delta
            # into overlay records (id <= max) vs new customers (id >
            # max), and the exact vocabulary keeps num_distinct_items
            # maintainable without rescanning the base. Both optional on
            # read, so pre-append manifests still open.
            "max_customer_id": last_id if last_id is not None else 0,
            "vocabulary": sorted(vocabulary),
            "deltas": [],
        }
        atomic_write_json(manifest_path, manifest)
        return cls(directory, manifest)

    @classmethod
    def from_database(
        cls,
        db: SequenceDatabase,
        directory: str | Path,
        *,
        partitions: int,
        overwrite: bool = False,
    ) -> "PartitionedDatabase":
        return cls.create(
            directory, iter(db), partitions=partitions, overwrite=overwrite
        )

    @classmethod
    def open(cls, directory: str | Path) -> "PartitionedDatabase":
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise ValueError(
                f"{directory} is not a partitioned database: "
                f"missing {MANIFEST_NAME}"
            )
        with open(manifest_path, "r", encoding="utf-8") as handle:
            try:
                manifest = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{manifest_path}: not valid JSON: {exc}") from exc
        if manifest.get("format") != MANIFEST_FORMAT:
            raise ValueError(
                f"{manifest_path}: unexpected format {manifest.get('format')!r}"
            )
        if manifest.get("version") != MANIFEST_VERSION:
            raise ValueError(
                f"{manifest_path}: unsupported manifest version "
                f"{manifest.get('version')!r}"
            )
        required = (
            "partitions", "num_customers", "num_transactions",
            "num_items_total", "num_distinct_items",
        )
        missing = [key for key in required if key not in manifest]
        if missing:
            raise ValueError(
                f"{manifest_path}: corrupt manifest: missing "
                f"{', '.join(missing)}"
            )
        return cls(directory, manifest)

    # ------------------------------------------------------------------ #
    # Access (SequenceDatabase-compatible surface)
    # ------------------------------------------------------------------ #

    @property
    def num_partitions(self) -> int:
        """All partitions across generations (base + every delta)."""
        return len(self.partition_paths)

    @property
    def num_base_partitions(self) -> int:
        return self._manifest["partitions"]

    @property
    def num_customers(self) -> int:
        return self._manifest["num_customers"]

    @property
    def generation(self) -> int:
        """How many deltas have been appended (0 = never appended)."""
        deltas = self._manifest.get("deltas", ())
        return deltas[-1]["generation"] if deltas else 0

    def num_customers_at(self, generation: int) -> int:
        """The customer count as of ``generation`` (before later deltas)."""
        return self.num_customers - sum(
            delta["num_new_customers"]
            for delta in self._manifest.get("deltas", ())
            if delta["generation"] > generation
        )

    def __len__(self) -> int:
        return self.num_customers

    def overlay_paths(self) -> list[Path]:
        """Overlay files of every delta generation that has one."""
        return [
            self.directory / delta_overlay_file_name(delta["generation"])
            for delta in self._manifest.get("deltas", ())
            if delta.get("num_overlay_customers", 0)
        ]

    def _overlays(self) -> list[tuple[int, dict[int, tuple]]]:
        """Per-generation overlay maps ``{customer_id: extra events}``.

        Loaded once and kept resident: overlays are delta-sized (the
        appended transactions of existing customers), not base-sized.
        """
        if self._overlay_cache is None:
            cache: list[tuple[int, dict[int, tuple]]] = []
            for delta in self._manifest.get("deltas", ()):
                if not delta.get("num_overlay_customers", 0):
                    continue
                path = self.directory / delta_overlay_file_name(
                    delta["generation"]
                )
                cache.append(
                    (
                        delta["generation"],
                        {cid: events for cid, events in BinlogReader(path)},
                    )
                )
            self._overlay_cache = cache
        return self._overlay_cache

    def _merged_events(
        self, customer_id: int, events: tuple, max_generation: int | None
    ) -> tuple:
        """``events`` plus the customer's overlay transactions, oldest
        generation first (appended transactions are later in time)."""
        for generation, overlay in self._overlays():
            if max_generation is not None and generation > max_generation:
                break
            extra = overlay.get(customer_id)
            if extra:
                events = events + extra
        return events

    def iter_partition(
        self, index: int, *, max_generation: int | None = None
    ) -> Iterator[CustomerSequence]:
        """Stream one partition's customers (file order = id order), with
        overlay transactions of generations ≤ ``max_generation`` (default:
        all) spliced onto each customer."""
        for customer_id, events in BinlogReader(self.partition_paths[index]):
            yield CustomerSequence(
                customer_id=customer_id,
                events=self._merged_events(customer_id, events, max_generation),
            )

    def __iter__(self) -> Iterator[CustomerSequence]:
        """All customers in ascending id order (K-way streaming merge).

        Round-robin assignment preserves id order within each partition,
        so an ordinary heap merge on ``customer_id`` restores the global
        order while holding one record batch per partition in memory.
        Binlog readers open their file only transiently per batch, so
        the merge works for any K regardless of the process fd limit.
        """
        streams = [self.iter_partition(i) for i in range(self.num_partitions)]
        return heapq.merge(*streams, key=lambda c: c.customer_id)

    def iter_unordered(self) -> Iterator[CustomerSequence]:
        """All customers, partition by partition — no merge overhead.

        Order-independent scans (support counting, vocabulary, the
        litemset phase) should prefer this: same customers, no per-record
        heap comparison, one partition's reader live at a time.
        """
        for index in range(self.num_partitions):
            yield from self.iter_partition(index)

    def threshold(self, minsup: float) -> int:
        return support_threshold(minsup, self.num_customers)

    def item_vocabulary(self) -> frozenset[int]:
        """All distinct items (one streaming scan)."""
        vocabulary: set[int] = set()
        for customer in self.iter_unordered():
            for event in customer.events:
                vocabulary.update(event)
        return frozenset(vocabulary)

    def support_count(self, pattern: Sequence) -> int:
        """Direct streaming support count (verification/reporting path)."""
        return sum(
            1 for customer in self.iter_unordered() if customer.contains(pattern)
        )

    def support(self, pattern: Sequence) -> float:
        if not self.num_customers:
            return 0.0
        return self.support_count(pattern) / self.num_customers

    def stats(self) -> DatabaseStats:
        """Table 2 statistics from the manifest (no scan needed)."""
        m = self._manifest
        return DatabaseStats.from_totals(
            num_customers=m["num_customers"],
            num_transactions=m["num_transactions"],
            num_items_total=m["num_items_total"],
            num_distinct_items=m["num_distinct_items"],
        )

    def disk_bytes(self) -> int:
        """Total size of the partition (and overlay) files on disk."""
        return sum(
            path.stat().st_size
            for path in [*self.partition_paths, *self.overlay_paths()]
        )

    def to_memory(self) -> SequenceDatabase:
        """Materialize the whole database in memory (tests, small data)."""
        return SequenceDatabase(list(self))

    # ------------------------------------------------------------------ #
    # Appending deltas (the incremental-mining substrate)
    # ------------------------------------------------------------------ #

    def _append_watermarks(self) -> tuple[int, set[int]]:
        """``(max_customer_id, vocabulary)`` for an append.

        Both live in the manifest for databases created since they were
        introduced; for an older manifest they are recovered with one
        streaming scan and persisted immediately, so the scan happens at
        most once per database (not once per caller)."""
        max_id = self._manifest.get("max_customer_id")
        vocabulary = self._manifest.get("vocabulary")
        if max_id is not None and vocabulary is not None:
            return max_id, set(vocabulary)
        max_id = 0
        items: set[int] = set()
        for customer in self.iter_unordered():
            if customer.customer_id > max_id:
                max_id = customer.customer_id
            for event in customer.events:
                items.update(event)
        manifest = dict(self._manifest)
        manifest["max_customer_id"] = max_id
        manifest["vocabulary"] = sorted(items)
        atomic_write_json(self.directory / MANIFEST_NAME, manifest)
        self._manifest = manifest
        return max_id, items

    def _records_of(
        self, ids: set[int], *, max_generation: int | None = None
    ) -> Iterator[BinlogRecord]:
        """The stored records (overlays not spliced) of the customers in
        ``ids``, from the partitions of generations ≤ ``max_generation``
        (default: all), in partition order.

        Only the wanted records are fully decoded
        (:meth:`BinlogReader.records` with ``ids``) and the scan stops
        once every id is found, so decoding follows ``ids``, not the
        base; the bytes and spans before the last wanted record are
        still read."""
        remaining = set(ids)
        for path, generation in zip(
            self.partition_paths, self._partition_generations
        ):
            if max_generation is not None and generation > max_generation:
                continue
            for record in BinlogReader(path).records(remaining):
                remaining.discard(record[0])
                yield record
                if not remaining:
                    return

    def max_customer_id(self) -> int:
        """The highest customer id in the database — the watermark an
        append uses to split a delta into overlays (id ≤ max) and new
        customers (id > max)."""
        return self._append_watermarks()[0]

    def append_delta(
        self,
        customers: Iterable[CustomerSequence],
        *,
        partitions: int = 1,
    ) -> dict:
        """Append one delta generation without rewriting existing files.

        ``customers`` must arrive in ascending ``customer_id`` order. Ids
        above the database's current maximum are **new customers** and
        stream round-robin into ``partitions`` fresh binlog partitions;
        ids at or below it are **overlay records** — their events are the
        customer's *additional* (later) transactions and are spliced onto
        the existing sequence during iteration. Every overlay id must
        belong to an existing customer: a delta containing overlays is
        validated by looking its overlay ids up in the existing
        partitions, where only the records of those ids are decoded
        (overlay-free appends — the common growth path — skip it), and a
        dangling id fails the whole append with nothing recorded.

        Returns the manifest entry of the appended delta. The base
        partitions, earlier deltas, and any mining-state snapshot are
        untouched; re-mining (full or incremental) sees the merged
        database.
        """
        if partitions < 1:
            raise ValueError(f"partitions must be >= 1, got {partitions}")
        max_id, vocabulary = self._append_watermarks()
        generation = self.generation + 1
        overlay_path = self.directory / delta_overlay_file_name(generation)
        part_paths = [
            self.directory / delta_partition_file_name(generation, i)
            for i in range(partitions)
        ]
        writers: list[BinlogWriter] = []
        overlay_writer: BinlogWriter | None = None
        overlay_ids: set[int] = set()
        num_new = 0
        num_overlay = 0
        num_transactions = 0
        num_items_total = 0
        last_id: int | None = None
        try:
            for customer in customers:
                if last_id is not None and customer.customer_id <= last_id:
                    raise ValueError(
                        f"delta customers must arrive in ascending id order "
                        f"(got {customer.customer_id} after {last_id})"
                    )
                last_id = customer.customer_id
                if not customer.events:
                    raise ValueError(
                        f"delta record for customer {customer.customer_id} "
                        f"has no transactions"
                    )
                if customer.customer_id <= max_id:
                    if overlay_writer is None:
                        overlay_writer = BinlogWriter(overlay_path)
                    overlay_writer.append(customer.customer_id, customer.events)
                    overlay_ids.add(customer.customer_id)
                    num_overlay += 1
                else:
                    if not writers:
                        writers = [BinlogWriter(path) for path in part_paths]
                    writers[num_new % partitions].append(
                        customer.customer_id, customer.events
                    )
                    num_new += 1
                num_transactions += len(customer.events)
                for event in customer.events:
                    num_items_total += len(event)
                    vocabulary.update(event)
        except BaseException:
            for writer in writers:
                writer.abort()
            if overlay_writer is not None:
                overlay_writer.abort()
            raise
        for writer in writers:
            writer.close()
        if overlay_writer is not None:
            overlay_writer.close()
        if num_overlay:
            found = {cid for cid, _events in self._records_of(overlay_ids)}
            dangling = overlay_ids - found
            if dangling:
                # Fail the append wholesale: a silently half-applied
                # delta (overlays that no iteration would ever splice)
                # must not read back as appended data.
                overlay_path.unlink()
                for path in part_paths:
                    if path.exists():
                        path.unlink()
                raise ValueError(
                    f"overlay records reference customers that do not "
                    f"exist: {sorted(dangling)[:5]}"
                )
        if not writers:
            # No new customers: drop the unused partition files entirely
            # rather than recording empty ones.
            part_paths = []
        entry = {
            "generation": generation,
            "partitions": len(part_paths),
            "num_new_customers": num_new,
            "num_overlay_customers": num_overlay,
            # Id watermark when this delta was appended: ids above it are
            # customers that did not exist before this generation.
            "max_customer_id_before": max_id,
        }
        manifest = dict(self._manifest)
        manifest["num_customers"] = manifest["num_customers"] + num_new
        manifest["num_transactions"] = (
            manifest["num_transactions"] + num_transactions
        )
        manifest["num_items_total"] = manifest["num_items_total"] + num_items_total
        manifest["num_distinct_items"] = len(vocabulary)
        manifest["max_customer_id"] = max(
            max_id, last_id if last_id is not None else 0
        )
        manifest["vocabulary"] = sorted(vocabulary)
        manifest["deltas"] = list(manifest.get("deltas", ())) + [entry]
        atomic_write_json(self.directory / MANIFEST_NAME, manifest)
        self._manifest = manifest
        for path in part_paths:
            self.partition_paths.append(path)
            self._partition_generations.append(generation)
        self._overlay_cache = None
        return entry

    def delta_since(self, generation: int) -> "DeltaView":
        """Everything appended after ``generation`` (see :class:`DeltaView`)."""
        if not 0 <= generation <= self.generation:
            raise ValueError(
                f"generation {generation} out of range 0..{self.generation}"
            )
        return DeltaView(self, generation)

    # ------------------------------------------------------------------ #
    # Transformation phase (streamed, partition by partition)
    # ------------------------------------------------------------------ #

    def transform(
        self, catalog: LitemsetCatalogLike
    ) -> "PartitionedTransformedDatabase":
        """The transformation phase, streamed: raw partition in,
        transformed binlog partition out (each customer through
        :meth:`~repro.itemsets.litemsets.LitemsetCatalog.transform`,
        empty customers dropped). Mirrors
        :func:`repro.db.transform.transform_database` exactly — including
        keeping the *original* customer count as the support denominator.
        """
        transformed_dir = self.directory / "transformed"
        transformed_dir.mkdir(parents=True, exist_ok=True)
        paths: list[Path] = []
        counts: list[int] = []
        max_sequence_length = 0
        num_transformed = 0
        for index in range(self.num_partitions):
            path = transformed_dir / transformed_file_name(index)
            with BinlogWriter(path) as writer:
                for customer in self.iter_partition(index):
                    events = [
                        tuple(sorted(ids))
                        for ids in catalog.transform(customer.events)
                    ]
                    if events:
                        writer.append(customer.customer_id, events)
                        if len(events) > max_sequence_length:
                            max_sequence_length = len(events)
                paths.append(path)
                counts.append(writer.num_records)
                num_transformed += writer.num_records
            stale = compiled_cache_path(path)
            if stale.exists():
                stale.unlink()  # cached inversion of a previous catalog
        sequences = PartitionedSequences(paths, counts)
        return PartitionedTransformedDatabase(
            sequences=sequences,
            num_customers=self.num_customers,
            num_transformed=num_transformed,
            catalog=catalog,
            max_sequence_length=max_sequence_length,
        )


@dataclass(frozen=True, slots=True)
class DeltaView:
    """What changed in a :class:`PartitionedDatabase` after ``since``.

    The incremental miner (:mod:`repro.incremental.update`) counts
    retained candidates against exactly this view instead of rescanning
    the base: customer support is additive across disjoint customer
    sets, and an overlaid customer's contribution change is the
    difference between its merged and its pre-delta sequence —

    ``new_count(s) = old_count(s) + count(s, additions) − count(s, removals)``

    where the additions are :meth:`new_customers` plus the merged
    sequences of :meth:`touched_customers` and the removals are the
    touched customers' pre-delta sequences.
    """

    db: PartitionedDatabase
    since: int

    @property
    def is_empty(self) -> bool:
        return self.db.generation <= self.since

    def new_customers(self) -> Iterator[CustomerSequence]:
        """Customers introduced after ``since`` (later overlays merged)."""
        for index, generation in enumerate(self.db._partition_generations):
            if generation > self.since:
                yield from self.db.iter_partition(index)

    def touched_customers(
        self,
    ) -> list[tuple[CustomerSequence, CustomerSequence]]:
        """``(pre-delta, merged)`` sequence pairs of every customer that
        existed at ``since`` and gained overlay transactions afterwards.

        The pre-delta sequences are looked up by id in the ≤ ``since``
        partitions: only the touched customers' records are decoded, and
        an id that no partition holds raises."""
        touched: set[int] = set()
        watermark: int | None = None
        for delta in self.db._manifest.get("deltas", ()):
            if delta["generation"] > self.since and watermark is None:
                watermark = delta["max_customer_id_before"]
        for generation, overlay in self.db._overlays():
            if generation > self.since:
                touched.update(
                    cid for cid in overlay
                    if watermark is None or cid <= watermark
                )
        if not touched:
            return []
        pairs: list[tuple[CustomerSequence, CustomerSequence]] = []
        for customer_id, events in self.db._records_of(
            touched, max_generation=self.since
        ):
            touched.discard(customer_id)
            pairs.append(
                (
                    CustomerSequence(
                        customer_id=customer_id,
                        events=self.db._merged_events(
                            customer_id, events, self.since
                        ),
                    ),
                    CustomerSequence(
                        customer_id=customer_id,
                        events=self.db._merged_events(customer_id, events, None),
                    ),
                )
            )
        if touched:
            raise ValueError(
                f"overlay records reference customers that do not exist: "
                f"{sorted(touched)[:5]}"
            )
        return pairs


class PartitionedSequences:
    """The transformed database as disk partitions — the out-of-core
    countable.

    This is what the counting layer sees instead of a list of transformed
    sequences: ``len()`` is the transformed customer count, and iteration
    streams event tuples partition by partition, which is all the
    row-scanning passes need (the hash tree, the length-2 sweep and
    DynamicSome's on-the-fly join, under either strategy). For the
    vertical strategy's list joins, :meth:`load_prepared` returns one
    partition's inversion, unpickled from the on-disk cache that
    :meth:`prepare` builds once per run; :meth:`prepare` is idempotent,
    so every pass can call through
    :meth:`~repro.core.phase.CountingOptions.prepare_sequences` freely.

    Instances are tiny (paths and counts) and picklable, which is how the
    parallel executor ships them: workers get the *description* of the
    database and open partition files themselves.
    """

    def __init__(self, paths: list[Path], counts: list[int]) -> None:
        self.paths = [Path(p) for p in paths]
        self.counts = list(counts)

    @property
    def num_partitions(self) -> int:
        return len(self.paths)

    def __len__(self) -> int:
        return sum(self.counts)

    def iter_partition(self, index: int) -> Iterator[tuple[frozenset[int], ...]]:
        """Stream one partition's transformed sequences."""
        for _customer_id, events in BinlogReader(self.paths[index]):
            yield tuple(frozenset(event) for event in events)

    def __iter__(self) -> Iterator[tuple[frozenset[int], ...]]:
        for index in range(self.num_partitions):
            yield from self.iter_partition(index)

    def __getitem__(self, part: slice) -> "PartitionedSequences":
        """The listed partitions as a countable of their own (a parallel
        shard of an out-of-core pass)."""
        return PartitionedSequences(self.paths[part], self.counts[part])

    # ------------------------------------------------------------------ #
    # Strategy preparation (the out-of-core inversion cache)
    # ------------------------------------------------------------------ #

    def prepare(self, strategy: CountingStrategy) -> "PartitionedSequences":
        """Build the on-disk inversion cache the strategy counts from.

        For ``vertical`` every partition is inverted exactly once and its
        :class:`~repro.core.vertical.VerticalDatabase` (without rows) is
        pickled next to its binlog; every later pass (serial or in a
        worker process) unpickles it instead of re-inverting. The hash
        tree streams the rows and needs no preparation.
        """
        if strategy == "vertical":
            for index in range(self.num_partitions):
                cache = compiled_cache_path(self.paths[index])
                if cache.exists():
                    continue
                inverted = self._invert(index)
                # Atomic: load_prepared dispatches on cache.exists(), so
                # a half-written pickle must never be visible under the
                # final name (a crashed prepare() simply re-inverts).
                with atomic_writer(cache, "wb") as handle:
                    pickle.dump(inverted, handle, protocol=pickle.HIGHEST_PROTOCOL)
        return self

    def _invert(self, index: int) -> VerticalDatabase:
        return VerticalDatabase.invert(
            list(self.iter_partition(index)), keep_rows=False
        )

    def load_prepared(self, index: int) -> VerticalDatabase:
        """One partition's vertical inversion: the on-disk cache, or a
        transient inversion for a raw engine call without prepare().

        The caller owns the returned object and drops it after the
        partition's counts are merged — peak memory is one partition.
        """
        cache = compiled_cache_path(self.paths[index])
        if cache.exists():
            with open(cache, "rb") as handle:
                inverted: VerticalDatabase = pickle.load(handle)
                return inverted
        return self._invert(index)


@dataclass(frozen=True, slots=True)
class PartitionedTransformedDatabase:
    """The transformed database DT, on disk.

    Field-compatible with :class:`~repro.db.transform.TransformedDatabase`
    everywhere the sequence phase looks: ``sequences`` (here the
    partitioned countable), ``num_customers`` (the support denominator —
    still the *original* count), ``catalog`` and
    ``max_sequence_length``.
    """

    sequences: PartitionedSequences
    num_customers: int
    num_transformed: int
    catalog: LitemsetCatalogLike
    max_sequence_length: int

    def __len__(self) -> int:
        return self.num_transformed

    @property
    def num_dropped_customers(self) -> int:
        return self.num_customers - self.num_transformed


def write_partitions_from_spmf(
    source: str | Path,
    directory: str | Path,
    *,
    partitions: int,
    overwrite: bool = False,
) -> PartitionedDatabase:
    """Stream an SPMF file into a partitioned database (never holds the
    whole dataset in memory)."""
    from repro.io.spmf import iter_spmf

    return PartitionedDatabase.create(
        directory, iter_spmf(source), partitions=partitions, overwrite=overwrite
    )


def write_partitions_from_csv(
    source: str | Path,
    directory: str | Path,
    *,
    partitions: int,
    overwrite: bool = False,
) -> PartitionedDatabase:
    """Load a CSV transaction table and partition it. CSV rows are
    unsorted by contract, so this path sorts in memory first (the sort
    phase); use SPMF or ``generate --stream-out`` for larger-than-memory
    sources."""
    from repro.io.csvio import read_database_csv

    db = read_database_csv(source)
    return PartitionedDatabase.from_database(
        db, directory, partitions=partitions, overwrite=overwrite
    )
