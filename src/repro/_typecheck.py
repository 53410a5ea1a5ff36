"""Static conformance assertions for :mod:`repro.core.protocols`.

Nothing imports this module at runtime. ``mypy --strict src/repro``
checks it like any other module, and each assignment below fails type
checking the moment a concrete class drifts from the protocol it claims
to implement — the ``assert_type``-style replacement for runtime
``isinstance`` conformance tests. New implementations of a seam (a
PrefixSpan engine, a vectorized kernel, a serving snapshot) should add
one line here.

The functions are declared under ``TYPE_CHECKING`` because several of
the concrete classes live in layers (:mod:`repro.db`) that the protocol
module itself must never import; the guard keeps this file import-safe
from anywhere without creating runtime edges the layering lint rule
(``python -m tools.lint``) would have to special-case.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core import protocols
    from repro.db.database import CustomerSequence, SequenceDatabase
    from repro.db.partitioned import (
        PartitionedDatabase,
        PartitionedSequences,
        PartitionedTransformedDatabase,
    )
    from repro.db.transform import TransformedDatabase
    from repro.io.checkpoint import CheckpointStore
    from repro.itemsets.litemsets import LitemsetCatalog

    def _customer_records(record: CustomerSequence) -> protocols.CustomerRecord:
        return record

    def _sequence_databases(
        in_memory: SequenceDatabase, on_disk: PartitionedDatabase
    ) -> list[protocols.SequenceDatabaseLike]:
        """Both storage paths satisfy the mining-pipeline database surface."""
        return [in_memory, on_disk]

    def _partitioned_countables(
        sequences: PartitionedSequences,
    ) -> protocols.PartitionedCountable:
        return sequences

    def _transformed_views(
        in_memory: TransformedDatabase, on_disk: PartitionedTransformedDatabase
    ) -> list[protocols.TransformedView]:
        """Both DT forms satisfy what the sequence-phase algorithms consume."""
        return [in_memory, on_disk]

    def _litemset_catalogs(catalog: LitemsetCatalog) -> protocols.LitemsetCatalogLike:
        return catalog

    def _pass_checkpoints(store: CheckpointStore) -> protocols.PassCheckpoint:
        """The durable pass store satisfies the counting-layer surface."""
        return store
