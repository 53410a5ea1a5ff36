"""The transformation phase (phase 3).

Replaces every transaction of every customer by the *set of litemset ids
contained in it*, so that sequence-phase containment becomes ordered set
membership instead of repeated subset tests. Transactions containing no
litemset are dropped; customers left with no transactions are dropped from
the transformed view — but the support denominator stays the original
customer count, because a dropped customer simply supports nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.db.database import SequenceDatabase
from repro.itemsets.litemsets import LitemsetCatalog

if TYPE_CHECKING:
    from repro.db.partitioned import (
        PartitionedDatabase,
        PartitionedTransformedDatabase,
    )

#: A transformed customer sequence: one frozenset of litemset ids per
#: surviving transaction.
TransformedSequence = tuple[frozenset[int], ...]


@dataclass(frozen=True, slots=True)
class TransformedDatabase:
    """The transformed database DT of the paper.

    ``sequences`` holds only customers with at least one surviving
    transaction; ``num_customers`` is the *original* customer count, which
    is the denominator for all supports.
    """

    sequences: tuple[TransformedSequence, ...]
    customer_ids: tuple[int, ...]
    num_customers: int
    catalog: LitemsetCatalog

    def __len__(self) -> int:
        return len(self.sequences)

    @property
    def max_sequence_length(self) -> int:
        """Longest transformed customer sequence (bounds pattern length)."""
        return max((len(s) for s in self.sequences), default=0)

    @property
    def num_dropped_customers(self) -> int:
        return self.num_customers - len(self.sequences)


def transform_database(
    db: SequenceDatabase | PartitionedDatabase, catalog: LitemsetCatalog
) -> TransformedDatabase | PartitionedTransformedDatabase:
    """Run the transformation phase over ``db`` using ``catalog``.

    ``db`` is either an in-memory :class:`SequenceDatabase` (returns a
    :class:`TransformedDatabase`) or a disk-backed
    :class:`~repro.db.partitioned.PartitionedDatabase` (returns a
    :class:`~repro.db.partitioned.PartitionedTransformedDatabase`, the
    transformation itself streamed partition by partition).
    """
    if not isinstance(db, SequenceDatabase):
        from repro.db.partitioned import PartitionedDatabase

        if isinstance(db, PartitionedDatabase):
            return db.transform(catalog)
        raise TypeError(f"cannot transform {type(db).__name__}")
    sequences: list[TransformedSequence] = []
    customer_ids: list[int] = []
    for customer in db:
        events = catalog.transform(customer.events)
        if events:
            sequences.append(events)
            customer_ids.append(customer.customer_id)
    return TransformedDatabase(
        sequences=tuple(sequences),
        customer_ids=tuple(customer_ids),
        num_customers=db.num_customers,
        catalog=catalog,
    )
