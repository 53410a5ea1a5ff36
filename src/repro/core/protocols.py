"""Formal :class:`typing.Protocol` contracts for the load-bearing seams.

The package composes three algorithms × two counting strategies × two
storage paths × serial/incremental by *duck typing*: the
partitioned database drops in wherever the in-memory one is accepted,
and the out-of-core countable drops in wherever a transformed sequence
list is accepted. Until this module those contracts
were informal — documented in docstrings, enforced only by the test
matrix. Here they are stated as structural :class:`~typing.Protocol`
types, so ``mypy --strict`` verifies every existing implementation and
every future one (a PrefixSpan engine, a vectorized kernel, a serving
snapshot) against the same written-down surface.

Layering: this module is a dependency **leaf**. It imports nothing from
:mod:`repro`, which is what lets :mod:`repro.core.sequence` re-export
its aliases and lets the counting layer dispatch on
:class:`PartitionedCountable` without the ``core → db`` import that PR 5
had to lazy-import around. Static conformance of the concrete classes is
asserted in :mod:`repro._typecheck` (a type-checking-only module, so the
protocols never force runtime ``isinstance`` machinery on the hot path —
:class:`PartitionedCountable` alone is ``runtime_checkable`` because the
counting engines dispatch on it once per pass).

The invariants types cannot express — import-time layering itself,
``__all__`` consistency, determinism of the core — are enforced by the
companion AST linter, ``python -m tools.lint``.
"""

from __future__ import annotations

from typing import (
    Any,
    Iterable,
    Iterator,
    Literal,
    Mapping,
    Protocol,
    Sequence as PySequence,
    Union,
    runtime_checkable,
)

__all__ = [
    "COUNTING_STRATEGIES",
    "Countable",
    "CountingStrategy",
    "CustomerRecord",
    "IdEventSeq",
    "IdSequence",
    "Item",
    "Itemset",
    "LitemsetCatalogLike",
    "PartitionedCountable",
    "PassCheckpoint",
    "SequenceDatabaseLike",
    "SupportCounts",
    "TransformedSequence",
    "TransformedSequences",
    "TransformedView",
]

# --------------------------------------------------------------------- #
# Value aliases (canonical home; repro.core.sequence re-exports them)
# --------------------------------------------------------------------- #

Item = int
#: A canonical itemset: strictly increasing tuple of item ids.
Itemset = tuple[Item, ...]
#: A transformed customer sequence: one ``frozenset`` of litemset ids per
#: transaction, in transaction-time order.
IdEventSeq = PySequence[frozenset[int]]
#: A candidate/large sequence over the litemset-id alphabet.
IdSequence = tuple[int, ...]
#: One transformed customer sequence in its stored (tuple) form.
TransformedSequence = tuple[frozenset[int], ...]
#: A whole transformed database as plain Python data.
TransformedSequences = PySequence[TransformedSequence]

#: The name of a support-counting backend (see :mod:`repro.core.counting`).
CountingStrategy = Literal["hashtree", "vertical"]

COUNTING_STRATEGIES: tuple[CountingStrategy, ...] = ("hashtree", "vertical")

#: One counting pass's result: a support count for every candidate.
SupportCounts = dict[IdSequence, int]


# --------------------------------------------------------------------- #
# The database surface (sort-phase output)
# --------------------------------------------------------------------- #


class CustomerRecord(Protocol):
    """One customer's ordered transaction history.

    Satisfied by :class:`repro.db.database.CustomerSequence`; every phase
    that scans a database consumes exactly this much of it.
    """

    @property
    def customer_id(self) -> int: ...

    @property
    def events(self) -> tuple[Itemset, ...]: ...


class SequenceDatabaseLike(Protocol):
    """What the litemset phase and the mining pipeline need of a database.

    Satisfied by the in-memory :class:`repro.db.database.SequenceDatabase`
    and the disk-backed :class:`repro.db.partitioned.PartitionedDatabase`;
    any future storage path (sharded, remote, ...) that provides this
    surface mines unchanged. Iteration yields customers in ascending
    ``customer_id`` order; ``num_customers`` is the support denominator.
    Implementations may additionally offer ``iter_unordered()`` — a
    cheaper stream for order-independent scans — which callers discover
    with ``getattr``.
    """

    @property
    def num_customers(self) -> int: ...

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator[CustomerRecord]: ...

    def threshold(self, minsup: float) -> int:
        """Integer customer-count threshold for fractional ``minsup``."""
        ...


# --------------------------------------------------------------------- #
# The transformed-database surface (what the sequence phase consumes)
# --------------------------------------------------------------------- #


class LitemsetCatalogLike(Protocol):
    """The catalog surface the sequence phase needs (id alphabet only).

    Satisfied by :class:`repro.itemsets.litemsets.LitemsetCatalog`. The
    sequence phase never maps ids back to raw items itself — it needs the
    free ``L_1`` supports and the id → event expansion used by the
    containment-aware backward/maximal phases, and the transformation
    phase needs the per-customer transform.
    """

    def one_sequence_supports(self) -> dict[IdSequence, int]:
        """Supports of all large 1-sequences over the id alphabet."""
        ...

    def transform(self, events: Iterable[Iterable[int]]) -> TransformedSequence:
        """One customer's transactions as litemset-id events, transactions
        containing no litemset dropped."""
        ...

    def expand_events(self, id_sequence: IdSequence) -> TransformedSequence:
        """Inflate an id sequence to bare frozenset events."""
        ...


@runtime_checkable
class PartitionedCountable(Protocol):
    """The out-of-core countable: a transformed database in K partitions.

    Satisfied by :class:`repro.db.partitioned.PartitionedSequences`.
    Iteration streams the transformed rows partition by partition, so
    the row-scanning passes (the hash tree, the length-2 sweep,
    DynamicSome's on-the-fly scan) read it as a plain iterable and a
    pass's peak memory is one partition. The counting engines dispatch
    on this protocol — the single ``runtime_checkable`` one, checked
    once per pass — only for the vertical strategy, which counts
    ``load_prepared`` partition by partition. ``load_prepared`` is the
    out-of-core analogue of the once-per-run inversion contract: the
    first call for a partition may invert it and cache the inversion on
    disk, and every later call must be a cheap load, not a recompute.
    """

    @property
    def num_partitions(self) -> int: ...

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator[TransformedSequence]: ...

    def load_prepared(self, index: int) -> object:
        """One partition's vertical inversion."""
        ...


#: Everything a counting engine accepts as its database argument: the raw
#: transformed sequences or the disk-backed partitioned countable. The
#: engines also accept the once-per-run vertical inversion of the raw
#: form; :data:`repro.core.counting.CountableSequences` is the
#: concrete-class twin of this alias that names it, used where
#: ``isinstance`` dispatch needs real classes.
Countable = Union[TransformedSequences, PartitionedCountable]


class TransformedView(Protocol):
    """The transformed database DT as the sequence phase sees it.

    Satisfied by :class:`repro.db.transform.TransformedDatabase`
    (in-memory) and
    :class:`repro.db.partitioned.PartitionedTransformedDatabase`
    (disk-backed). ``num_customers`` is the *original* customer count —
    the support denominator — not the count of surviving sequences.
    """

    @property
    def sequences(self) -> Union[TransformedSequences, PartitionedCountable]: ...

    @property
    def num_customers(self) -> int: ...

    @property
    def max_sequence_length(self) -> int:
        """Longest transformed customer sequence (bounds pattern length)."""
        ...

    @property
    def catalog(self) -> LitemsetCatalogLike: ...


# --------------------------------------------------------------------- #
# The checkpoint surface (durable pass-by-pass resume)
# --------------------------------------------------------------------- #


class PassCheckpoint(Protocol):
    """Durable memo of completed counting passes, replayed strictly in
    order.

    Satisfied by :class:`repro.io.checkpoint.CheckpointStore`. The
    counting engines consult it at the top of every pass: ``replay``
    returns the recorded counts if this exact pass (same kind, same
    input digest — see :mod:`repro.core.passkey`) is next in the stored
    sequence, ``None`` once the stored passes are exhausted (the run has
    caught up and must count for real), and raises if the resumed run
    diverged from the recording. ``record`` durably appends one freshly
    counted pass. Counts round-trip exactly, **insertion order
    included**, which is what makes a resumed run's downstream output
    byte-identical to an uninterrupted one.

    Keys are typed ``Any`` because pass kinds disagree: the raw-item
    pass counts ``int`` keys, every other pass counts id tuples.
    """

    def replay(self, kind: str, key: str) -> dict[Any, int] | None:
        """Counts of the next stored pass, or ``None`` past the end."""
        ...

    def record(self, kind: str, key: str, counts: Mapping[Any, int]) -> None:
        """Durably append one completed pass."""
        ...
