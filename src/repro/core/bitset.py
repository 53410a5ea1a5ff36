"""Bitset-compiled database: the row-oriented form under ``"vertical"``.

Each transformed customer sequence is **compiled once per mining run**
into a :class:`CompiledSequence`: for every litemset id an occurrence
bitmask stored as an arbitrary-precision Python ``int``, with bit *e*
set iff the id occurs in event *e*. Python ints have no word-size limit,
so a 500-event history is one 500-bit mask, and all mask arithmetic runs
in C. Two consumers read it:

* the ``"vertical"`` strategy (:mod:`repro.core.vertical`) transposes
  the compiled customers into per-id vertical lists — the *same* mask
  objects, re-indexed by id;
* the length-2 fast path (:func:`repro.core.counting.count_length2`)
  sweeps each compiled customer with
  :meth:`CompiledSequence.occurring_pairs`, which compares each id's
  lowest set bit against every id's highest set bit.

:class:`CompiledDatabase` is an immutable, sliceable, picklable sequence
of compiled customers. Slicing yields a compiled shard (no
recompilation), and the out-of-core path pickles one compiled partition
per binlog partition as its on-disk compile cache. ``COMPILE_CALLS``
counts :meth:`CompiledDatabase.compile` invocations so tests can assert
the once-per-run contract.
"""

from __future__ import annotations

from typing import Iterator, Sequence as PySequence, overload

from repro.core.sequence import IdEventSeq

#: Number of :meth:`CompiledDatabase.compile` calls since import — a test
#: hook for the once-per-mining-run compilation contract. Never reset by
#: library code; tests snapshot it before a run and diff after.
COMPILE_CALLS = 0


class CompiledSequence:
    """One customer's transformed sequence as per-id occurrence bitmasks.

    ``masks[litemset_id]`` has bit *e* set iff the id occurs in event
    *e*.
    """

    __slots__ = ("masks", "num_events")

    def __init__(self, masks: dict[int, int], num_events: int) -> None:
        self.masks = masks
        self.num_events = num_events

    @classmethod
    def from_events(cls, events: IdEventSeq) -> "CompiledSequence":
        masks: dict[int, int] = {}
        for index, event in enumerate(events):
            bit = 1 << index
            for litemset_id in event:
                masks[litemset_id] = masks.get(litemset_id, 0) | bit
        return cls(masks, len(events))

    # Pickling with __slots__ and no __dict__ needs explicit state.
    def __getstate__(self) -> tuple[dict[int, int], int]:
        return (self.masks, self.num_events)

    def __setstate__(self, state: tuple[dict[int, int], int]) -> None:
        self.masks, self.num_events = state

    def occurring_pairs(self) -> list[tuple[int, int]]:
        """All ordered id pairs ``(a, b)`` contained in this customer.

        ``(a, b)`` is contained iff some occurrence of ``a`` precedes an
        occurrence of ``b`` strictly, i.e. iff ``a``'s lowest set bit lies
        below ``b``'s highest set bit. Each pair appears exactly once.
        """
        bounds = [
            (litemset_id, (mask & -mask).bit_length() - 1, mask.bit_length() - 1)
            for litemset_id, mask in self.masks.items()
        ]
        return [
            (first, second)
            for first, lowest, _ in bounds
            for second, _, highest in bounds
            if lowest < highest
        ]


class CompiledDatabase:
    """An immutable sequence of :class:`CompiledSequence` customers.

    Supports ``len``, indexing, iteration, and slicing (a slice is a
    compiled shard — no recompilation), so the sharded length-2 pass
    slices it exactly like the raw transformed sequence list.
    """

    __slots__ = ("customers",)

    def __init__(self, customers: tuple[CompiledSequence, ...]) -> None:
        self.customers = customers

    @classmethod
    def compile(cls, sequences: PySequence[IdEventSeq]) -> "CompiledDatabase":
        """Compile every customer of a transformed database. Counted in
        :data:`COMPILE_CALLS`; callers compile once per run and reuse."""
        global COMPILE_CALLS
        COMPILE_CALLS += 1
        return cls(tuple(CompiledSequence.from_events(s) for s in sequences))

    def __getstate__(self) -> tuple[CompiledSequence, ...]:
        return self.customers

    def __setstate__(self, state: tuple[CompiledSequence, ...]) -> None:
        self.customers = state

    def __len__(self) -> int:
        return len(self.customers)

    def __iter__(self) -> Iterator[CompiledSequence]:
        return iter(self.customers)

    @overload
    def __getitem__(self, index: int) -> CompiledSequence: ...

    @overload
    def __getitem__(self, index: slice) -> "CompiledDatabase": ...

    def __getitem__(
        self, index: int | slice
    ) -> "CompiledSequence | CompiledDatabase":
        if isinstance(index, slice):
            return CompiledDatabase(self.customers[index])
        return self.customers[index]


def ensure_compiled(
    sequences: "PySequence[IdEventSeq] | CompiledDatabase",
) -> CompiledDatabase:
    """Pass through an already-compiled database, compile anything else."""
    if isinstance(sequences, CompiledDatabase):
        return sequences
    return CompiledDatabase.compile(sequences)
