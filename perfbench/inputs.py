"""Seeded benchmark inputs and the output digests the checks compare.

Every workload draws its customers from one synthetic population:
:mod:`repro.datagen` with ``C10-T2.5-S4-I1.25`` at a fixed generator
seed. The run's ``--seed`` then relabels every item through a seeded
permutation and shuffles customer order. Mining is invariant under both
(the patterns map through the same relabelling), so each seed is a
different input with the same amount of work.

Why not pass ``--seed`` to the generator itself: its seed redraws the
population's pattern tables, and with them the size of the frequent
set. On 2,000 customers at minsup 0.009, prefixspan took 0.7 s on one
generator seed and 8.8 s on another (2-CPU container) — a spread no
regression bound can absorb.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path
from typing import Iterable, Sequence

from repro.datagen.generator import iter_customer_sequences
from repro.datagen.params import SyntheticParams
from repro.db.database import CustomerSequence, SequenceDatabase
from repro.db.records import Transaction
from repro.io.csvio import write_transactions_csv
from repro.io.patterns import format_pattern_line
from repro.io.spmf import write_spmf
from repro.miner import Pattern

DATASET = "C10-T2.5-S4-I1.25"
POPULATION_SEED = 0
#: The generator seed of the held-out customers serve-mixed queries with.
HELD_OUT_SEED = 1
#: Share of a delta's rows that extend existing customers (overlay
#: records) rather than add new ones.
EXTEND_SHARE = 0.2

Events = tuple[tuple[int, ...], ...]


def population(num_customers: int, seed: int = POPULATION_SEED) -> list[Events]:
    """The first ``num_customers`` customers of the fixed population (or,
    with ``HELD_OUT_SEED``, of the held-out one)."""
    params = SyntheticParams.from_name(DATASET, num_customers=num_customers)
    return [customer.events for customer in iter_customer_sequences(params, seed=seed)]


class Relabelling:
    """The seeded item permutation of one run."""

    def __init__(self, customers: Iterable[Events], seed: int) -> None:
        items = sorted({item for events in customers for event in events for item in event})
        shuffled = list(items)
        random.Random(seed).shuffle(shuffled)
        self._map = dict(zip(items, shuffled))

    def events(self, events: Events) -> Events:
        return tuple(
            tuple(sorted(self._map[item] for item in event)) for event in events
        )


def customer_ids(count: int, seed: int) -> list[int]:
    """The id of each of ``count`` customers: 1..count shuffled under
    ``seed``."""
    order = list(range(count))
    random.Random(seed + 1).shuffle(order)
    ids = [0] * count
    for number, index in enumerate(order, start=1):
        ids[index] = number
    return ids


def seeded_database(
    customers: Sequence[Events], relabel: Relabelling, seed: int
) -> SequenceDatabase:
    """``customers`` relabelled, with the ids of :func:`customer_ids`."""
    ids = customer_ids(len(customers), seed)
    return SequenceDatabase(sorted(
        (
            CustomerSequence(customer_id=ids[index], events=relabel.events(events))
            for index, events in enumerate(customers)
        ),
        key=lambda customer: customer.customer_id,
    ))


def write_database(db: SequenceDatabase, path: Path) -> Path:
    write_spmf(db, path)
    return path


def write_delta_csv(rows: Iterable[tuple[int, Events]], path: Path) -> Path:
    """A delta as a CSV transaction table: ``(customer id, events)`` rows,
    times 1..n per customer (an existing id's events append after its
    current ones)."""
    write_transactions_csv(
        (
            Transaction(customer_id=customer_id, transaction_time=when, items=items)
            for customer_id, events in rows
            for when, items in enumerate(events, start=1)
        ),
        path,
    )
    return path


def delta_chain(
    fresh: Sequence[Events],
    num_deltas: int,
    base_ids: Sequence[int],
    relabel: Relabelling,
) -> list[list[tuple[int, Events]]]:
    """``num_deltas`` deltas of ``len(fresh) // num_deltas`` rows each, as
    ascending ``(customer id, events)`` rows, over a base whose customers
    have ``base_ids``. ``EXTEND_SHARE`` of each delta's rows give an
    existing customer the first two events of a fresh customer; the other
    rows are fresh customers with the next new ids.

    Which customers a delta extends is drawn from a fixed generator over
    the population's order, not from the run's seed: every seed extends
    the same customers (under its own ids), so the update work per delta
    does not change with the seed."""
    rng = random.Random(POPULATION_SEED)
    size = len(fresh) // num_deltas
    extend = int(size * EXTEND_SHARE)
    rows = iter(fresh)
    existing = list(base_ids)
    chain = []
    for _ in range(num_deltas):
        extended = [existing[k] for k in rng.sample(range(len(existing)), extend)]
        delta = [(number, relabel.events(next(rows)[:2])) for number in extended]
        first_new = len(existing) + 1
        for number in range(first_new, first_new + size - extend):
            delta.append((number, relabel.events(next(rows))))
            existing.append(number)
        chain.append(sorted(delta))
    return chain


def pattern_digest(patterns: Sequence[Pattern]) -> tuple[int, str]:
    """``(pattern count, SHA-256 of the pattern-file lines)``."""
    text = "\n".join(format_pattern_line(pattern) for pattern in patterns)
    return len(patterns), hashlib.sha256(text.encode("utf-8")).hexdigest()
