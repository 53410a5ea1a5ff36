"""The paper's dataset grid, scaled for laptop runs, with caching.

Table 2 of the paper evaluates five synthetic datasets, named by their
generator knobs, all with |D| = 250 000 customers:

    C10-T2.5-S4-I1.25   C10-T5-S4-I1.25   C10-T5-S4-I2.5
    C20-T2.5-S4-I1.25   C20-T2.5-S8-I1.25

and sweeps minimum support over 1 %, 0.75 %, 0.5 %, 0.33 %, 0.25 %.

This reproduction keeps the five names and the five-point sweep but scales
|D| down and the sweep band up. The calibration argument: the noise
floor — the support of a *random* item — sits at |C|·|T|/N ≈ 0.25 %
regardless of |D|, so at small |D| the same relative positions of sweep
vs. noise floor are preserved by shifting the band. ``seqmine experiment
--list`` names the artifacts built on this grid (see the README's
*Experiment harness* entry).
"""

from __future__ import annotations

import os

from repro.datagen.generator import generate_database
from repro.datagen.params import SyntheticParams
from repro.db.database import SequenceDatabase

#: The paper's five dataset names (Table 2).
PAPER_DATASETS: tuple[str, ...] = (
    "C10-T2.5-S4-I1.25",
    "C10-T5-S4-I1.25",
    "C10-T5-S4-I2.5",
    "C20-T2.5-S4-I1.25",
    "C20-T2.5-S8-I1.25",
)

#: The paper's minsup sweep (fractions of customers).
PAPER_MINSUPS: tuple[float, ...] = (0.01, 0.0075, 0.005, 0.0033, 0.0025)

#: Scaled sweeps used by the reproduction benches. The per-item noise
#: floor is |C|·|T|/N: 0.25 % for the C10-T2.5 dataset but 0.5 % for the
#: denser T5/C20 datasets, so — like the paper, whose identical sweep cost
#: 70× more on the dense datasets — the dense panels get a sweep shifted
#: up by the same 2× density ratio to keep bench wall-time sane.
BENCH_MINSUPS: tuple[float, ...] = (0.025, 0.02, 0.015, 0.01, 0.0075)
BENCH_MINSUPS_DENSE: tuple[float, ...] = (0.05, 0.04, 0.03, 0.025, 0.02)

#: Default customer count for bench datasets (REPRO_BENCH_CUSTOMERS to
#: override; the paper used 250 000).
DEFAULT_BENCH_CUSTOMERS = 600

DEFAULT_SEED = 1995  # the paper's year; any fixed seed works


def bench_minsups(dataset: str) -> tuple[float, ...]:
    """The minsup sweep for one dataset, density-adjusted (see above)."""
    sweep = (
        BENCH_MINSUPS if dataset.startswith("C10-T2.5") else BENCH_MINSUPS_DENSE
    )
    if fast_mode():
        return sweep[::2]  # 3 of 5 points
    return sweep


def fast_mode() -> bool:
    """REPRO_BENCH_FAST=1 trims sweeps for smoke-testing the bench suite."""
    return os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")


def bench_customers() -> int:
    """Bench |D|, overridable via the REPRO_BENCH_CUSTOMERS env var."""
    raw = os.environ.get("REPRO_BENCH_CUSTOMERS", "")
    if raw:
        value = int(raw)
        if value < 1:
            raise ValueError("REPRO_BENCH_CUSTOMERS must be positive")
        return value
    if fast_mode():
        return 400
    return DEFAULT_BENCH_CUSTOMERS


def dataset_params(
    name: str, *, num_customers: int | None = None
) -> SyntheticParams:
    """Generator parameters for a paper dataset name at bench scale."""
    return SyntheticParams.from_name(
        name,
        num_customers=num_customers if num_customers is not None else bench_customers(),
    )


_CACHE: dict[tuple, SequenceDatabase] = {}


def load_dataset(
    name: str,
    *,
    num_customers: int | None = None,
    seed: int = DEFAULT_SEED,
) -> SequenceDatabase:
    """Generate (or fetch from the in-process cache) a named dataset.

    Generation is deterministic in (name, num_customers, seed); the cache
    makes a bench session generate each dataset once.
    """
    params = dataset_params(name, num_customers=num_customers)
    key = (params, seed)
    db = _CACHE.get(key)
    if db is None:
        db = generate_database(params, seed=seed)
        _CACHE[key] = db
    return db


def clear_cache() -> None:
    """Drop all cached datasets (tests use this to bound memory)."""
    _CACHE.clear()
