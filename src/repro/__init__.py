"""repro — a reproduction of "Mining Sequential Patterns" (ICDE 1995).

Agrawal & Srikant's paper defined the sequential-pattern-mining problem
and gave three algorithms for it: **AprioriAll**, **AprioriSome**, and
**DynamicSome**, all built on a five-phase pipeline (sort → litemset →
transformation → sequence → maximal). This package implements the full
pipeline, the three algorithms, the paper's synthetic data generator, a
brute-force oracle, and the experiment harness that regenerates the
paper's evaluation figures — plus the production-minded layers grown on
top: pluggable counting backends (:mod:`repro.core.counting`), sharded
parallel pattern growth (:mod:`repro.parallel`), out-of-core partitioned
storage (:mod:`repro.db.partitioned`), GSP-style time constraints
(:mod:`repro.extensions.timeconstraints`), incremental mining over
appended deltas (:mod:`repro.incremental`), and a pattern-growth
engine — PrefixSpan with pseudo-projection, mining in memory
(:mod:`repro.core.prefixspan`) — as a fourth algorithm whose output is
byte-identical to the candidate family's, and a pattern-serving tier
(:mod:`repro.serving`) that answers indexed match/predict queries over
mined patterns behind a hot-swappable asyncio HTTP server.

Quickstart::

    from repro import SequenceDatabase, mine_sequential_patterns

    db = SequenceDatabase.from_sequences([
        [(30,), (90,)],
        [(10, 20), (30,), (40, 60, 70)],
        [(30, 50, 70)],
        [(30,), (40, 70), (90,)],
        [(90,)],
    ])
    result = mine_sequential_patterns(db, minsup=0.25)
    for pattern in result.patterns:
        print(pattern)

The curated names below are the stable import surface
(``docs/API.md`` documents them); everything else is internal and may
move between versions.
"""

from repro.core.apriorisome import NextLengthPolicy
from repro.core.prefixspan import PrefixSpanResult, mine_prefixspan
from repro.miner import (
    ALGORITHM_NAMES,
    ALL_ALGORITHM_NAMES,
    AlgorithmName,
    MiningParams,
    MiningResult,
    Pattern,
    mine,
    mine_from_transactions,
    mine_sequential_patterns,
)
from repro.core.phase import CountingOptions
from repro.core.sequence import (
    Itemset,
    Sequence,
    format_sequence,
    make_itemset,
    parse_sequence,
)
from repro.datagen.generator import generate_database, iter_customer_sequences
from repro.datagen.params import SyntheticParams
from repro.db.database import CustomerSequence, SequenceDatabase, support_threshold
from repro.db.partitioned import PartitionedDatabase
from repro.db.records import Transaction
from repro.incremental import MiningState, UpdateOutcome, update_mining
from repro.serving import PatternIndex, PatternServer

__version__ = "1.1.0"

__all__ = [
    "ALGORITHM_NAMES",
    "ALL_ALGORITHM_NAMES",
    "AlgorithmName",
    "CountingOptions",
    "CustomerSequence",
    "Itemset",
    "MiningParams",
    "MiningResult",
    "MiningState",
    "NextLengthPolicy",
    "PartitionedDatabase",
    "Pattern",
    "PatternIndex",
    "PatternServer",
    "PrefixSpanResult",
    "Sequence",
    "SequenceDatabase",
    "SyntheticParams",
    "Transaction",
    "UpdateOutcome",
    "__version__",
    "format_sequence",
    "generate_database",
    "iter_customer_sequences",
    "make_itemset",
    "mine",
    "mine_from_transactions",
    "mine_prefixspan",
    "mine_sequential_patterns",
    "parse_sequence",
    "support_threshold",
    "update_mining",
]
