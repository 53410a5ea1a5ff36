"""Command-line interface: ``seqmine`` (or ``python -m repro``).

Subcommands:

* ``seqmine generate`` — write a synthetic dataset (SPMF or CSV).
* ``seqmine mine`` — run the five-phase miner over a dataset file
  (``--save-state`` makes the run updatable).
* ``seqmine append`` — add a delta (new customers, new transactions for
  existing customers) to a partitioned database without rewriting it.
* ``seqmine update`` — incremental re-mine from the saved state: count
  the retained frontier against the delta only (:mod:`repro.incremental`).
* ``seqmine resume`` — restart a checkpointed ``mine`` run
  (``mine --checkpoint-dir``) from its last durable counting pass,
  producing byte-identical output to an uninterrupted run.
* ``seqmine fsck`` — validate a partitioned-database directory and
  repair what is repairable (quarantine damaged delta generations,
  remove interrupted-write orphans and invalid caches).
* ``seqmine serve`` — run the pattern-serving HTTP service over a mined
  pattern file (:mod:`repro.serving`); ``POST /reload`` or ``SIGHUP``
  hot-swaps a freshly mined snapshot with zero downtime.
* ``seqmine query`` — one ``match``/``predict`` query, either against a
  local pattern file (in-process index) or a running server (``--url``).
* ``seqmine info`` — dataset statistics (paper Table 2 columns).
* ``seqmine experiment`` — regenerate a paper table/figure by id.

All subcommands exit 1 with a one-line ``error: ...`` on stderr for
anticipated failures (bad flags, missing/corrupt files) — never a
traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Any, Sequence as PySequence

from repro.analysis.compare import pattern_length_histogram
from repro.miner import ALL_ALGORITHM_NAMES, MiningParams, MiningResult, mine
from repro.core.counting import COUNTING_STRATEGIES
from repro.core.phase import CountingOptions
from repro.datagen.generator import generate_database, iter_customer_sequences
from repro.datagen.params import SyntheticParams
from repro.db.database import SequenceDatabase
from repro.db.partitioned import (
    MINING_STATE_NAME,
    PartitionedDatabase,
    partitions_for_budget_from_text,
    write_partitions_from_csv,
    write_partitions_from_spmf,
)
from repro.io.csvio import (
    database_to_transactions,
    read_database_csv,
    write_transactions_csv,
)
from repro.io.patterns import patterns_to_json, write_patterns
from repro.io.spmf import read_spmf, write_spmf

#: Partition count when ``--partition-dir`` is given without an explicit
#: ``--partitions`` or ``--max-memory-mb``.
DEFAULT_PARTITIONS = 8


def _fail(message: str) -> int:
    """The single CLI failure path: one ``error:`` line on stderr, exit 1.

    Command handlers never print errors or pick exit codes themselves —
    they raise ``ValueError``/``OSError`` and :func:`main` routes the
    message here. The ``cli-error-policy`` lint rule
    (``python -m tools.lint --explain cli-error-policy``) enforces this
    mechanically.
    """
    print(f"error: {message}", file=sys.stderr)
    return 1


def _load_database(path: str, fmt: str) -> SequenceDatabase:
    if fmt == "spmf":
        return read_spmf(path)
    if fmt == "csv":
        return read_database_csv(path)
    raise ValueError(f"unknown format {fmt!r}")


def _cmd_generate(args: argparse.Namespace) -> int:
    if (args.output is None) == (args.stream_out is None):
        raise ValueError(
            "exactly one of --output or --stream-out is required"
        )
    if args.stream_out is not None and args.format == "csv":
        raise ValueError(
            "--format csv has no effect with --stream-out "
            "(partitions are always binlog); drop the flag or use --output"
        )
    if args.stream_out is None and args.partitions is not None:
        raise ValueError("--partitions only applies to --stream-out")
    params = SyntheticParams.from_name(
        args.dataset, num_customers=args.customers
    )
    if args.stream_out is not None:
        # Out-of-core generation: customers stream straight into binlog
        # partitions; the whole dataset never exists in memory.
        if os.path.exists(os.path.join(args.stream_out, "manifest.json")):
            raise ValueError(
                f"{args.stream_out} already holds a partitioned database; "
                f"delete the directory to regenerate"
            )
        pdb = PartitionedDatabase.create(
            args.stream_out,
            iter_customer_sequences(params, seed=args.seed),
            partitions=(
                DEFAULT_PARTITIONS if args.partitions is None
                else args.partitions
            ),
        )
        stats = pdb.stats()
        print(
            f"wrote {args.stream_out}: {stats.num_customers} customers, "
            f"{stats.num_transactions} transactions in "
            f"{pdb.num_partitions} partitions "
            f"({stats.approx_size_mb:.2f} MB est., "
            f"{pdb.disk_bytes() / (1024 * 1024):.2f} MB on disk)"
        )
        return 0
    db = generate_database(params, seed=args.seed)
    if args.format == "spmf":
        write_spmf(db, args.output)
    else:
        write_transactions_csv(database_to_transactions(db), args.output)
    stats = db.stats()
    print(
        f"wrote {args.output}: {stats.num_customers} customers, "
        f"{stats.num_transactions} transactions "
        f"({stats.approx_size_mb:.2f} MB est.)"
    )
    return 0


def _resolve_mine_database(
    args: argparse.Namespace,
) -> SequenceDatabase | PartitionedDatabase:
    """The database a ``mine`` invocation runs over, per the flag rules.

    Without ``--partition-dir`` this is the in-memory path and ``--input``
    is required. With it, mining is out-of-core: an ``--input`` file is
    first streamed into partitions in that directory (count picked by
    ``--partitions``, by ``--max-memory-mb``, or a default) — refusing
    to clobber a directory that already holds a database — and without
    ``--input`` the directory must already hold one (whose partition
    count is then fixed, so the sizing flags are rejected). Flag misuse
    raises ``ValueError`` so the CLI exits with a one-line error rather
    than a traceback.
    """
    if args.partitions is not None and args.partitions < 1:
        raise ValueError(f"--partitions must be >= 1, got {args.partitions}")
    if args.partition_dir is None:
        for flag, value in (
            ("--partitions", args.partitions),
            ("--max-memory-mb", args.max_memory_mb),
        ):
            if value is not None:
                raise ValueError(f"{flag} requires --partition-dir")
        if args.input is None:
            raise ValueError(
                "--input is required (or pass --partition-dir pointing at "
                "an existing partitioned database)"
            )
        return _load_database(args.input, args.format)
    if args.partitions is not None and args.max_memory_mb is not None:
        raise ValueError(
            "--partitions and --max-memory-mb are mutually exclusive: "
            "the memory budget picks the partition count"
        )
    if args.input is None:
        # Reusing an existing database: its partition count is fixed, so
        # a sizing flag here would be silently dead — reject it instead.
        for flag, value in (
            ("--partitions", args.partitions),
            ("--max-memory-mb", args.max_memory_mb),
        ):
            if value is not None:
                raise ValueError(
                    f"{flag} has no effect when reusing an existing "
                    f"partitioned database (pass --input to re-convert)"
                )
        return PartitionedDatabase.open(args.partition_dir)
    if os.path.exists(os.path.join(args.partition_dir, "manifest.json")):
        if args.checkpoint_dir is not None:
            # A checkpointed convert-and-mine whose earlier attempt got
            # past the conversion: the manifest commit is atomic, so an
            # existing manifest means a complete database — reuse it.
            # Refusing here would make ``resume`` impossible for the
            # convert-then-mine invocation shape.
            return PartitionedDatabase.open(args.partition_dir)
        raise ValueError(
            f"{args.partition_dir} already holds a partitioned database; "
            f"mine it without --input to reuse it, or delete the "
            f"directory to re-convert"
        )
    if args.format == "csv" and args.max_memory_mb is not None:
        raise ValueError(
            "--max-memory-mb cannot be honored for --format csv: CSV rows "
            "are unsorted, so conversion sorts the whole dataset in memory "
            "first; use --partitions, or convert to SPMF"
        )
    if args.max_memory_mb is not None:
        partitions = partitions_for_budget_from_text(
            os.path.getsize(args.input), args.max_memory_mb
        )
    else:
        partitions = args.partitions or DEFAULT_PARTITIONS
    if args.format == "spmf":
        return write_partitions_from_spmf(
            args.input, args.partition_dir, partitions=partitions
        )
    return write_partitions_from_csv(
        args.input, args.partition_dir, partitions=partitions
    )


def _emit_patterns(result: MiningResult, args: argparse.Namespace) -> None:
    """Shared pattern output of ``mine`` and ``update``: a file, JSON on
    stdout, or one human-readable line per pattern."""
    if args.output:
        write_patterns(result.patterns, args.output)
        print(f"wrote {result.num_patterns} patterns to {args.output}",
              file=sys.stderr)
    elif args.json:
        print(patterns_to_json(result.patterns))
    else:
        for pattern in result.patterns:
            print(pattern)


#: Everything a ``mine`` run's outcome depends on, in one place: this is
#: what a checkpoint stores as its configuration, and what ``resume``
#: reconstructs the argument namespace from.
_MINE_CONFIG_KEYS = (
    "input", "format", "partition_dir", "partitions", "max_memory_mb",
    "minsup", "algorithm", "dynamic_step", "max_length", "strategy",
    "workers", "output", "json", "save_state",
)


#: The file and directory options of a ``mine`` run. A checkpoint stores
#: them as absolute paths, so ``resume`` reads and writes the same files
#: from any working directory.
_MINE_PATH_KEYS = ("input", "partition_dir", "output")


def _mine_run_config(args: argparse.Namespace) -> dict[str, Any]:
    config: dict[str, Any] = {
        key: getattr(args, key) for key in _MINE_CONFIG_KEYS
    }
    for key in _MINE_PATH_KEYS:
        if config[key] is not None:
            config[key] = os.path.abspath(config[key])
    config["command"] = "mine"
    return config


def _cmd_mine(args: argparse.Namespace) -> int:
    if args.algorithm == "prefixspan":
        # Pattern growth has no candidate counting passes, so the
        # counting-pass knobs would be silently dead — reject them
        # loudly instead (same policy as the partition sizing flags).
        if args.checkpoint_dir is not None:
            raise ValueError(
                "--checkpoint-dir does not apply to --algorithm "
                "prefixspan: pattern growth has no counting passes to "
                "checkpoint"
            )
        if args.strategy is not None:
            raise ValueError(
                "--strategy does not apply to --algorithm prefixspan: "
                "pattern growth never counts candidates"
            )
        if args.save_state:
            raise ValueError(
                "--save-state requires an apriori-family algorithm: "
                "prefixspan does not build incremental mining state"
            )
        if args.partition_dir is not None:
            raise ValueError(
                "--partition-dir does not apply to --algorithm prefixspan: "
                "pattern growth mines in memory only; use an "
                "apriori-family algorithm to mine out of core"
            )
    if args.save_state and args.partition_dir is None:
        raise ValueError(
            "--save-state requires --partition-dir: the snapshot is "
            "serialized next to the partition manifest"
        )
    # Parameters are validated before the checkpoint directory or the
    # partitions are written, so a bad value leaves nothing behind.
    params = MiningParams(
        minsup=args.minsup,
        algorithm=args.algorithm,
        dynamic_step=args.dynamic_step,
        max_pattern_length=args.max_length,
        workers=args.workers,
        counting=CountingOptions(
            # ``--strategy`` defaults to None so an *explicit* flag is
            # distinguishable from the default (prefixspan rejects the
            # former above); the counting engines see "hashtree" either
            # way.
            strategy=args.strategy if args.strategy is not None else "hashtree",
        ),
    )
    checkpoint = None
    if args.checkpoint_dir is not None:
        from repro.io.checkpoint import CheckpointStore

        checkpoint = CheckpointStore.attach(
            args.checkpoint_dir, _mine_run_config(args)
        )
        params = params.with_(
            counting=replace(params.counting, checkpoint=checkpoint)
        )
    db = _resolve_mine_database(args)
    result = mine(db, params, collect_state=args.save_state)
    print(result.summary(), file=sys.stderr)
    if checkpoint is not None:
        print(
            f"checkpoint {checkpoint.directory}: replayed "
            f"{checkpoint.num_replayed} recorded passes, counted and "
            f"recorded {checkpoint.num_recorded} new",
            file=sys.stderr,
        )
    if args.save_state:
        from repro.io.state import write_mining_state

        state_path = os.path.join(args.partition_dir, MINING_STATE_NAME)
        write_mining_state(result.state, state_path)
        print(
            f"saved mining state to {state_path} "
            f"({len(result.state.sequence_counts)} cached sequence counts, "
            f"{result.state.num_border_sequences()} on the border)",
            file=sys.stderr,
        )
    _emit_patterns(result, args)
    return 0


def _cmd_append(args: argparse.Namespace) -> int:
    from repro.db.database import CustomerSequence

    db = PartitionedDatabase.open(args.partition_dir)
    if args.format == "spmf":
        # SPMF has no customer column (ids are assigned 1..n per file),
        # so every SPMF row is a NEW customer: renumber past the current
        # maximum. Overlays need explicit ids — use --format csv.
        from repro.io.spmf import iter_spmf

        offset = db.max_customer_id()
        customers = (
            CustomerSequence(
                customer_id=customer.customer_id + offset,
                events=customer.events,
            )
            for customer in iter_spmf(args.input)
        )
    else:
        customers = iter(read_database_csv(args.input))
    entry = db.append_delta(customers, partitions=args.partitions)
    print(
        f"appended generation {entry['generation']}: "
        f"{entry['num_new_customers']} new customers, "
        f"{entry['num_overlay_customers']} overlay records; "
        f"database now holds {db.num_customers} customers"
    )
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    from repro.incremental import update_mining
    from repro.io.state import read_mining_state, write_mining_state

    db = PartitionedDatabase.open(args.partition_dir)
    state_path = os.path.join(args.partition_dir, MINING_STATE_NAME)
    state = read_mining_state(state_path)
    if args.minsup is not None and abs(args.minsup - state.minsup) > 1e-12:
        raise ValueError(
            f"--minsup {args.minsup} does not match the snapshot's minsup "
            f"{state.minsup}: an incremental update keeps the snapshot's "
            f"threshold semantics (re-mine with --save-state to change it)"
        )
    outcome = update_mining(db, state, strategy=args.strategy)
    print(outcome.result.summary(), file=sys.stderr)
    print(outcome.update_stats.summary(), file=sys.stderr)
    write_mining_state(outcome.state, state_path)
    print(f"updated mining state at {state_path} "
          f"(generation {outcome.state.generation})", file=sys.stderr)
    _emit_patterns(outcome.result, args)
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.io.checkpoint import CheckpointStore

    config = CheckpointStore.read_config(args.checkpoint_dir)
    missing = [key for key in _MINE_CONFIG_KEYS if key not in config]
    if config.get("command") != "mine" or missing:
        raise ValueError(
            f"{args.checkpoint_dir}: checkpoint does not describe a "
            f"resumable 'mine' run"
        )
    unknown = sorted(set(config) - set(_MINE_CONFIG_KEYS) - {"command"})
    if unknown:
        # Written by a version with options this one lacks (such as a
        # retired sharding knob): the run it describes cannot be
        # reconstructed, so its passes are not replayed.
        raise ValueError(
            f"{args.checkpoint_dir}: checkpoint records options this "
            f"version does not have ({', '.join(unknown)}); start again "
            f"with a fresh --checkpoint-dir"
        )
    relative = [
        "--" + key.replace("_", "-")
        for key in _MINE_PATH_KEYS
        if config[key] is not None and not os.path.isabs(config[key])
    ]
    if relative:
        # Written by a version that stored paths as typed: they resolve
        # against an unknown working directory, and the passes whose
        # identity is the whole database would replay against whatever
        # file they now name, so the run is not resumed.
        raise ValueError(
            f"{args.checkpoint_dir}: checkpoint records relative paths "
            f"({', '.join(relative)}); start again with a fresh "
            f"--checkpoint-dir"
        )
    mine_args = argparse.Namespace(
        **{key: config[key] for key in _MINE_CONFIG_KEYS},
        checkpoint_dir=args.checkpoint_dir,
    )
    return _cmd_mine(mine_args)


def _cmd_fsck(args: argparse.Namespace) -> int:
    from repro.db.fsck import fsck_directory

    report = fsck_directory(args.directory)
    for line in report.lines():
        print(line)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serving.server import PatternServer

    server = PatternServer(args.patterns, host=args.host, port=args.port)

    async def run() -> None:
        await server.start()
        snapshot = server.snapshot
        print(
            f"serving {snapshot.num_patterns} patterns "
            f"(generation {snapshot.generation}) on {server.address} — "
            f"hot-swap with 'POST /reload' or SIGHUP after re-mining "
            f"{args.patterns}",
            file=sys.stderr,
        )
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def _render_query_payload(payload: dict[str, Any], args: argparse.Namespace) -> None:
    """Human/JSON rendering shared by the local and --url query paths."""
    import json as _json

    if args.json:
        print(_json.dumps(payload, indent=2))
        return
    generation = payload.get("generation")
    if generation is not None:
        print(f"generation {generation}", file=sys.stderr)
    if args.predict is not None:
        for entry in payload["predictions"]:
            event = "(" + " ".join(str(i) for i in entry["event"]) + ")"
            print(
                f"{event}  (support {entry['support']:.2%}, "
                f"{entry['count']} customers)"
            )
    else:
        for entry in payload["patterns"]:
            print(
                f"{entry['pattern']}  (support {entry['support']:.2%}, "
                f"{entry['count']} customers)"
            )


def _cmd_query(args: argparse.Namespace) -> int:
    if (args.patterns is None) == (args.url is None):
        raise ValueError("exactly one of --patterns or --url is required")
    if args.predict is not None and args.predict < 0:
        raise ValueError(f"--predict must be >= 0, got {args.predict}")
    if args.url is not None:
        from repro.serving import client

        if args.predict is not None:
            payload = client.predict(args.url, args.seq, args.predict)
        else:
            payload = client.match(args.url, args.seq)
    else:
        from repro.serving.index import (
            PatternIndex,
            parse_query,
            pattern_payload,
            prediction_payload,
        )

        index = PatternIndex.from_file(args.patterns)
        events = parse_query(args.seq)
        if args.predict is not None:
            payload = {
                "predictions": [
                    prediction_payload(p)
                    for p in index.predict_next(events, args.predict)
                ]
            }
        else:
            matched = index.match(events)
            payload = {
                "num_matched": len(matched),
                "patterns": [pattern_payload(p) for p in matched],
            }
    _render_query_payload(payload, args)
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    db = _load_database(args.input, args.format)
    for key, value in db.stats().as_row().items():
        print(f"{key}: {value}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.figures import EXPERIMENTS

    if args.list or not args.experiment_id:
        for experiment_id in EXPERIMENTS:
            print(experiment_id)
        return 0
    builder = EXPERIMENTS.get(args.experiment_id)
    if builder is None:
        raise ValueError(
            f"unknown experiment {args.experiment_id!r}; use --list"
        )
    result = builder()
    print(result.render(chart=not args.no_chart))
    if result.disagreements:
        # The figure is printed first, so the disagreeing rows stay
        # visible above the error line.
        raise ValueError(
            f"experiment {args.experiment_id}: {result.disagreements[0]}"
        )
    return 0


def _cmd_histogram(args: argparse.Namespace) -> int:
    db = _load_database(args.input, args.format)
    result = mine(db, MiningParams(minsup=args.minsup))
    for length, count in pattern_length_histogram(result).items():
        print(f"length {length}: {count} maximal patterns")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqmine",
        description="Mining Sequential Patterns (Agrawal & Srikant, ICDE 1995) "
        "— AprioriAll / AprioriSome / DynamicSome / PrefixSpan",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("--dataset", default="C10-T2.5-S4-I1.25",
                     help="paper-style name, e.g. C10-T2.5-S4-I1.25")
    gen.add_argument("--customers", type=int, default=SyntheticParams().num_customers)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--format", choices=("spmf", "csv"), default="spmf")
    gen.add_argument("--output", default=None,
                     help="output file (SPMF or CSV per --format)")
    gen.add_argument("--stream-out", default=None, metavar="DIR",
                     help="stream customers straight into a partitioned "
                     "binlog database in DIR (never holds the dataset in "
                     "memory; mutually exclusive with --output)")
    gen.add_argument("--partitions", type=int, default=None,
                     help="partition count for --stream-out "
                     f"(default {DEFAULT_PARTITIONS}); rejected with "
                     "--output, where it would be silently dead")
    gen.set_defaults(func=_cmd_generate)

    mine_cmd = sub.add_parser("mine", help="mine sequential patterns from a file")
    mine_cmd.add_argument("--input", default=None,
                          help="dataset file; optional when --partition-dir "
                          "names an existing partitioned database")
    mine_cmd.add_argument("--format", choices=("spmf", "csv"), default="spmf")
    mine_cmd.add_argument("--partition-dir", default=None, metavar="DIR",
                          help="mine out-of-core: stream --input into disk "
                          "partitions in DIR first (or reuse the "
                          "partitioned database already there), then count "
                          "one partition at a time. Apriori-family "
                          "algorithms only: --algorithm prefixspan mines "
                          "in memory")
    mine_cmd.add_argument("--partitions", type=int, default=None,
                          help="partition count when converting --input "
                          f"(default {DEFAULT_PARTITIONS}; requires "
                          "--partition-dir)")
    mine_cmd.add_argument("--max-memory-mb", type=float, default=None,
                          help="per-pass memory budget; picks the partition "
                          "count so one resident partition fits the budget "
                          "(requires --partition-dir, excludes --partitions)")
    mine_cmd.add_argument("--minsup", type=float, required=True,
                          help="minimum support as a fraction, e.g. 0.01")
    mine_cmd.add_argument("--algorithm", choices=ALL_ALGORITHM_NAMES,
                          default="aprioriall")
    mine_cmd.add_argument("--dynamic-step", type=int, default=2)
    mine_cmd.add_argument("--max-length", type=int, default=None)
    mine_cmd.add_argument("--strategy",
                          choices=COUNTING_STRATEGIES,
                          default=None,
                          help="support-counting backend (default "
                          "hashtree): the paper's candidate hash tree, "
                          "or the vertical id-list format (invert once, "
                          "count each candidate by joining its prefix's "
                          "support list with its last id's list — no "
                          "database scan). "
                          "Does not apply to --algorithm prefixspan, "
                          "which never counts candidates")
    mine_cmd.add_argument("--workers", type=int, default=1,
                          help="seed-growth processes for --algorithm "
                          "prefixspan (1 = serial, 0 = all CPUs); the "
                          "apriori-family algorithms count serially and "
                          "reject any other value")
    mine_cmd.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                          help="record each completed counting pass "
                          "durably in DIR; after a crash, 'seqmine "
                          "resume --checkpoint-dir DIR' restarts from "
                          "the last durable pass and produces "
                          "byte-identical output")
    mine_cmd.add_argument("--output", default=None,
                          help="write patterns to this file instead of stdout")
    mine_cmd.add_argument("--json", action="store_true",
                          help="print patterns as JSON")
    mine_cmd.add_argument("--save-state", action="store_true",
                          help="serialize the run's incremental-mining "
                          "snapshot (large sets + negative border with "
                          "exact supports) next to the partition "
                          "manifest, making the result updatable with "
                          "'seqmine append' + 'seqmine update' "
                          "(requires --partition-dir)")
    mine_cmd.set_defaults(func=_cmd_mine)

    append_cmd = sub.add_parser(
        "append",
        help="append a delta to a partitioned database (no rewrite)")
    append_cmd.add_argument("--partition-dir", required=True, metavar="DIR",
                            help="directory holding the partitioned database")
    append_cmd.add_argument("--input", required=True,
                            help="delta dataset file. SPMF rows (no "
                            "customer column) are always appended as new "
                            "customers. CSV rows carry customer_id: ids "
                            "above the database's current maximum are "
                            "new customers, ids at or below it add "
                            "later transactions to that existing "
                            "customer (an overlay)")
    append_cmd.add_argument("--format", choices=("spmf", "csv"),
                            default="spmf")
    append_cmd.add_argument("--partitions", type=int, default=1,
                            help="binlog partitions for the delta's new "
                            "customers (default 1; deltas are small)")
    append_cmd.set_defaults(func=_cmd_append)

    update_cmd = sub.add_parser(
        "update",
        help="incrementally re-mine after 'append', from the saved state")
    update_cmd.add_argument("--partition-dir", required=True, metavar="DIR",
                            help="directory holding the partitioned "
                            "database and its mining_state.json (from "
                            "'seqmine mine --save-state')")
    update_cmd.add_argument("--minsup", type=float, default=None,
                            help="optional cross-check: must equal the "
                            "snapshot's minsup (the update keeps the "
                            "snapshot's threshold semantics)")
    update_cmd.add_argument("--strategy",
                            choices=COUNTING_STRATEGIES,
                            default="hashtree",
                            help="counting backend for the delta passes "
                            "(independent of what the snapshot run used)")
    update_cmd.add_argument("--output", default=None,
                            help="write patterns to this file instead of "
                            "stdout")
    update_cmd.add_argument("--json", action="store_true",
                            help="print patterns as JSON")
    update_cmd.set_defaults(func=_cmd_update)

    resume_cmd = sub.add_parser(
        "resume",
        help="restart an interrupted 'mine --checkpoint-dir' run from "
        "its last durable counting pass")
    resume_cmd.add_argument("--checkpoint-dir", required=True, metavar="DIR",
                            help="checkpoint directory of the "
                            "interrupted run; the full mine "
                            "configuration is restored from it")
    resume_cmd.set_defaults(func=_cmd_resume)

    fsck_cmd = sub.add_parser(
        "fsck",
        help="validate a partitioned-database directory and repair "
        "what is repairable")
    fsck_cmd.add_argument("directory",
                          help="directory holding the partitioned "
                          "database; damaged delta generations are "
                          "quarantined (*.quarantined), interrupted "
                          "writes and invalid caches removed")
    fsck_cmd.set_defaults(func=_cmd_fsck)

    serve_cmd = sub.add_parser(
        "serve",
        help="serve match/predict queries over a mined pattern file")
    serve_cmd.add_argument("--patterns", required=True,
                           help="pattern file from 'seqmine mine --output' "
                           "(versioned header required); re-mine it and "
                           "POST /reload (or SIGHUP) to hot-swap")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8765,
                           help="listening port (default 8765; 0 picks a "
                           "free port, printed on startup)")
    serve_cmd.set_defaults(func=_cmd_serve)

    query_cmd = sub.add_parser(
        "query",
        help="one match/predict query against a pattern file or server")
    query_cmd.add_argument("--patterns", default=None,
                           help="query an in-process index built from this "
                           "pattern file (mutually exclusive with --url)")
    query_cmd.add_argument("--url", default=None,
                           help="query a running 'seqmine serve' instance, "
                           "e.g. http://127.0.0.1:8765")
    query_cmd.add_argument("--seq", required=True,
                           help="the customer history in the paper's "
                           "notation, e.g. '<(30)(40 70)>'; '<>' is the "
                           "empty history")
    query_cmd.add_argument("--predict", type=int, default=None, metavar="K",
                           help="rank the top K next-event candidates "
                           "instead of listing matched patterns")
    query_cmd.add_argument("--json", action="store_true",
                           help="print the full JSON payload")
    query_cmd.set_defaults(func=_cmd_query)

    info = sub.add_parser("info", help="print dataset statistics")
    info.add_argument("--input", required=True)
    info.add_argument("--format", choices=("spmf", "csv"), default="spmf")
    info.set_defaults(func=_cmd_info)

    hist = sub.add_parser("histogram", help="pattern-length histogram")
    hist.add_argument("--input", required=True)
    hist.add_argument("--format", choices=("spmf", "csv"), default="spmf")
    hist.add_argument("--minsup", type=float, required=True)
    hist.set_defaults(func=_cmd_histogram)

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("experiment_id", nargs="?", default=None)
    exp.add_argument("--list", action="store_true", help="list experiment ids")
    exp.add_argument("--no-chart", action="store_true")
    exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: PySequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except (ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
