"""End-to-end tests of the seqmine CLI."""

import json

import pytest

from repro.cli import main
from repro.core.counting import COUNTING_STRATEGIES
from repro.io.patterns import read_patterns
from repro.io.spmf import read_spmf, write_spmf
from tests.test_database import paper_db


@pytest.fixture()
def paper_spmf(tmp_path):
    path = tmp_path / "paper.spmf"
    write_spmf(paper_db(), path)
    return path


class TestGenerate:
    def test_generate_spmf(self, tmp_path, capsys):
        out = tmp_path / "data.spmf"
        code = main([
            "generate", "--dataset", "C10-T2.5-S4-I1.25",
            "--customers", "30", "--seed", "5", "--output", str(out),
        ])
        assert code == 0
        assert "30 customers" in capsys.readouterr().out
        db = read_spmf(out)
        assert db.num_customers == 30

    def test_generate_csv(self, tmp_path):
        out = tmp_path / "data.csv"
        code = main([
            "generate", "--customers", "10", "--format", "csv",
            "--output", str(out),
        ])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "customer_id,transaction_time,items"

    def test_generate_bad_dataset_name(self, tmp_path):
        code = main([
            "generate", "--dataset", "bogus", "--output",
            str(tmp_path / "x.spmf"),
        ])
        assert code == 1

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.spmf", tmp_path / "b.spmf"
        for out in (a, b):
            assert main([
                "generate", "--customers", "15", "--seed", "9",
                "--output", str(out),
            ]) == 0
        assert a.read_text() == b.read_text()


class TestMine:
    def test_mine_stdout(self, paper_spmf, capsys):
        code = main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "<(30)(90)>" in out
        assert "<(30)(40 70)>" in out

    @pytest.mark.parametrize("strategy", COUNTING_STRATEGIES)
    def test_mine_strategy_flag(self, paper_spmf, capsys, strategy):
        code = main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--strategy", strategy,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "<(30)(90)>" in out
        assert "<(30)(40 70)>" in out

    def test_mine_unknown_strategy_rejected(self, paper_spmf):
        with pytest.raises(SystemExit):
            main([
                "mine", "--input", str(paper_spmf), "--minsup", "0.25",
                "--strategy", "bogus",
            ])

    @pytest.mark.parametrize("strategy", ["naive", "bitset"])
    def test_mine_retired_strategy_rejected(self, paper_spmf, capsys, strategy):
        """The retired backends are argparse choice errors like any other
        unknown name."""
        with pytest.raises(SystemExit) as excinfo:
            main([
                "mine", "--input", str(paper_spmf), "--minsup", "0.25",
                "--strategy", strategy,
            ])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{strategy}'" in capsys.readouterr().err

    def test_mine_to_file(self, paper_spmf, tmp_path):
        out = tmp_path / "patterns.txt"
        code = main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--algorithm", "apriorisome", "--output", str(out),
        ])
        assert code == 0
        patterns = read_patterns(out)
        assert [str(p.sequence) for p in patterns] == [
            "<(30)(40 70)>",
            "<(30)(90)>",
        ]

    def test_mine_json(self, paper_spmf, capsys):
        code = main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25", "--json",
        ])
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert len(parsed) == 2

    def test_mine_csv_input(self, tmp_path):
        csv_path = tmp_path / "txns.csv"
        csv_path.write_text(
            "customer_id,transaction_time,items\n"
            "1,1,30\n1,2,90\n2,1,30\n2,2,90\n"
        )
        code = main([
            "mine", "--input", str(csv_path), "--format", "csv",
            "--minsup", "1.0",
        ])
        assert code == 0

    def test_mine_missing_file(self, tmp_path):
        code = main([
            "mine", "--input", str(tmp_path / "nope.spmf"), "--minsup", "0.5",
        ])
        assert code == 1

    def test_mine_bad_minsup(self, paper_spmf):
        code = main(["mine", "--input", str(paper_spmf), "--minsup", "7"])
        assert code == 1


class TestMinePrefixSpan:
    def test_mine_prefixspan_matches_aprioriall(self, paper_spmf, capsys):
        outputs = []
        for algorithm in ("aprioriall", "prefixspan"):
            code = main([
                "mine", "--input", str(paper_spmf), "--minsup", "0.25",
                "--algorithm", algorithm,
            ])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "<(30)(90)>" in outputs[1]

    def test_mine_prefixspan_partitioned_and_parallel(
        self, paper_spmf, tmp_path, capsys
    ):
        """``--workers 2`` shards the seeds in memory. ``--partition-dir``
        is refused before anything is written: an absent directory is
        not created and an existing database is left as it was."""
        code = main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--algorithm", "prefixspan", "--workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "<(30)(90)>" in out
        assert "<(30)(40 70)>" in out

        absent = tmp_path / "absent"
        code = main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--algorithm", "prefixspan",
            "--partition-dir", str(absent), "--partitions", "2",
        ])
        self._assert_one_line_error(capsys, code, "--partition-dir")
        assert not absent.exists()

        existing = tmp_path / "parts"
        assert main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--partition-dir", str(existing),
        ]) == 0
        capsys.readouterr()
        before = {
            path: path.read_bytes() for path in existing.rglob("*")
            if path.is_file()
        }
        code = main([
            "mine", "--partition-dir", str(existing), "--minsup", "0.25",
            "--algorithm", "prefixspan",
        ])
        self._assert_one_line_error(capsys, code, "--partition-dir")
        assert {
            path: path.read_bytes() for path in existing.rglob("*")
            if path.is_file()
        } == before

    def _assert_one_line_error(self, capsys, code, needle):
        assert code == 1
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error: ")
        assert needle in err_lines[0]

    def test_checkpoint_dir_rejected(self, paper_spmf, tmp_path, capsys):
        """Pattern growth has no counting passes to checkpoint; the flag
        must fail fast (one-line stderr, exit 1), not silently no-op —
        and must not create the checkpoint directory."""
        ckpt = tmp_path / "ckpt"
        code = main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--algorithm", "prefixspan", "--checkpoint-dir", str(ckpt),
        ])
        self._assert_one_line_error(capsys, code, "--checkpoint-dir")
        assert not ckpt.exists()

    @pytest.mark.parametrize("strategy", COUNTING_STRATEGIES)
    def test_explicit_strategy_rejected(self, paper_spmf, capsys, strategy):
        """Any explicit --strategy is dead with prefixspan — even the
        default name, because the flag's presence signals an intent the
        engine cannot honor."""
        code = main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--algorithm", "prefixspan", "--strategy", strategy,
        ])
        self._assert_one_line_error(capsys, code, "--strategy")

    def test_save_state_rejected(self, paper_spmf, tmp_path, capsys):
        code = main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--algorithm", "prefixspan",
            "--partition-dir", str(tmp_path / "parts"),
            "--save-state",
        ])
        self._assert_one_line_error(capsys, code, "--save-state")

    def test_resume_roundtrip_with_default_strategy(
        self, paper_spmf, tmp_path, capsys
    ):
        """--strategy now defaults to None (the prefixspan sentinel);
        the checkpoint config must round-trip through resume unchanged
        for the apriori family."""
        ckpt = tmp_path / "ckpt"
        code = main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--checkpoint-dir", str(ckpt),
        ])
        assert code == 0
        first = capsys.readouterr().out
        code = main(["resume", "--checkpoint-dir", str(ckpt)])
        assert code == 0
        assert capsys.readouterr().out == first


class TestMinePartitioned:
    def test_mine_with_partition_dir_matches_in_memory(
        self, paper_spmf, tmp_path, capsys
    ):
        code = main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--partition-dir", str(tmp_path / "parts"), "--partitions", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "<(30)(90)>" in out
        assert "<(30)(40 70)>" in out

    def test_mine_reuses_existing_partition_dir(
        self, paper_spmf, tmp_path, capsys
    ):
        parts = tmp_path / "parts"
        assert main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--partition-dir", str(parts),
        ]) == 0
        capsys.readouterr()
        code = main([
            "mine", "--minsup", "0.25", "--partition-dir", str(parts),
            "--strategy", "vertical",
        ])
        assert code == 0
        assert "<(30)(90)>" in capsys.readouterr().out

    def test_mine_max_memory_mb(self, paper_spmf, tmp_path, capsys):
        code = main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--partition-dir", str(tmp_path / "parts"),
            "--max-memory-mb", "64",
        ])
        assert code == 0
        assert "<(30)(90)>" in capsys.readouterr().out

    def test_generate_stream_out_then_mine(self, tmp_path, capsys):
        parts = tmp_path / "parts"
        assert main([
            "generate", "--customers", "40", "--seed", "5",
            "--stream-out", str(parts), "--partitions", "3",
        ]) == 0
        assert "40 customers" in capsys.readouterr().out
        assert main([
            "mine", "--minsup", "0.2", "--partition-dir", str(parts),
        ]) == 0

    def test_stream_out_matches_output_generation(self, tmp_path, capsys):
        """--stream-out and --output produce the same customers."""
        from repro.db.partitioned import PartitionedDatabase
        from repro.io.spmf import iter_spmf_lines

        spmf = tmp_path / "d.spmf"
        parts = tmp_path / "parts"
        for argv in (
            ["generate", "--customers", "25", "--seed", "9",
             "--output", str(spmf)],
            ["generate", "--customers", "25", "--seed", "9",
             "--stream-out", str(parts), "--partitions", "4"],
        ):
            assert main(argv) == 0
        pdb = PartitionedDatabase.open(parts)
        streamed = "".join(line + "\n" for line in iter_spmf_lines(pdb))
        assert streamed == spmf.read_text()


def one_line_error(capsys) -> str:
    """The CLI error contract: one stderr line, no traceback."""
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if line]
    assert len(lines) == 1, captured.err
    assert "Traceback" not in captured.err
    return lines[0]


class TestCliErrorPaths:
    def test_unknown_strategy_exits_nonzero_with_message(
        self, paper_spmf, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "mine", "--input", str(paper_spmf), "--minsup", "0.25",
                "--strategy", "bogus",
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert "Traceback" not in err

    def test_partitions_zero(self, paper_spmf, tmp_path, capsys):
        code = main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--partition-dir", str(tmp_path / "p"), "--partitions", "0",
        ])
        assert code == 1
        assert "--partitions must be >= 1" in one_line_error(capsys)

    @pytest.mark.parametrize("length", ["0", "-1"])
    def test_max_length_below_one(self, paper_spmf, tmp_path, capsys, length):
        """A cap below 1 fails before the checkpoint directory or the
        partitions are written."""
        code = main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--max-length", length,
            "--partition-dir", str(tmp_path / "p"),
            "--checkpoint-dir", str(tmp_path / "ckpt"),
        ])
        assert code == 1
        message = one_line_error(capsys)
        assert message.startswith("error:")
        assert "max_pattern_length must be >= 1" in message
        assert not (tmp_path / "p").exists()
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("workers", ["0", "2"])
    def test_workers_with_apriori_family_rejected(
        self, paper_spmf, tmp_path, capsys, workers
    ):
        """The apriori family counts serially: ``--workers`` other than 1
        fails with one error line before the partitions or the
        checkpoint directory are written."""
        code = main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--algorithm", "aprioriall", "--workers", workers,
            "--partition-dir", str(tmp_path / "p"),
            "--checkpoint-dir", str(tmp_path / "ckpt"),
        ])
        assert code == 1
        assert "applies to prefixspan only" in one_line_error(capsys)
        assert not (tmp_path / "p").exists()
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["mine", "--minsup", "0.25", "--chunk-size", "2"],
            ["update", "--workers", "2"],
            ["update", "--chunk-size", "2"],
        ],
    )
    def test_retired_sharding_flags_are_unknown(
        self, paper_spmf, tmp_path, capsys, argv
    ):
        """The sharding flags the serial passes no longer read are
        argparse errors, not silently ignored options."""
        where = (
            ["--input", str(paper_spmf)] if argv[0] == "mine"
            else ["--partition-dir", str(tmp_path / "p")]
        )
        with pytest.raises(SystemExit) as excinfo:
            main(argv[:1] + where + argv[1:])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_partitions_without_partition_dir(self, paper_spmf, capsys):
        code = main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--partitions", "2",
        ])
        assert code == 1
        assert "--partitions requires --partition-dir" in one_line_error(capsys)

    def test_max_memory_without_partition_dir(self, paper_spmf, capsys):
        code = main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--max-memory-mb", "32",
        ])
        assert code == 1
        assert "--max-memory-mb requires --partition-dir" in one_line_error(
            capsys
        )

    def test_partitions_and_max_memory_conflict(
        self, paper_spmf, tmp_path, capsys
    ):
        code = main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--partition-dir", str(tmp_path / "p"),
            "--partitions", "2", "--max-memory-mb", "32",
        ])
        assert code == 1
        assert "mutually exclusive" in one_line_error(capsys)

    def test_missing_input_and_partition_dir(self, capsys):
        code = main(["mine", "--minsup", "0.25"])
        assert code == 1
        assert "--input is required" in one_line_error(capsys)

    def test_partition_dir_without_database(self, tmp_path, capsys):
        code = main([
            "mine", "--minsup", "0.25", "--partition-dir", str(tmp_path),
        ])
        assert code == 1
        assert "missing manifest.json" in one_line_error(capsys)

    def test_zero_max_memory(self, paper_spmf, tmp_path, capsys):
        code = main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--partition-dir", str(tmp_path / "p"), "--max-memory-mb", "0",
        ])
        assert code == 1
        assert "max-memory-mb must be > 0" in one_line_error(capsys)

    def test_generate_output_and_stream_out_conflict(self, tmp_path, capsys):
        code = main([
            "generate", "--customers", "5",
            "--output", str(tmp_path / "d.spmf"),
            "--stream-out", str(tmp_path / "parts"),
        ])
        assert code == 1
        assert "exactly one of --output or --stream-out" in one_line_error(
            capsys
        )

    def test_generate_neither_output_nor_stream_out(self, capsys):
        code = main(["generate", "--customers", "5"])
        assert code == 1
        assert "exactly one of --output or --stream-out" in one_line_error(
            capsys
        )

    def test_generate_stream_out_partitions_zero(self, tmp_path, capsys):
        code = main([
            "generate", "--customers", "5",
            "--stream-out", str(tmp_path / "parts"), "--partitions", "0",
        ])
        assert code == 1
        assert "partitions must be >= 1" in one_line_error(capsys)

    def test_convert_refuses_to_clobber_existing_database(
        self, paper_spmf, tmp_path, capsys
    ):
        parts = tmp_path / "parts"
        assert main([
            "generate", "--customers", "20", "--stream-out", str(parts),
        ]) == 0
        capsys.readouterr()
        code = main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--partition-dir", str(parts),
        ])
        assert code == 1
        assert "already holds a partitioned database" in one_line_error(capsys)

    def test_sizing_flags_rejected_when_reusing_existing(
        self, paper_spmf, tmp_path, capsys
    ):
        parts = tmp_path / "parts"
        assert main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--partition-dir", str(parts), "--partitions", "2",
        ]) == 0
        capsys.readouterr()
        for flag in (["--partitions", "5"], ["--max-memory-mb", "16"]):
            code = main([
                "mine", "--minsup", "0.25", "--partition-dir", str(parts),
                *flag,
            ])
            assert code == 1
            assert "has no effect when reusing" in one_line_error(capsys)

    def test_csv_conversion_rejects_memory_budget(self, tmp_path, capsys):
        csv_path = tmp_path / "txns.csv"
        csv_path.write_text(
            "customer_id,transaction_time,items\n1,1,30\n1,2,90\n"
        )
        code = main([
            "mine", "--input", str(csv_path), "--format", "csv",
            "--minsup", "1.0", "--partition-dir", str(tmp_path / "p"),
            "--max-memory-mb", "16",
        ])
        assert code == 1
        assert "cannot be honored for --format csv" in one_line_error(capsys)

    def test_generate_partitions_rejected_without_stream_out(
        self, tmp_path, capsys
    ):
        code = main([
            "generate", "--customers", "5", "--partitions", "4",
            "--output", str(tmp_path / "d.spmf"),
        ])
        assert code == 1
        assert "--partitions only applies to --stream-out" in one_line_error(
            capsys
        )

    def test_generate_stream_out_rejects_csv_format(self, tmp_path, capsys):
        code = main([
            "generate", "--customers", "5", "--format", "csv",
            "--stream-out", str(tmp_path / "parts"),
        ])
        assert code == 1
        assert "--format csv has no effect" in one_line_error(capsys)

    def test_corrupt_partition_file_reported(self, tmp_path, capsys):
        parts = tmp_path / "parts"
        assert main([
            "generate", "--customers", "10", "--stream-out", str(parts),
            "--partitions", "2",
        ]) == 0
        capsys.readouterr()
        victim = parts / "part-00000.binlog"
        victim.write_bytes(victim.read_bytes()[:-4])
        code = main(["mine", "--minsup", "0.5", "--partition-dir", str(parts)])
        assert code == 1
        message = one_line_error(capsys)
        assert "part-00000.binlog" in message
        assert "offset" in message


class TestInfoAndHistogram:
    def test_info(self, paper_spmf, capsys):
        assert main(["info", "--input", str(paper_spmf)]) == 0
        out = capsys.readouterr().out
        assert "customers: 5" in out

    def test_histogram(self, paper_spmf, capsys):
        assert main([
            "histogram", "--input", str(paper_spmf), "--minsup", "0.25",
        ]) == 0
        assert "length 2: 2" in capsys.readouterr().out


class TestExperiment:
    def test_list(self, capsys):
        assert main(["experiment", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig6-C10-T2.5-S4-I1.25" in out
        assert "table1-params" in out

    def test_unknown_id(self, capsys):
        # Pinned by the CLI error policy: anticipated failures exit 1
        # with a one-line ``error:`` on stderr, never a bespoke status.
        assert main(["experiment", "bogus"]) == 1
        message = one_line_error(capsys)
        assert message.startswith("error:")
        assert "unknown experiment 'bogus'" in message
        assert "--list" in message

    def test_static_experiment_runs(self, capsys):
        assert main(["experiment", "table1-params"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_disagreement_exits_one_after_the_figure(
        self, monkeypatch, capsys
    ):
        """A figure whose engines found different patterns still prints,
        then fails the command with one line naming the experiment."""
        from repro.experiments import figures

        def disagreeing():
            result = figures.table1_parameters()
            result.notes.append(
                "DISAGREEMENT at minsup=0.01: dynamicsome found 3 "
                "patterns, expected 4"
            )
            return result

        monkeypatch.setitem(figures.EXPERIMENTS, "table1-params", disagreeing)
        assert main(["experiment", "table1-params"]) == 1
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        err_lines = captured.err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error: experiment table1-params: ")
        assert "DISAGREEMENT at minsup=0.01" in err_lines[0]


class TestAppendUpdateCli:
    """The incremental CLI surface: mine --save-state → append → update,
    and its error contract (one stderr line, exit 1, no traceback)."""

    @pytest.fixture()
    def mined_partition_dir(self, tmp_path, capsys):
        data = tmp_path / "data.spmf"
        parts = tmp_path / "parts"
        assert main([
            "generate", "--customers", "40", "--seed", "6",
            "--output", str(data),
        ]) == 0
        assert main([
            "mine", "--input", str(data), "--partition-dir", str(parts),
            "--partitions", "2", "--minsup", "0.2", "--save-state",
        ]) == 0
        capsys.readouterr()
        return parts

    @staticmethod
    def _assert_append_update_equals_remine(tmp_path, parts, capsys):
        delta = tmp_path / "delta.spmf"
        assert main([
            "generate", "--customers", "10", "--seed", "61",
            "--output", str(delta),
        ]) == 0
        assert main([
            "append", "--partition-dir", str(parts), "--input", str(delta),
        ]) == 0
        capsys.readouterr()
        assert main(["update", "--partition-dir", str(parts)]) == 0
        updated = capsys.readouterr().out
        assert main([
            "mine", "--minsup", "0.2", "--partition-dir", str(parts),
        ]) == 0
        assert capsys.readouterr().out == updated

    def test_append_then_update_matches_full_remine(
        self, tmp_path, mined_partition_dir, capsys
    ):
        self._assert_append_update_equals_remine(
            tmp_path, mined_partition_dir, capsys
        )

    def test_update_on_state_recorded_under_retired_strategy(
        self, tmp_path, mined_partition_dir, capsys
    ):
        """A snapshot written when ``bitset`` was still a strategy loads,
        and updating it stays byte-identical to a full re-mine: the
        recorded strategy only documents the snapshot run."""
        state_path = mined_partition_dir / "mining_state.json"
        payload = json.loads(state_path.read_text(encoding="utf-8"))
        payload["strategy"] = "bitset"
        state_path.write_text(json.dumps(payload), encoding="utf-8")
        self._assert_append_update_equals_remine(
            tmp_path, mined_partition_dir, capsys
        )

    def test_update_without_state_file(self, mined_partition_dir, capsys):
        (mined_partition_dir / "mining_state.json").unlink()
        code = main(["update", "--partition-dir", str(mined_partition_dir)])
        assert code == 1
        message = one_line_error(capsys)
        assert "mining_state.json" in message
        assert "--save-state" in message

    def test_update_with_corrupt_state_file(
        self, mined_partition_dir, capsys
    ):
        (mined_partition_dir / "mining_state.json").write_text("{nope")
        code = main(["update", "--partition-dir", str(mined_partition_dir)])
        assert code == 1
        assert "not valid JSON" in one_line_error(capsys)

    def test_update_with_wrong_format_state_file(
        self, mined_partition_dir, capsys
    ):
        (mined_partition_dir / "mining_state.json").write_text(
            '{"format": "something-else"}\n'
        )
        code = main(["update", "--partition-dir", str(mined_partition_dir)])
        assert code == 1
        assert "not a mining-state snapshot" in one_line_error(capsys)

    def test_update_minsup_mismatch(self, mined_partition_dir, capsys):
        code = main([
            "update", "--partition-dir", str(mined_partition_dir),
            "--minsup", "0.3",
        ])
        assert code == 1
        assert "does not match the snapshot's minsup" in one_line_error(
            capsys
        )

    def test_update_on_missing_database(self, tmp_path, capsys):
        code = main(["update", "--partition-dir", str(tmp_path / "nope")])
        assert code == 1
        assert "missing manifest.json" in one_line_error(capsys)

    def test_append_on_missing_database(self, tmp_path, capsys):
        code = main([
            "append", "--partition-dir", str(tmp_path / "nope"),
            "--input", str(tmp_path / "delta.spmf"),
        ])
        assert code == 1
        assert "missing manifest.json" in one_line_error(capsys)

    def test_append_with_missing_input(self, mined_partition_dir, capsys):
        code = main([
            "append", "--partition-dir", str(mined_partition_dir),
            "--input", str(mined_partition_dir / "no-such.spmf"),
        ])
        assert code == 1
        assert "No such file" in one_line_error(capsys)

    def test_save_state_requires_partition_dir(self, tmp_path, capsys):
        data = tmp_path / "data.spmf"
        assert main([
            "generate", "--customers", "10", "--output", str(data),
        ]) == 0
        capsys.readouterr()
        code = main([
            "mine", "--input", str(data), "--minsup", "0.25", "--save-state",
        ])
        assert code == 1
        assert "--save-state requires --partition-dir" in one_line_error(
            capsys
        )


class TestRobustnessVerbs:
    """Error paths (and minimal happy paths) of the fault-tolerance
    verbs: ``mine --checkpoint-dir``, ``resume``, ``fsck``."""

    def test_resume_missing_checkpoint_dir(self, tmp_path, capsys):
        code = main(["resume", "--checkpoint-dir", str(tmp_path / "nope")])
        assert code == 1
        assert "checkpoint meta" in one_line_error(capsys)

    def test_resume_corrupt_checkpoint_meta(self, tmp_path, capsys):
        ck = tmp_path / "ck"
        ck.mkdir()
        (ck / "checkpoint.json").write_text("{torn", encoding="utf-8")
        code = main(["resume", "--checkpoint-dir", str(ck)])
        assert code == 1
        assert "checkpoint meta" in one_line_error(capsys)

    def test_resume_checkpoint_not_a_mine_run(self, tmp_path, capsys):
        from repro.io.checkpoint import CheckpointStore

        CheckpointStore.attach(tmp_path / "ck", {"command": "other"})
        code = main(["resume", "--checkpoint-dir", str(tmp_path / "ck")])
        assert code == 1
        assert "does not describe a resumable 'mine' run" in one_line_error(
            capsys
        )

    def test_resume_checkpoint_with_retired_strategy(
        self, paper_spmf, tmp_path, capsys
    ):
        """A checkpoint recorded with ``--strategy bitset`` (a backend
        that no longer exists) cannot be resumed: one error line, exit
        1, no traceback, and nothing mined."""
        from repro.io.checkpoint import CheckpointStore

        ck, out = tmp_path / "ck", tmp_path / "out.txt"
        assert main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--checkpoint-dir", str(ck),
        ]) == 0
        capsys.readouterr()
        config = dict(
            CheckpointStore.read_config(ck), strategy="bitset", output=str(out)
        )
        CheckpointStore.attach(tmp_path / "old", config)
        code = main(["resume", "--checkpoint-dir", str(tmp_path / "old")])
        assert code == 1
        assert "'bitset'" in one_line_error(capsys)
        assert not out.exists()

    def test_resume_checkpoint_with_retired_option_refused(
        self, paper_spmf, tmp_path, capsys
    ):
        """A checkpoint directory written before the sharding knob was
        retired records ``"chunk_size": null`` in its configuration.
        ``resume`` refuses it with one error line, and ``mine`` with the
        same flags finds a different configuration; neither mines."""
        import shutil

        from repro.io.checkpoint import CheckpointStore

        ck, out = tmp_path / "ck", tmp_path / "out.txt"
        argv = [
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--output", str(out),
        ]
        assert main(argv + ["--checkpoint-dir", str(ck)]) == 0
        capsys.readouterr()
        out.unlink()
        old = tmp_path / "old"
        CheckpointStore.attach(
            old, dict(CheckpointStore.read_config(ck), chunk_size=None)
        )
        for pass_file in ck.glob("pass-*.json"):
            shutil.copy(pass_file, old / pass_file.name)

        code = main(["resume", "--checkpoint-dir", str(old)])
        assert code == 1
        assert "chunk_size" in one_line_error(capsys)
        code = main(argv + ["--checkpoint-dir", str(old)])
        assert code == 1
        assert "different run configuration" in one_line_error(capsys)
        assert not out.exists()

    def test_mine_checkpoint_config_mismatch(
        self, paper_spmf, tmp_path, capsys
    ):
        ck = tmp_path / "ck"
        assert main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--checkpoint-dir", str(ck),
        ]) == 0
        capsys.readouterr()
        code = main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.4",
            "--checkpoint-dir", str(ck),
        ])
        assert code == 1
        assert "different run configuration" in one_line_error(capsys)

    def test_mine_then_resume_reproduces_output(
        self, paper_spmf, tmp_path, capsys
    ):
        ck, out = tmp_path / "ck", tmp_path / "out.txt"
        assert main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--checkpoint-dir", str(ck), "--output", str(out),
        ]) == 0
        first = out.read_bytes()
        out.unlink()
        assert main(["resume", "--checkpoint-dir", str(ck)]) == 0
        assert out.read_bytes() == first
        err = capsys.readouterr().err
        assert "replayed" in err  # the resume consumed recorded passes

    def test_resume_from_another_directory_with_relative_paths(
        self, tmp_path, capsys, monkeypatch
    ):
        """A checkpoint stores its paths absolute: a run cut to half its
        passes and resumed from another working directory — one holding
        a different ``data.spmf`` — reads the recorded input and writes
        the recorded output, byte-identical to the uninterrupted run."""
        work, elsewhere = tmp_path / "work", tmp_path / "elsewhere"
        for directory, seed in ((work, "3"), (elsewhere, "4")):
            directory.mkdir()
            monkeypatch.chdir(directory)
            assert main([
                "generate", "--customers", "120", "--seed", seed,
                "--output", "data.spmf",
            ]) == 0
        monkeypatch.chdir(work)
        argv = [
            "mine", "--input", "data.spmf", "--minsup", "0.05",
            "--strategy", "vertical", "--output", "out.txt",
            "--checkpoint-dir", "ck",
        ]
        assert main(argv) == 0
        expected = (work / "out.txt").read_bytes()
        (work / "out.txt").unlink()
        passes = sorted((work / "ck").glob("pass-*.json"))
        assert len(passes) >= 3
        for pass_file in passes[len(passes) // 2:]:
            pass_file.unlink()
        capsys.readouterr()

        monkeypatch.chdir(elsewhere)
        assert main(["resume", "--checkpoint-dir", str(work / "ck")]) == 0
        assert (work / "out.txt").read_bytes() == expected
        assert not (elsewhere / "out.txt").exists()
        assert "replayed" in capsys.readouterr().err

    def test_resume_checkpoint_with_relative_paths_refused(
        self, paper_spmf, tmp_path, capsys
    ):
        """A checkpoint written when paths were stored as typed cannot
        tell which directory they were relative to: ``resume`` fails
        with one error line and mines nothing."""
        from repro.io.checkpoint import CheckpointStore

        ck, out = tmp_path / "ck", tmp_path / "out.txt"
        assert main([
            "mine", "--input", str(paper_spmf), "--minsup", "0.25",
            "--checkpoint-dir", str(ck),
        ]) == 0
        capsys.readouterr()
        CheckpointStore.attach(
            tmp_path / "old",
            dict(
                CheckpointStore.read_config(ck),
                input="paper.spmf",
                output="out.txt",
            ),
        )
        code = main(["resume", "--checkpoint-dir", str(tmp_path / "old")])
        assert code == 1
        assert "relative paths (--input, --output)" in one_line_error(capsys)
        assert not out.exists()

    def test_fsck_missing_directory(self, tmp_path, capsys):
        code = main(["fsck", str(tmp_path / "nope")])
        assert code == 1
        assert "not a partitioned database" in one_line_error(capsys)

    def test_fsck_corrupt_manifest(self, tmp_path, capsys):
        parts = tmp_path / "parts"
        assert main([
            "generate", "--customers", "10", "--seed", "3",
            "--stream-out", str(parts),
        ]) == 0
        capsys.readouterr()
        (parts / "manifest.json").write_text("{torn", encoding="utf-8")
        code = main(["fsck", str(parts)])
        assert code == 1
        assert "not valid JSON" in one_line_error(capsys)

    def test_fsck_corrupt_base_partition(self, tmp_path, capsys):
        parts = tmp_path / "parts"
        assert main([
            "generate", "--customers", "10", "--seed", "3",
            "--stream-out", str(parts), "--partitions", "2",
        ]) == 0
        capsys.readouterr()
        target = parts / "part-00000.binlog"
        target.write_bytes(target.read_bytes()[:-7])
        code = main(["fsck", str(parts)])
        assert code == 1
        assert "damaged beyond repair" in one_line_error(capsys)

    def test_fsck_clean_and_repair_round_trip(self, tmp_path, capsys):
        parts = tmp_path / "parts"
        assert main([
            "generate", "--customers", "10", "--seed", "3",
            "--stream-out", str(parts),
        ]) == 0
        (parts / "manifest.json.tmp").write_text("{", encoding="utf-8")
        assert main(["fsck", str(parts)]) == 0
        out = capsys.readouterr().out
        assert "removed: manifest.json.tmp" in out
        assert out.rstrip().endswith("repaired")
        assert main(["fsck", str(parts)]) == 0
        assert capsys.readouterr().out.rstrip().endswith("clean")


@pytest.fixture()
def mined_patterns(paper_spmf, tmp_path):
    path = tmp_path / "mined.txt"
    assert main([
        "mine", "--input", str(paper_spmf), "--minsup", "0.25",
        "--output", str(path),
    ]) == 0
    return path


class TestQuery:
    def test_query_match_local(self, mined_patterns, capsys):
        code = main([
            "query", "--patterns", str(mined_patterns),
            "--seq", "<(30)(40 60 70)(90)>",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "<(30)(90)>" in captured.out
        assert "(support 40.00%, 2 customers)" in captured.out

    def test_query_predict_local(self, mined_patterns, capsys):
        code = main([
            "query", "--patterns", str(mined_patterns),
            "--seq", "<(30)>", "--predict", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "support" in out

    def test_query_json_output(self, mined_patterns, capsys):
        code = main([
            "query", "--patterns", str(mined_patterns),
            "--seq", "<(30)(90)>", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_matched"] >= 1
        assert all("pattern" in p for p in payload["patterns"])

    def test_query_requires_exactly_one_source(self, mined_patterns, capsys):
        code = main(["query", "--seq", "<(30)>"])
        assert code == 1
        assert "exactly one" in one_line_error(capsys)
        code = main([
            "query", "--patterns", str(mined_patterns),
            "--url", "http://127.0.0.1:1", "--seq", "<(30)>",
        ])
        assert code == 1
        assert "exactly one" in one_line_error(capsys)

    def test_query_rejects_negative_predict(self, mined_patterns, capsys):
        code = main([
            "query", "--patterns", str(mined_patterns),
            "--seq", "<(30)>", "--predict", "-2",
        ])
        assert code == 1
        assert "--predict" in one_line_error(capsys)

    def test_query_bad_sequence_text(self, mined_patterns, capsys):
        code = main([
            "query", "--patterns", str(mined_patterns), "--seq", "30 90",
        ])
        assert code == 1
        assert one_line_error(capsys)

    def test_query_missing_patterns_file(self, tmp_path, capsys):
        code = main([
            "query", "--patterns", str(tmp_path / "absent.txt"),
            "--seq", "<(30)>",
        ])
        assert code == 1
        assert one_line_error(capsys)

    def test_query_legacy_headerless_file_rejected(self, tmp_path, capsys):
        legacy = tmp_path / "legacy.txt"
        legacy.write_text("<(1)> #SUP: 2 #FREQ: 0.5\n", encoding="utf-8")
        code = main(["query", "--patterns", str(legacy), "--seq", "<(1)>"])
        assert code == 1
        assert "header" in one_line_error(capsys)

    def test_query_unreachable_url(self, capsys):
        code = main([
            "query", "--url", "http://127.0.0.1:9", "--seq", "<(30)>",
        ])
        assert code == 1
        assert "cannot reach" in one_line_error(capsys)


class TestServe:
    def test_serve_missing_patterns_file(self, tmp_path, capsys):
        code = main(["serve", "--patterns", str(tmp_path / "absent.txt")])
        assert code == 1
        assert one_line_error(capsys)

    def test_serve_corrupt_patterns_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("#! seqmine-patterns v1\ngarbage\n", encoding="utf-8")
        code = main(["serve", "--patterns", str(bad)])
        assert code == 1
        assert one_line_error(capsys)
