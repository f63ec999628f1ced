import dataclasses
import os
import re
import subprocess
import sys
from unittest import mock

import pytest

import gridchain
from gridchain import cli
from gridchain.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    ExperimentSpec,
    build_arg_parser,
    main,
    parse_config,
    run_e2e_demo,
)
from gridchain.meter import MalformedPlaintext, load_meter_stream
from gridchain.metrics import CSV_HEADER
from gridchain.netsim import SimConfig, Simulation, run_many


FAST = [
    "--duration", "90", "--runs", "2", "--seed", "3",
]


def write_config(tmp_path, text):
    path = tmp_path / "exp.conf"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseConfig:
    def test_defaults_match_measured_network_table(self):
        spec = parse_config([])
        c = spec.config
        assert spec.mode == "single"
        assert c.block_gas_limit == 15_000_000
        assert c.propagation_delay == 0.25
        assert c.tx_rate == 100.0
        assert c.num_nodes == 3
        assert c.shares() == pytest.approx((1 / 3, 1 / 3, 1 / 3))
        assert c.num_runs == 100

    def test_flag_overrides_file(self, tmp_path):
        conf = write_config(tmp_path, "lambda = 9\nruns = 7\n")
        spec = parse_config(["--config", conf, "--lambda", "3"])
        assert spec.config.lambda_ == 3
        assert spec.config.num_runs == 7

    def test_file_values_parsed(self, tmp_path):
        conf = write_config(
            tmp_path,
            "# experiment\nmode = sweep\nsweep = 1,2,3\nnodes=2\n"
            "hash-shares = 0.6,0.4\nworkers = 2\ntotal-hashrate = 65536\n",
        )
        spec = parse_config(["--config", conf])
        assert spec.mode == "sweep"
        assert spec.sweep_lambdas == [1, 2, 3]
        assert spec.config.num_nodes == 2
        assert spec.config.hash_shares == (0.6, 0.4)
        assert spec.workers == 2
        assert spec.config.total_hashrate == 65536.0

    def test_malformed_numeric_names_field(self, tmp_path):
        conf = write_config(tmp_path, "tx-rate = fast\n")
        with pytest.raises(Exception) as err:
            parse_config(["--config", conf])
        assert "tx_rate" in str(err.value)

    def test_unknown_key_rejected(self, tmp_path):
        conf = write_config(tmp_path, "velocity = 9\n")
        with pytest.raises(Exception) as err:
            parse_config(["--config", conf])
        assert "velocity" in str(err.value)

    def test_file_only_keys_are_flags_too(self, tmp_path):
        conf = write_config(
            tmp_path,
            "total-hashrate = 65536\nwarmup-blocks = 7\n"
            "initial-difficulty = 200000\nworkers = 2\nmeter-interval = 9\n"
            "meter-file = m.csv\ntrace = yes\n",
        )
        from_file = parse_config(["--config", conf])
        from_flags = parse_config([
            "--total-hashrate", "65536", "--warmup-blocks", "7",
            "--initial-difficulty", "200000", "--workers", "2", "--meter-interval", "9",
            "--meter-file", "m.csv", "--trace",
        ])
        assert from_flags == from_file
        assert from_file.trace and from_file.workers == 2 and from_file.meter_interval_s == 9
        assert from_file.config.warmup_blocks == 7
        assert from_file.config.initial_difficulty == 200_000

    def test_flag_list_matches_design(self):
        parser = build_arg_parser()
        option_strings = {s for a in parser._actions for s in a.option_strings}
        for flag in ("--mode", "--lambda", "--sweep", "--nodes", "--hash-shares",
                     "--delay", "--tx-rate", "--gas-limit", "--tx-gas",
                     "--duration", "--runs", "--seed", "--out", "--config",
                     "--trace"):
            assert flag in option_strings

    def test_options_set_every_config_field_once(self):
        fields = {f.name for f in dataclasses.fields(SimConfig)}
        targets = [field for _, field, _ in cli.OPTIONS.values() if field in fields]
        assert len(targets) == len(set(targets))
        assert set(targets) == fields
        spec_fields = {f.name for f in dataclasses.fields(ExperimentSpec)} - {"config"}
        spec_targets = [field for _, field, _ in cli.OPTIONS.values() if field not in fields]
        assert sorted(spec_targets) == sorted(spec_fields)


# For every option that sets a SimConfig field, a value that moves a short
# run's output away from the defaults'. A setting that reaches no output
# has no value here that passes.
KNOB_VALUES = {
    "lambda": "5",
    "nodes": "2",
    "hash_shares": "0.5,0.3,0.2",
    "delay": "2.0",
    "tx_rate": "10",
    "gas_limit": "135000",  # three transactions a block
    "tx_gas": "60000",
    "duration": "150",
    "runs": "2",
    "seed": "2",
    "total_hashrate": "20000",  # the difficulty floor binds
    "warmup_blocks": "10",
    "initial_difficulty": "2000000",
}
SHORT_RUN = ["--duration", "120", "--warmup-blocks", "5", "--runs", "1"]


@pytest.mark.parametrize("name", [
    name for name, option in cli.OPTIONS.items()
    if option[1] in {f.name for f in dataclasses.fields(SimConfig)}
])
def test_every_config_knob_reaches_the_output(name):
    assert name in KNOB_VALUES, f"no value for option {name!r}"
    flag = "--" + name.replace("_", "-")
    base = parse_config(SHORT_RUN).config
    changed = parse_config(SHORT_RUN + [flag, KNOB_VALUES[name]]).config
    assert run_many(changed) != run_many(base)


class TestMainExitCodes:
    def test_empty_sweep_is_config_error(self, capsys):
        assert main(["--mode", "sweep"] + FAST) == EXIT_CONFIG
        assert "sweep" in capsys.readouterr().err

    def test_invalid_shares_config_error(self):
        assert main(["--hash-shares", "0.9,0.2", "--nodes", "2"] + FAST) == EXIT_CONFIG

    def test_single_mode_succeeds(self, tmp_path, capsys):
        out = tmp_path / "single.csv"
        code = main(["--mode", "single", "--lambda", "2", "--out", str(out),
                     "--duration", "90", "--runs", "2", "--seed", "3"])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2

    def test_too_short_run_is_config_error(self, tmp_path, monkeypatch, capsys):
        # 3 s at lambda 12 mines fewer than two post-warm-up blocks
        monkeypatch.chdir(tmp_path)
        code = main(["--mode", "single", "--duration", "3", "--lambda", "12", "--runs", "1"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "two post-warm-up blocks" in err

    @pytest.mark.parametrize("flags, reason", [
        (["--delay", "inf"], "propagation_delay must be finite"),
        (["--delay", "nan"], "propagation_delay must be finite"),
        (["--tx-rate", "nan"], "tx_rate must be finite"),
        (["--tx-rate", "inf"], "tx_rate must be finite"),
        (["--duration", "nan"], "sim_duration must be positive and finite"),
        (["--duration", "inf"], "sim_duration must be positive and finite"),
        (["--total-hashrate", "nan"], "total_hashrate must be positive and finite"),
        (["--total-hashrate", "inf"], "total_hashrate must be positive and finite"),
        (["--hash-shares", "nan,nan,nan"], "every hash share must be positive and finite"),
    ])
    def test_non_finite_input_is_config_error(self, tmp_path, monkeypatch, capsys, flags,
                                              reason):
        monkeypatch.chdir(tmp_path)
        assert main(["--runs", "1"] + flags) == EXIT_CONFIG
        assert reason in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_thresholds_are_checked_before_the_first_run(self, tmp_path, monkeypatch,
                                                               capsys):
        monkeypatch.chdir(tmp_path)
        runs = mock.Mock(wraps=run_many)
        monkeypatch.setattr(cli, "run_many", runs)
        code = main(["--mode", "sweep", "--sweep", "3,0", "--runs", "4", "--duration", "3000"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "lambda must be a positive integer" in err
        assert "lambda=3:" not in err
        runs.assert_not_called()
        assert list(tmp_path.iterdir()) == []

    def test_a_repeated_sweep_threshold_is_refused_before_the_first_run(self, tmp_path,
                                                                         monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        runs = mock.Mock(wraps=run_many)
        monkeypatch.setattr(cli, "run_many", runs)
        code = main(["--mode", "sweep", "--sweep", "2,3,2", "--runs", "1", "--duration", "200",
                     "--out", "s.csv"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--sweep repeats threshold 2" in err
        assert "lambda=" not in err
        runs.assert_not_called()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, reason", [
        (["--mode", "single", "--sweep", "1,2"], "--sweep applies to sweep mode, not single"),
        (["--mode", "mainnet-compare", "--sweep", "1,2"],
         "--sweep applies to sweep mode, not mainnet-compare"),
        (["--mode", "e2e-demo", "--sweep", "1,2"], "--sweep applies to sweep mode, not e2e-demo"),
        (["--mode", "single", "--meter-file", "nope.csv"],
         "--meter-file applies to e2e-demo, not single"),
        (["--mode", "sweep", "--sweep", "1", "--meter-file", "nope.csv"],
         "--meter-file applies to e2e-demo, not sweep"),
    ])
    def test_option_the_mode_ignores_is_config_error(self, tmp_path, monkeypatch, capsys,
                                                      flags, reason):
        monkeypatch.chdir(tmp_path)
        with mock.patch.object(Simulation, "run", autospec=True,
                               side_effect=Simulation.run) as runs:
            assert main(flags + ["--duration", "60", "--runs", "1"]) == EXIT_CONFIG
        assert reason in capsys.readouterr().err
        runs.assert_not_called()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [
        ["--out", "{missing}/x.csv"],
        ["--out", "{missing}/x.csv", "--trace"],
        ["--mode", "sweep", "--sweep", "1,2", "--out", "{missing}/x.csv"],
        ["--mode", "mainnet-compare", "--out", "{missing}/x.csv"],
        ["--mode", "e2e-demo", "--out", "{missing}/demo.txt"],
        ["--env-out-dir"],
        ["--env-out-dir", "--mode", "sweep", "--sweep", "1,2"],
    ])
    def test_missing_output_directory_is_config_error_before_the_first_run(
            self, tmp_path, monkeypatch, capsys, flags):
        monkeypatch.chdir(tmp_path)
        missing = tmp_path / "no-such-dir"
        if flags[0] == "--env-out-dir":
            monkeypatch.setenv("GRIDCHAIN_OUT_DIR", str(missing))
            flags = flags[1:]
        with mock.patch.object(Simulation, "run", autospec=True,
                               side_effect=Simulation.run) as runs:
            code = main([f.format(missing=missing) for f in flags]
                        + ["--duration", "60", "--runs", "1"])
        assert code == EXIT_CONFIG
        assert f"output directory {missing} does not exist" in capsys.readouterr().err
        runs.assert_not_called()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [
        [],
        ["--trace"],
        ["--mode", "sweep", "--sweep", "1,2"],
        ["--mode", "mainnet-compare"],
        ["--mode", "e2e-demo"],
    ])
    def test_output_that_is_a_directory_is_config_error_before_the_first_run(
            self, tmp_path, monkeypatch, capsys, flags):
        monkeypatch.chdir(tmp_path)
        with mock.patch.object(Simulation, "run", autospec=True,
                               side_effect=Simulation.run) as runs:
            code = main(flags + ["--out", ".", "--duration", "60", "--runs", "2"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "output . is a directory" in err
        assert "lambda=" not in err
        runs.assert_not_called()
        assert list(tmp_path.iterdir()) == []

    def test_demo_without_out_ignores_the_output_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GRIDCHAIN_OUT_DIR", str(tmp_path / "no-such-dir"))
        assert main(["--mode", "e2e-demo", "--duration", "60"]) == EXIT_OK
        assert list(tmp_path.iterdir()) == []

    def test_argparse_rejects_bad_flag_value(self):
        with pytest.raises(SystemExit) as err:
            parse_config(["--runs", "many"])
        assert err.value.code == 2

    def test_malformed_list_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            parse_config(["--sweep", "1,x"])
        assert err.value.code == 2
        assert "invalid int_list value: '1,x'" in capsys.readouterr().err


class TestMeterFile:
    @pytest.mark.parametrize("line, reason", [
        ("SM-01,1750000010,12.5x", "kWh value '12.5x' is not a finite decimal number"),
        ("SM-01,noon,12.500", "unix time 'noon' is not an integer"),
        ("SM-01,1750000010,-1.000", "energy must be non-negative"),
        (None, "cannot read meter file"),
    ])
    def test_malformed_file_is_config_error(self, tmp_path, capsys, line, reason):
        path = tmp_path / "meters.csv"
        if line is not None:
            path.write_text(f"SM-01,1750000005,1.000\n{line}\n")
        code = main(["--mode", "e2e-demo", "--duration", "100", "--meter-file", str(path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert reason in err
        if line is not None:
            assert f"{path}:2: " in err

    def test_file_read_once(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "meters.csv"
        path.write_text("SM-01,1750000000,1.000\nSM-01,1750000005,1.250\n"
                        "SM-01,1750000010,1.750\n")
        reads = []

        def counted(p):
            reads.append(p)
            return load_meter_stream(p)

        monkeypatch.setattr(cli, "load_meter_stream", counted)
        code = main(["--mode", "e2e-demo", "--duration", "100", "--meter-file", str(path)])
        assert code == EXIT_OK
        assert reads == [str(path)]
        out = capsys.readouterr().out
        assert "records confirmed on chain:       6" in out
        assert "records recovered by decryption:  6" in out

    def test_readings_at_the_same_time_are_all_recovered(self, tmp_path, capsys):
        # Two readings of one meter at one time are two records, told apart
        # by their nonces; neither may shadow the other.
        path = tmp_path / "meters.csv"
        path.write_text("SM-01,1750000000,1.000\nSM-01,1750000000,1.250\n"
                        "SM-01,1750000010,1.750\n")
        code = main(["--mode", "e2e-demo", "--duration", "200", "--meter-file", str(path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "records confirmed on chain:       6" in out
        assert "records recovered by decryption:  6" in out
        assert "decryption failures:              0" in out


class TestSweepCli:
    def test_sweep_writes_one_row_per_lambda(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["--mode", "sweep", "--sweep", ",".join(str(v) for v in range(1, 13)),
                     "--out", str(out), "--duration", "60", "--runs", "1", "--seed", "2"])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 13
        lambdas = [int(line.split(",")[0]) for line in lines[1:]]
        assert lambdas == list(range(1, 13))

    def test_sweep_deterministic_across_invocations(self, tmp_path):
        args = ["--mode", "sweep", "--sweep", "2,3", "--duration", "90",
                "--runs", "2", "--seed", "4"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("one_row, other", [
        (["--mode", "single", "--lambda", "2"], ["--mode", "sweep", "--sweep", "2"]),
        (["--mode", "mainnet-compare"],
         ["--mode", "single", "--lambda", "9", "--nodes", "3", "--delay", "12.6"]),
    ])
    def test_one_row_modes_write_the_sweep_table(self, tmp_path, one_row, other):
        args = ["--duration", "200", "--runs", "2", "--seed", "4"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(one_row + args + ["--out", str(out1)]) == EXIT_OK
        assert main(other + args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRIDCHAIN_OUT_DIR", str(tmp_path))
        code = main(["--mode", "single", "--lambda", "2", "--duration", "60",
                     "--runs", "1", "--seed", "2"])
        assert code == EXIT_OK
        assert (tmp_path / "single.csv").exists()

    def test_trace_files_written(self, tmp_path):
        out = tmp_path / "single.csv"
        code = main(["--mode", "single", "--lambda", "2", "--out", str(out),
                     "--trace", "--duration", "60", "--runs", "2", "--seed", "2"])
        assert code == EXIT_OK
        assert (tmp_path / "trace_run0.csv").exists()
        assert (tmp_path / "trace_run1.csv").exists()

    @pytest.mark.parametrize("flags", [
        ["--mode", "sweep", "--sweep", "1,3", "--runs", "1", "--out", "s.csv"],
        ["--mode", "e2e-demo", "--out", "demo.txt"],
    ])
    def test_trace_outside_single_runs_is_config_error(self, tmp_path, monkeypatch, capsys,
                                                        flags):
        monkeypatch.chdir(tmp_path)
        assert main(flags + ["--duration", "60", "--trace"]) == EXIT_CONFIG
        assert "--trace applies to single and mainnet-compare" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_trace_simulates_each_run_once(self, tmp_path):
        runs = []
        original = Simulation.run

        def counted(sim):
            runs.append(sim.run_index)
            return original(sim)

        with mock.patch.object(Simulation, "run", counted):
            code = main(["--mode", "single", "--lambda", "2", "--trace", "--duration", "60",
                         "--runs", "3", "--seed", "2", "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_OK
        assert runs == [0, 1, 2]


class TestMainnetCompare:
    def test_directional_point(self, tmp_path, capsys):
        out = tmp_path / "mainnet.csv"
        code = main(["--mode", "mainnet-compare", "--out", str(out),
                     "--duration", "400", "--runs", "1", "--seed", "5"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "public-network reference" in captured.out
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "9"

    @pytest.mark.parametrize("flags, given", [
        (["--lambda", "3", "--nodes", "5", "--delay", "0.1"], "lambda, nodes, delay"),
        (["--hash-shares", "0.5,0.3,0.2"], "hash_shares"),
        (["--config", "preset.conf"], "lambda"),
    ])
    def test_preset_options_are_config_error(self, tmp_path, monkeypatch, capsys, flags,
                                             given):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "preset.conf").write_text("lambda = 9\n", encoding="utf-8")
        code = main(["--mode", "mainnet-compare", "--duration", "60", "--runs", "1"] + flags)
        assert code == EXIT_CONFIG
        assert f"mainnet-compare runs at its own preset; remove {given}" in (
            capsys.readouterr().err)
        assert [p.name for p in tmp_path.iterdir()] == ["preset.conf"]

    def test_trace_is_honoured(self, tmp_path):
        args = ["--mode", "mainnet-compare", "--duration", "200", "--runs", "2", "--seed", "5"]
        plain, traced = tmp_path / "plain" / "m.csv", tmp_path / "traced" / "m.csv"
        plain.parent.mkdir()
        traced.parent.mkdir()
        assert main(args + ["--out", str(plain)]) == EXIT_OK
        assert main(args + ["--out", str(traced), "--trace"]) == EXIT_OK
        assert traced.read_bytes() == plain.read_bytes()
        assert (traced.parent / "trace_run1.csv").exists()
        assert not (plain.parent / "trace_run0.csv").exists()


class TestE2EDemo:
    def demo_spec(self, **config_overrides):
        base = dict(lambda_=3, sim_duration=300.0, warmup_blocks=20, seed=8,
                    tx_rate=20.0)
        base.update(config_overrides)
        return ExperimentSpec(
            mode="e2e-demo", config=SimConfig(**base), sweep_lambdas=[],
            meter_interval_s=5,
        )

    def test_recovers_all_confirmed_records(self):
        report = run_e2e_demo(self.demo_spec())
        assert report.records_confirmed > 0
        assert report.records_recovered == report.records_confirmed
        assert report.decryption_failures == 0

    def test_untrusted_sender_rejected(self):
        report = run_e2e_demo(self.demo_spec())
        assert report.records_sent_untrusted > 0
        # every untrusted record that landed on chain was rejected
        assert report.records_rejected > 0
        state = report.state
        total_failures = sum(state.failures_by_sender.values())
        assert total_failures == state.failed_calls
        assert report.records_rejected <= report.records_sent_untrusted

    def test_interval_within_regulation_band(self):
        report = run_e2e_demo(self.demo_spec())
        assert 2.0 <= report.stats.mean_block_interval <= 6.0

    def test_blocks_hold_the_injected_transactions_a_full_scan_finds(self, monkeypatch):
        runs, run_simulation = [], cli.run_simulation

        def keep(*args, **kwargs):
            runs.append(run_simulation(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "run_simulation", keep)
        run_e2e_demo(self.demo_spec(propagation_delay=1.0))
        (result,) = runs
        inj = result.table.injected
        order = sorted(inj)
        held = skipped = 0
        for b in result.tree.blocks.values():
            assert b.transactions == tuple(inj[i] for i in b.tx_ids if i in inj)
            held += len(b.transactions)
            if b.tx_ids:  # injected ids inside the block's range but not in it
                inside = [i for i in order if b.tx_ids[0] <= i <= b.tx_ids[-1]]
                skipped += len(inside) - len(b.transactions)
        assert held >= len(inj) > 100
        assert skipped > 0

    def test_corrupt_record_counts_as_decryption_failure(self, monkeypatch):
        def corrupt(enc, key):
            raise MalformedPlaintext("corrupt")

        monkeypatch.setattr(cli, "decrypt_record", corrupt)
        report = run_e2e_demo(self.demo_spec())
        assert report.records_confirmed > 0
        assert report.decryption_failures == report.records_confirmed
        assert report.records_recovered == 0

    def test_oversized_record_field_counts_as_decryption_failure(self, monkeypatch):
        class Oversized(bytes):
            """A stored field that reports more bytes than its counter range covers."""

            def __len__(self):
                return 2**28 + 1

        unpack = cli.unpack_record_fields

        def oversized(id_field, time_field, value_field):
            return unpack(id_field, Oversized(time_field), value_field)

        monkeypatch.setattr(cli, "unpack_record_fields", oversized)
        report = run_e2e_demo(self.demo_spec())
        assert report.records_confirmed > 0
        assert report.decryption_failures == report.records_confirmed
        assert report.records_recovered == 0

    def test_decrypt_bug_propagates(self, monkeypatch):
        def buggy(enc, key):
            raise TypeError("bug in the keystream code")

        monkeypatch.setattr(cli, "decrypt_record", buggy)
        with pytest.raises(TypeError, match="keystream"):
            run_e2e_demo(self.demo_spec())

    def test_demo_mode_via_main(self, capsys):
        code = main(["--mode", "e2e-demo", "--lambda", "3", "--duration", "200",
                     "--seed", "8", "--tx-rate", "10"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "records confirmed on chain" in out
        assert "decryption failures:              0" in out


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        # The child runs in tmp_path, where a relative PYTHONPATH entry such
        # as "src" resolves to nothing; put the directory that holds the
        # imported package first so the child finds the same gridchain.
        package_dir = os.path.dirname(os.path.abspath(gridchain.__file__))
        python_path = os.pathsep.join(
            filter(None, [os.path.dirname(package_dir), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, GRIDCHAIN_OUT_DIR=str(tmp_path), PYTHONPATH=python_path)
        proc = subprocess.run(
            [sys.executable, "-m", "gridchain.cli", "--mode", "single",
             "--lambda", "2", "--duration", "60", "--runs", "1", "--seed", "2"],
            capture_output=True, text=True, env=env, cwd=str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "single.csv").exists()

    def test_import_loads_neither_aes_nor_process_pool(self, tmp_path):
        package_dir = os.path.dirname(os.path.abspath(gridchain.__file__))
        python_path = os.pathsep.join(
            filter(None, [os.path.dirname(package_dir), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=python_path)
        child = "\n".join([
            "import random, sys",
            "from decimal import Decimal",
            "import gridchain, gridchain.cli",
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'cryptography'",
            "          or m == 'concurrent.futures.process']",
            "assert not loaded, loaded",
            "from gridchain.meter import MeterRecord, SymmetricKey, decrypt_record, encrypt_record",
            "key = SymmetricKey(bytes(32))",
            "assert 'cryptography' in sys.modules",
            "rec = MeterRecord('SM-01', 1750000000, Decimal('1.250'))",
            "assert decrypt_record(encrypt_record(rec, key, random.Random(1)), key) == rec",
        ])
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                              env=env, cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr

    def test_every_public_name_resolves(self):
        # A name deleted from the package but still listed in __all__ would
        # break ``from gridchain import *``.
        missing = [name for name in gridchain.__all__ if not hasattr(gridchain, name)]
        assert not missing, missing


class TestWarmupNote:
    """A run too short for the configured warm-up gets a note on standard
    error; the output stays as it is."""

    @pytest.mark.parametrize("flags, labels", [
        (["--duration", "90", "--lambda", "2", "--runs", "1"], ["lambda=2"]),
        (["--mode", "sweep", "--sweep", "1,2", "--duration", "90", "--runs", "1"],
         ["lambda=1", "lambda=2"]),
        (["--mode", "mainnet-compare", "--duration", "200", "--runs", "1"], ["lambda=9"]),
        (["--mode", "e2e-demo", "--duration", "100"], ["e2e-demo"]),
    ])
    def test_clamped_warmup_is_noted(self, tmp_path, monkeypatch, capsys, flags, labels):
        monkeypatch.chdir(tmp_path)
        assert main(flags) == EXIT_OK
        notes = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("gridchain: note:")]
        assert len(notes) == len(labels)
        for note, label in zip(notes, labels):
            applied = re.fullmatch(f"gridchain: note: {label}: warm-up of 100 blocks "
                                   r"clamped to (\d+); smallest measured window 2 blocks",
                                   note)
            assert applied is not None, note
            assert int(applied.group(1)) < 100

    @pytest.mark.parametrize("flags", [
        ["--duration", "90", "--lambda", "2", "--runs", "1", "--warmup-blocks", "0"],
        ["--duration", "300", "--lambda", "1", "--runs", "1"],
    ])
    def test_unclamped_warmup_prints_no_note(self, tmp_path, monkeypatch, capsys, flags):
        monkeypatch.chdir(tmp_path)
        assert main(flags) == EXIT_OK
        assert "gridchain: note:" not in capsys.readouterr().err
