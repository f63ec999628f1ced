"""Experiment runner: single runs, threshold sweeps, a public-network
comparison point (a single run at a preset), and the end-to-end
meter-to-chain demo.

Configuration comes from defaults, then an optional flat ``key=value`` file,
then command-line flags (flags win); ``OPTIONS`` lists every setting once.
CSV output follows the schema in :mod:`gridchain.metrics`; progress goes to
standard error.

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import random
import sys
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

from .chain import Transaction
from .contract import CallKind, ContractCall, ReplayedState, replay_chain
from .meter import (
    MeterAccount,
    build_record_tx,
    decrypt_record,
    encrypt_record,
    load_meter_stream,
    simulate_meter_stream,
    unpack_record_fields,
)
from .metrics import RunStats, SweepPoint, aggregate_runs, write_sweep_csv
from .netsim import InvalidConfig, SimConfig, run_many, run_simulation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

OUTPUT_DIR_ENV = "GRIDCHAIN_OUT_DIR"

MODES = ("single", "sweep", "mainnet-compare", "e2e-demo")

# Published operating point of a three-node public-network simulation used
# as a directional comparison: ~14.05 tx/s at a ~17.5% uncle rate.
MAINNET_REFERENCE_TPS = 14.05
MAINNET_REFERENCE_UNCLE_RATE = 0.1748
# mainnet-compare runs single at this preset: three equal miners, the
# unmodified threshold of 9 and the published ~12.6 s mean delay.
MAINNET_PRESET = dict(num_nodes=3, hash_shares=None, lambda_=9, propagation_delay=12.6)


class ConfigFileError(ValueError):
    pass


@dataclass
class ExperimentSpec:
    mode: str
    config: SimConfig
    sweep_lambdas: list[int]
    output_path: str | None = None
    trace: bool = False
    workers: int = 1
    meter_interval_s: int = 5
    meter_stream_file: str | None = None

    def validate(self) -> None:
        if self.mode not in MODES:
            raise InvalidConfig(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.mode == "sweep" and not self.sweep_lambdas:
            raise InvalidConfig("sweep mode needs a non-empty --sweep list")
        if self.workers < 1:
            raise InvalidConfig("workers must be >= 1")
        if self.meter_interval_s < 1:
            raise InvalidConfig("meter interval must be >= 1 second")
        self.config.validate()


# argparse names the parser function in its error message.
def int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip() != ""]


def float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip() != ""]


def boolean(text: str) -> bool:
    if text.lower() not in ("0", "1", "true", "false", "yes", "no"):
        raise ValueError(text)
    return text.lower() in ("1", "true", "yes")


# Every option, as ``--name-with-dashes`` on the command line and as
# ``name`` (dashes or underscores) in the config file:
# name -> (parser, SimConfig field or None, help).
OPTIONS = {
    "mode": (str, None, f"one of {', '.join(MODES)} (default single)"),
    "lambda": (int, "lambda_", "difficulty threshold in seconds"),
    "sweep": (int_list, None, "comma-separated thresholds for sweep mode"),
    "nodes": (int, "num_nodes", "number of miners"),
    "hash_shares": (float_list, "hash_shares", "comma-separated per-node hashrate fractions"),
    "delay": (float, "propagation_delay", "block propagation delay in seconds"),
    "tx_rate": (float, "tx_rate", "transactions created per second"),
    "gas_limit": (int, "block_gas_limit", "block gas limit"),
    "tx_gas": (int, "mean_tx_gas", "gas per transaction"),
    "duration": (float, "sim_duration", "simulated seconds per run"),
    "runs": (int, "num_runs", "independent runs per threshold"),
    "seed": (int, "seed", "base seed; run i draws from (seed, i)"),
    "out": (str, None, "output file"),
    "trace": (boolean, None, "write per-run block event traces next to the output"),
    "total_hashrate": (float, "total_hashrate", "difficulty solved per second, all miners"),
    "tx_size_kb": (float, "tx_size_kb", "transaction size in kB"),
    "warmup_blocks": (int, "warmup_blocks", "canonical blocks left out of the statistics"),
    "initial_difficulty": (int, "initial_difficulty",
                           "genesis difficulty (default: the equilibrium estimate)"),
    "workers": (int, None, "parallel runs; the output does not depend on it"),
    "meter_interval": (int, None, "e2e-demo: seconds between meter readings"),
    "meter_file": (str, None, "e2e-demo: input stream, device_id,unix_time,kwh per line"),
}


def read_config_file(path: str) -> dict[str, object]:
    """Parsed values of a flat ``key = value`` file; blank lines and '#'
    comments ignored."""
    values: dict[str, object] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigFileError(f"{path}: cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigFileError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip().lower().replace("-", "_"), value.strip()
        if key not in OPTIONS:
            raise ConfigFileError(f"{path}: unknown config key {key!r}")
        try:
            values[key] = OPTIONS[key][0](value)
        except ValueError as exc:
            raise ConfigFileError(f"{path}: invalid value for {key!r}: {value!r}") from exc
    return values


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridchain",
        description="Private proof-of-work chain simulator with a tunable "
        "difficulty threshold and an encrypted meter-record pipeline.",
    )
    for name, (parse, _field, help_text) in OPTIONS.items():
        flag = "--" + name.replace("_", "-")
        if parse is boolean:
            parser.add_argument(flag, dest=name, action="store_true", default=None,
                                help=help_text)
        else:
            parser.add_argument(flag, dest=name, type=parse, default=None, help=help_text)
    parser.add_argument("--config", type=str, default=None,
                        help="flat key=value config file; flags override it")
    return parser


def parse_config(argv: list[str] | None = None) -> ExperimentSpec:
    """Merge defaults, config file and flags into an ExperimentSpec."""
    args = vars(build_arg_parser().parse_args(argv))
    path = args.pop("config")
    values = read_config_file(path) if path is not None else {}
    values.update((name, value) for name, value in args.items() if value is not None)
    return ExperimentSpec(
        mode=values.get("mode", "single"),
        config=SimConfig(**{
            OPTIONS[name][1]: value for name, value in values.items() if OPTIONS[name][1]
        }),
        sweep_lambdas=values.get("sweep", []),
        output_path=values.get("out"),
        trace=values.get("trace", False),
        workers=values.get("workers", 1),
        meter_interval_s=values.get("meter_interval", 5),
        meter_stream_file=values.get("meter_file"),
    )


def _resolve_output(spec: ExperimentSpec, default_name: str) -> Path:
    if spec.output_path is not None:
        return Path(spec.output_path)
    return Path(os.environ.get(OUTPUT_DIR_ENV, ".")) / default_name


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _aggregate(stats: list[RunStats], lam: int) -> SweepPoint:
    """One CSV row from the runs at threshold ``lam``, reported as progress."""
    point = aggregate_runs(stats, lambda_=int(lam))
    _progress(
        f"lambda={lam}: interval {point.mean('mean_block_interval'):.3f} s, "
        f"throughput {point.mean('throughput'):.2f} tx/s, "
        f"uncle rate {point.mean('uncle_rate') * 100:.2f}% "
        f"({point.runs} runs)"
    )
    return point


def _write_csv(out: Path, points: list[SweepPoint]) -> Path:
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        write_sweep_csv(points, fh)
    _progress(f"wrote {out}")
    return out


def run_sweep(spec: ExperimentSpec) -> Path:
    """One CSV row per threshold in ``spec.sweep_lambdas``."""
    points = [
        _aggregate(run_many(dataclasses.replace(spec.config, lambda_=int(lam)),
                            workers=spec.workers), lam)
        for lam in spec.sweep_lambdas
    ]
    return _write_csv(_resolve_output(spec, "sweep.csv"), points)


def run_single(spec: ExperimentSpec) -> Path:
    """One CSV row at the configured threshold, or at ``MAINNET_PRESET``
    with the public-network reference printed beside it. With ``trace``,
    each run writes its event trace next to the output, and the statistics
    come from those same runs."""
    mainnet = spec.mode == "mainnet-compare"
    config = dataclasses.replace(spec.config, **MAINNET_PRESET) if mainnet else spec.config
    out = _resolve_output(spec, "mainnet_compare.csv" if mainnet else "single.csv")
    if spec.trace:
        stats = []
        for idx in range(config.num_runs):
            trace_file = out.parent / f"trace_run{idx}.csv"
            with open(trace_file, "w", encoding="utf-8", newline="\n") as fh:
                stats.append(run_simulation(config, idx, trace=fh).stats)
        _progress(f"wrote {config.num_runs} trace files to {out.parent}")
    else:
        stats = run_many(config, workers=spec.workers)
    point = _aggregate(stats, config.lambda_)
    if mainnet:
        print(
            "public-network reference: "
            f"{MAINNET_REFERENCE_TPS:.2f} tx/s at {MAINNET_REFERENCE_UNCLE_RATE * 100:.2f}% "
            f"uncles; simulated: {point.mean('throughput'):.2f} tx/s at "
            f"{point.mean('uncle_rate') * 100:.2f}% uncles "
            f"(interval {point.mean('mean_block_interval'):.2f} s)"
        )
    return _write_csv(out, [point])


@dataclass
class DemoReport:
    records_sent_trusted: int
    records_sent_untrusted: int
    records_confirmed: int
    records_recovered: int
    decryption_failures: int
    records_rejected: int
    stats: RunStats
    state: ReplayedState

    def lines(self) -> list[str]:
        return [
            f"records sent (trusted senders):   {self.records_sent_trusted}",
            f"records sent (untrusted sender):  {self.records_sent_untrusted}",
            f"records confirmed on chain:       {self.records_confirmed}",
            f"records recovered by decryption:  {self.records_recovered}",
            f"decryption failures:              {self.decryption_failures}",
            f"records rejected by the registry: {self.records_rejected}",
            f"mean block interval:              {self.stats.mean_block_interval:.3f} s",
            f"throughput:                       {self.stats.throughput:.2f} tx/s",
            f"uncle rate:                       {self.stats.uncle_rate * 100:.2f}%",
        ]


def _control_tx(sender, call: ContractCall, config: SimConfig) -> Transaction:
    return Transaction(
        tx_id=0, sender=sender, gas=config.mean_tx_gas, size_kb=config.tx_size_kb,
        payload=call,
    )


def run_e2e_demo(spec: ExperimentSpec) -> DemoReport:
    """Meters to chain and back: the owner deploys the registry and trusts
    two meter accounts; all three meters (one untrusted) stream encrypted
    readings; the canonical chain is replayed and every stored record is
    decrypted and checked against what was sent."""
    config = spec.config
    rng = random.Random(config.seed ^ 0x6D657465725F726E)
    owner = MeterAccount.generate("owner", rng)
    trusted = [MeterAccount.generate(f"SM-{i:02d}", rng) for i in (1, 2)]
    rogue = MeterAccount.generate("SM-03", rng)
    meters = trusted + [rogue]

    injected: list[tuple[float, int, Transaction]] = []
    injected.append((0.5, 0, _control_tx(owner.address, ContractCall(CallKind.DEPLOY), config)))
    for k, acct in enumerate(trusted):
        call = ContractCall(CallKind.ADD_ACC, addr=acct.address)
        injected.append((1.0 + 0.25 * k, 0, _control_tx(owner.address, call, config)))

    lead_in = 10.0
    stream_seconds = max(0, int(config.sim_duration - 2 * lead_in))
    epoch0 = 1_750_000_000
    sent: dict[tuple[str, int], Decimal] = {}
    sent_trusted = 0
    sent_untrusted = 0
    encrypted_nonces: list[bytes] = []
    for m_index, acct in enumerate(meters):
        if spec.meter_stream_file is not None:
            records = load_meter_stream(spec.meter_stream_file)
            records = [dataclasses.replace(r, device_id=acct.name) for r in records]
        else:
            records = simulate_meter_stream(
                acct.name, spec.meter_interval_s, stream_seconds, rng,
                start_time=epoch0,
            )
        home_node = (m_index + 1) % config.num_nodes
        for r_index, rec in enumerate(records):
            enc = encrypt_record(rec, acct.key, rng)
            encrypted_nonces.append(enc.nonce)
            tx = build_record_tx(enc, acct.address, gas=config.mean_tx_gas)
            send_time = lead_in + r_index * spec.meter_interval_s + 0.1 * m_index
            injected.append((send_time, home_node, tx))
            sent[(rec.device_id, rec.collected_at)] = rec.energy_kwh
            if acct is rogue:
                sent_untrusted += 1
            else:
                sent_trusted += 1
    if len(set(encrypted_nonces)) != len(encrypted_nonces):
        raise AssertionError("duplicate record nonce within one run")

    result = run_simulation(config, 0, injected=injected)
    state = replay_chain(result.canonical_blocks())

    key_by_addr = {acct.address: acct.key for acct in meters}
    recovered = 0
    failures = 0
    for idx in range(1, state.total_of_reco + 1):
        reco = state.reco[idx]
        event = state.event_log[idx - 1]
        try:
            enc = unpack_record_fields(reco.id, reco.time, reco.value)
            rec = decrypt_record(enc, key_by_addr[event.addr])
        except Exception:
            failures += 1
            continue
        if sent.get((rec.device_id, rec.collected_at)) == rec.energy_kwh:
            recovered += 1
        else:
            failures += 1

    return DemoReport(
        records_sent_trusted=sent_trusted,
        records_sent_untrusted=sent_untrusted,
        records_confirmed=state.total_of_reco,
        records_recovered=recovered,
        decryption_failures=failures,
        records_rejected=state.failures_by_sender.get(rogue.address, 0),
        stats=result.stats,
        state=state,
    )


def main(argv: list[str] | None = None) -> int:
    try:
        spec = parse_config(argv)
        spec.validate()
    except (ConfigFileError, InvalidConfig) as exc:
        print(f"gridchain: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if spec.mode == "sweep":
            run_sweep(spec)
        elif spec.mode != "e2e-demo":
            run_single(spec)
        else:
            report = run_e2e_demo(spec)
            for line in report.lines():
                print(line)
            if spec.output_path is not None:
                Path(spec.output_path).write_text(
                    "\n".join(report.lines()) + "\n", encoding="utf-8"
                )
    except (ConfigFileError, InvalidConfig) as exc:
        print(f"gridchain: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failure
        print(f"gridchain: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
