"""Experiment runner: single runs, threshold sweeps, a public-network
comparison point (a single run at a preset), and the end-to-end
meter-to-chain demo. The first three write one CSV table through one loop,
``run_table``: a row per threshold of a sweep, else one row.

Configuration comes from the defaults of ``SimConfig`` and
``ExperimentSpec``, then an optional flat ``key=value`` file, then
command-line flags (flags win); ``OPTIONS`` lists every setting once and
names the field of either dataclass it fills. CSV output follows the schema
in :mod:`gridchain.metrics`; progress goes to standard error.

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .chain import Transaction
from .contract import CallKind, ContractCall, ReplayedState, replay_chain
from .meter import (
    MeterAccount,
    MeterError,
    MeterRecord,
    MeterStreamError,
    build_record_tx,
    decrypt_record,
    encrypt_record,
    load_meter_stream,
    simulate_meter_stream,
    unpack_record_fields,
)
from .metrics import ChainTooShort, RunStats, aggregate_runs, write_sweep_csv
from .netsim import InvalidConfig, SimConfig, run_many, run_simulation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

OUTPUT_DIR_ENV = "GRIDCHAIN_OUT_DIR"

MODES = ("single", "sweep", "mainnet-compare", "e2e-demo")
# The output file a mode writes when --out is not given; e2e-demo writes
# none then.
DEFAULT_OUTPUT = {"single": "single.csv", "sweep": "sweep.csv",
                  "mainnet-compare": "mainnet_compare.csv"}

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
    mode: str = "single"
    config: SimConfig = field(default_factory=SimConfig)
    sweep_lambdas: list[int] = field(default_factory=list)
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
        if self.trace and self.mode not in ("single", "mainnet-compare"):
            raise InvalidConfig(f"--trace applies to single and mainnet-compare, not {self.mode}")
        if self.sweep_lambdas and self.mode != "sweep":
            raise InvalidConfig(f"--sweep applies to sweep mode, not {self.mode}")
        if self.meter_stream_file is not None and self.mode != "e2e-demo":
            raise InvalidConfig(f"--meter-file applies to e2e-demo, not {self.mode}")
        if self.workers < 1:
            raise InvalidConfig("workers must be >= 1")
        if self.meter_interval_s < 1:
            raise InvalidConfig("meter interval must be >= 1 second")
        self.config.validate()
        for k, lam in enumerate(self.sweep_lambdas):
            if lam in self.sweep_lambdas[:k]:
                raise InvalidConfig(f"--sweep repeats threshold {lam}")
            dataclasses.replace(self.config, lambda_=lam).validate()


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
# name -> (parser, field it sets, help). One table fills both dataclasses:
# the field is a SimConfig field, or else an ExperimentSpec field.
OPTIONS = {
    "mode": (str, "mode", f"one of {', '.join(MODES)} (default single)"),
    "lambda": (int, "lambda_", "difficulty threshold in seconds"),
    "sweep": (int_list, "sweep_lambdas", "comma-separated thresholds for sweep mode"),
    "nodes": (int, "num_nodes", "number of miners"),
    "hash_shares": (float_list, "hash_shares", "comma-separated per-node hashrate fractions"),
    "delay": (float, "propagation_delay", "propagation delay in seconds, blocks and transactions"),
    "tx_rate": (float, "tx_rate", "transactions created per second"),
    "gas_limit": (int, "block_gas_limit", "block gas limit"),
    "tx_gas": (int, "mean_tx_gas", "gas per transaction"),
    "duration": (float, "sim_duration", "simulated seconds per run"),
    "runs": (int, "num_runs", "independent runs per threshold"),
    "seed": (int, "seed", "base seed; run i draws from (seed, i)"),
    "out": (str, "output_path", "output file"),
    "trace": (boolean, "trace", "single, mainnet-compare: write per-run traces beside the output"),
    "total_hashrate": (float, "total_hashrate", "difficulty solved per second, all miners"),
    "warmup_blocks": (int, "warmup_blocks", "canonical blocks left out of the statistics"),
    "initial_difficulty": (int, "initial_difficulty",
                           "genesis difficulty (default: the equilibrium estimate)"),
    "workers": (int, "workers", "parallel runs; the output does not depend on it"),
    "meter_interval": (int, "meter_interval_s", "e2e-demo: seconds between meter readings"),
    "meter_file": (str, "meter_stream_file",
                   "e2e-demo: input stream, device_id,unix_time,kwh per line"),
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
    targets = {OPTIONS[name][1]: value for name, value in values.items()}
    spec_fields = {f.name for f in dataclasses.fields(ExperimentSpec)}
    spec = ExperimentSpec(
        config=SimConfig(**{k: v for k, v in targets.items() if k not in spec_fields}),
        **{k: v for k, v in targets.items() if k in spec_fields},
    )
    fixed = [name for name in values if OPTIONS[name][1] in MAINNET_PRESET]
    if spec.mode == "mainnet-compare" and fixed:
        raise InvalidConfig(f"mainnet-compare runs at its own preset; remove {', '.join(fixed)}")
    return spec


def _resolve_output(spec: ExperimentSpec) -> Path | None:
    """The file the mode writes (its traces go beside it), or None."""
    if spec.output_path is not None:
        return Path(spec.output_path)
    if spec.mode == "e2e-demo":
        return None
    return Path(os.environ.get(OUTPUT_DIR_ENV, ".")) / DEFAULT_OUTPUT[spec.mode]


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _note_clamped_warmup(stats: list[RunStats], warmup: int, label: str) -> None:
    """A note on standard error when a run was too short for the configured
    warm-up, so the simulator discarded fewer blocks and measured a smaller
    window than a full run would."""
    applied = min(s.warmup_blocks_discarded for s in stats)
    if applied < warmup:
        _progress(
            f"gridchain: note: {label}: warm-up of {warmup} blocks clamped to {applied}; "
            f"smallest measured window {min(s.canonical_blocks for s in stats)} blocks"
        )


def run_table(spec: ExperimentSpec) -> Path:
    """The CSV of single, mainnet-compare and sweep: one row per threshold
    in ``spec.sweep_lambdas``, else one row at the configured threshold, or
    at ``MAINNET_PRESET`` with the public-network reference printed after
    it. With ``trace``, each run writes its event trace next to the output
    and runs serially, and the statistics come from those same runs."""
    mainnet = spec.mode == "mainnet-compare"
    base = dataclasses.replace(spec.config, **MAINNET_PRESET) if mainnet else spec.config
    out = _resolve_output(spec)
    points = []
    for lam in spec.sweep_lambdas or [base.lambda_]:
        config = dataclasses.replace(base, lambda_=lam)
        if spec.trace:
            stats = []
            for idx in range(config.num_runs):
                trace_file = out.parent / f"trace_run{idx}.csv"
                with open(trace_file, "w", encoding="utf-8", newline="\n") as fh:
                    stats.append(run_simulation(config, idx, trace=fh).stats)
            _progress(f"wrote {config.num_runs} trace files to {out.parent}")
        else:
            stats = run_many(config, workers=spec.workers)
        point = aggregate_runs(stats, lambda_=lam)
        _progress(
            f"lambda={lam}: interval {point.mean('mean_block_interval'):.3f} s, "
            f"throughput {point.mean('throughput'):.2f} tx/s, "
            f"uncle rate {point.mean('uncle_rate') * 100:.2f}% "
            f"({point.runs} runs)"
        )
        _note_clamped_warmup(stats, config.warmup_blocks, f"lambda={lam}")
        points.append(point)
    if mainnet:
        print(
            "public-network reference: "
            f"{MAINNET_REFERENCE_TPS:.2f} tx/s at {MAINNET_REFERENCE_UNCLE_RATE * 100:.2f}% "
            f"uncles; simulated: {point.mean('throughput'):.2f} tx/s at "
            f"{point.mean('uncle_rate') * 100:.2f}% uncles "
            f"(interval {point.mean('mean_block_interval'):.2f} s)"
        )
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        write_sweep_csv(points, fh)
    _progress(f"wrote {out}")
    return out


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
    return Transaction(tx_id=0, sender=sender, gas=config.mean_tx_gas, payload=call)


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
    sent: dict[bytes, MeterRecord] = {}  # record nonce -> the record sent
    sent_trusted = 0
    sent_untrusted = 0
    stream = None
    if spec.meter_stream_file is not None:
        stream = load_meter_stream(spec.meter_stream_file)
    for m_index, acct in enumerate(meters):
        if stream is not None:
            records = [dataclasses.replace(r, device_id=acct.name) for r in stream]
        else:
            records = simulate_meter_stream(
                acct.name, spec.meter_interval_s, stream_seconds, rng,
                start_time=epoch0,
            )
        home_node = (m_index + 1) % config.num_nodes
        # MeterAccount.address hashes the key on every read.
        sender = acct.address
        for r_index, rec in enumerate(records):
            enc = encrypt_record(rec, acct.key, rng)
            if enc.nonce in sent:
                raise AssertionError("duplicate record nonce within one run")
            tx = build_record_tx(enc, sender, gas=config.mean_tx_gas)
            send_time = lead_in + r_index * spec.meter_interval_s + 0.1 * m_index
            injected.append((send_time, home_node, tx))
            sent[enc.nonce] = rec
            if acct is rogue:
                sent_untrusted += 1
            else:
                sent_trusted += 1

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
        except MeterError:
            failures += 1
            continue
        if sent.get(enc.nonce) == rec:
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
        out = _resolve_output(spec)
        if out is not None and not out.parent.is_dir():
            raise InvalidConfig(f"output directory {out.parent} does not exist")
        if out is not None and out.is_dir():
            raise InvalidConfig(f"output {out} is a directory")
        if spec.mode != "e2e-demo":
            run_table(spec)
        else:
            report = run_e2e_demo(spec)
            for line in report.lines():
                print(line)
            _note_clamped_warmup([report.stats], spec.config.warmup_blocks, "e2e-demo")
            if out is not None:
                out.write_text("\n".join(report.lines()) + "\n", encoding="utf-8")
    except (ConfigFileError, InvalidConfig, ChainTooShort, MeterStreamError) as exc:
        print(f"gridchain: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failure
        print(f"gridchain: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
