"""The benchmark's workloads: inputs made from a seed, and one pass of each
workload's body (a round) as a list of checked operations.

* ``paper-sweep``: the paper's trade-off curve at the paper's setup
  (3 miners, 0.25 s delay, 100 tx/s, 3000 s runs), two runs per threshold,
  aggregated into the sweep CSV. The transaction pool dominates.
* ``slow-link``: meter-rate traffic (5 tx/s) over a 2 s link between 6 miners
  at threshold 1. Forks, uncle selection, header validation and reorgs
  dominate; the pool is nearly idle.
* ``meter-demo``: the end-to-end demo at threshold 3 over 3000 s. Record
  encryption, the injected-transaction merge, registry replay and decryption
  sit next to the same pool as ``paper-sweep``.
"""

from __future__ import annotations

import hashlib
import io
import time
from contextlib import nullcontext

import checks
import hostspeed
import gridchain.cli as cli
import gridchain.contract as contract
import gridchain.metrics as metrics
import gridchain.netsim as netsim

PAPER_LAMBDAS = (1, 2, 3, 6, 9, 12)
DURATION_S = 3000.0


def paper_sweep_inputs(seed: int, duration: float = DURATION_S, runs: int = 2):
    return [netsim.SimConfig(lambda_=lam, sim_duration=duration, num_runs=runs, seed=seed)
            for lam in PAPER_LAMBDAS]


def slow_link_inputs(seed: int, duration: float = DURATION_S, runs: int = 4):
    return [netsim.SimConfig(lambda_=1, num_nodes=6, propagation_delay=2.0, tx_rate=5.0,
                             sim_duration=duration, num_runs=runs, seed=seed)]


def meter_demo_inputs(seed: int, duration: float = DURATION_S):
    config = netsim.SimConfig(lambda_=3, sim_duration=duration, seed=seed)
    return cli.ExperimentSpec(mode="e2e-demo", config=config, sweep_lambdas=[])


class Ledger:
    """Operations of a round: how many were attempted and failed, the
    problems found, the host seconds and the sha256 of each operation's
    output. Every operation runs right after the host-speed reference."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[str] = []
        self.seconds: dict[str, float] = {}
        self.references: list[float] = []
        self.summary: dict = {}

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def op(self, label: str, fn) -> None:
        """Run one operation; it fails if it raises or a check finds a problem."""
        self.attempted += 1
        self.references.append(hostspeed.reference())
        t0 = time.perf_counter()
        try:
            problems = fn()
        except Exception as exc:  # an operation that raises is a failed operation
            problems = [f"raised {exc!r}"]
        self.seconds[label] = time.perf_counter() - t0
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def nominal_seconds(self) -> dict[str, float]:
        """Each operation's seconds at the nominal host speed, from the
        reference runs before and after it."""
        refs = self.references + [hostspeed.reference()]
        return {label: hostspeed.at_nominal_speed(s, (refs[i] + refs[i + 1]) / 2)
                for i, (label, s) in enumerate(self.seconds.items())}

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.digests).encode()).hexdigest()


def _simulate(config, run_index: int, ledger: Ledger, out: list):
    def op():
        result = netsim.run_simulation(config, run_index)
        ledger.digests.append(checks.run_digest(result))
        out.append(result.stats)
        return checks.check_run(config, result)
    ledger.op(f"lambda={config.lambda_} run={run_index}", op)


def run_paper_sweep(configs, ledger: Ledger) -> None:
    per_lambda = {}
    for config in configs:
        per_lambda[config.lambda_] = stats = []
        for i in range(config.num_runs):
            _simulate(config, i, ledger, stats)

    def aggregate():
        with ledger.span("metrics.aggregate"):
            points = [metrics.aggregate_runs(s, lambda_=lam) for lam, s in per_lambda.items()]
            buf = io.StringIO()
            metrics.write_sweep_csv(points, buf)
        ledger.digests.append(hashlib.sha256(buf.getvalue().encode()).hexdigest())
        ledger.summary = {
            f"lambda={p.lambda_}": {"interval_s": p.mean("mean_block_interval"),
                                    "uncle_rate": p.mean("uncle_rate"),
                                    "throughput_tps": p.mean("throughput")}
            for p in points
        }
        return checks.check_sweep(per_lambda, buf.getvalue())
    ledger.op("aggregate", aggregate)


def run_slow_link(configs, ledger: Ledger) -> None:
    stats = []
    for config in configs:
        for i in range(config.num_runs):
            _simulate(config, i, ledger, stats)
    ledger.summary = {f"run={i}": {"interval_s": s.mean_block_interval,
                                   "uncle_rate": s.uncle_rate,
                                   "throughput_tps": s.throughput}
                      for i, s in enumerate(stats)}


def run_meter_demo(spec, ledger: Ledger) -> None:
    def op():
        report = cli.run_e2e_demo(spec)
        text = contract.dump_state(report.state) + repr(report.stats)
        ledger.digests.append(hashlib.sha256(text.encode()).hexdigest())
        ledger.summary = {k.strip(): v.strip()
                          for k, v in (line.split(":", 1) for line in report.lines())}
        return checks.check_demo(spec, report)
    ledger.op("demo", op)


# name -> (inputs from a seed, one round's body)
WORKLOADS = {
    "paper-sweep": (paper_sweep_inputs, run_paper_sweep),
    "slow-link": (slow_link_inputs, run_slow_link),
    "meter-demo": (meter_demo_inputs, run_meter_demo),
}

