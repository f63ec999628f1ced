"""Self-test of the benchmark at reduced size (about half a minute).

    python3 bench/selftest.py

Shows that the checks pass on today's outputs and fail on corrupted ones:
every count of a ``RunStats``, the interval, uncle rate and throughput, a
block's difficulty, gas and timestamp, a split head, a CSV cell, a sweep
without the trade-off and each count of the demo report. Also shows that
the output digest is the same with tracing on and off. Exits 0 when every
corruption is caught and every clean output passes.
"""

from __future__ import annotations

import dataclasses
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from gridchain import cli, metrics, netsim  # noqa: E402

SEED = 1
DURATION_S = 600.0


def _corrupt_block(result, field: str, delta: int):
    """The run with one field of one block of node 0 altered in place."""
    tree = result.trees[0]
    bid = next(b for b, blk in tree.blocks.items() if blk.number == 5)
    block = tree.blocks[bid]
    header = dataclasses.replace(block.header, **{field: getattr(block.header, field) + delta})
    tree.blocks[bid] = dataclasses.replace(block, header=header)
    return result


def _sweep_csv(per_lambda) -> str:
    buf = io.StringIO()
    metrics.write_sweep_csv([metrics.aggregate_runs(s, lambda_=lam)
                             for lam, s in per_lambda.items()], buf)
    return buf.getvalue()


def main() -> int:
    caught: list[str] = []
    missed: list[str] = []

    def expect(label: str, problems: list[str], fail: bool) -> None:
        if bool(problems) != fail:
            missed.append(f"{label}: {problems or 'no problem found'}")
        elif fail:
            caught.append(label)

    config = workloads.paper_sweep_inputs(SEED, DURATION_S, runs=1)[0]

    def fresh():
        return netsim.run_simulation(config, 0)

    expect("clean run", checks.check_run(config, fresh()), fail=False)
    for f in dataclasses.fields(metrics.RunStats):
        result = fresh()
        value = getattr(result.stats, f.name)
        changed = value + 1 if isinstance(value, int) else value * (1 + 1e-6) + 1e-3
        result.stats = dataclasses.replace(result.stats, **{f.name: changed})
        expect(f"RunStats.{f.name} changed", checks.check_run(config, result), fail=True)
    for field, delta in (("difficulty", 1), ("gas_used", 45_000), ("timestamp", -10)):
        result = _corrupt_block(fresh(), field, delta)
        expect(f"block {field} changed", checks.check_run(config, result), fail=True)
    result = fresh()
    result.heads[1] = result.trees[0].genesis_id
    expect("split heads", checks.check_run(config, result), fail=True)

    sweep = workloads.paper_sweep_inputs(SEED, DURATION_S, runs=1)
    ledger = workloads.Ledger()
    workloads.run_paper_sweep(sweep, ledger)
    expect("clean sweep", ledger.problems, fail=False)
    per_lambda = {c.lambda_: [netsim.run_simulation(c, 0).stats] for c in sweep}
    csv_text = _sweep_csv(per_lambda)
    expect("clean CSV", checks.check_sweep(per_lambda, csv_text), fail=False)
    lines = csv_text.splitlines()
    cells = lines[2].split(",")
    cells[3] += "1"
    lines[2] = ",".join(cells)
    expect("CSV cell changed", checks.check_sweep(per_lambda, "\n".join(lines)), fail=True)
    flat = {lam: per_lambda[1] for lam in per_lambda}
    expect("no trade-off", checks.check_sweep(flat, _sweep_csv(flat)), fail=True)

    spec = workloads.meter_demo_inputs(SEED, DURATION_S)
    report = cli.run_e2e_demo(spec)
    expect("clean demo", checks.check_demo(spec, report), fail=False)
    for name in ("records_sent_trusted", "records_sent_untrusted", "records_confirmed",
                 "records_recovered", "decryption_failures", "records_rejected"):
        bad = dataclasses.replace(report, **{name: getattr(report, name) + 1})
        expect(f"demo {name} changed", checks.check_demo(spec, bad), fail=True)

    digests = []
    for traced in (False, True):
        tracer = layers.Tracer()
        ledger = workloads.Ledger(tracer if traced else None)
        if traced:
            tracer.install()
        try:
            workloads.run_slow_link(workloads.slow_link_inputs(SEED, DURATION_S, runs=2), ledger)
        finally:
            tracer.uninstall()
        expect(f"slow-link traced={traced}", ledger.problems, fail=False)
        digests.append(ledger.digest())
    if digests[0] != digests[1]:
        missed.append(f"digest changes with tracing: {digests}")

    for label in caught:
        print(f"caught: {label}")
    for label in missed:
        print(f"MISSED: {label}")
    print(f"selftest: {len(caught)} corruptions caught, {len(missed)} missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
