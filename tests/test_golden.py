"""Golden fingerprints of the simulator's outputs.

Each cell hashes (sha256) one output that a refactor or speed-up must leave
byte-identical: a small sweep CSV, ``repr(RunStats)`` with every node's head
for a few (config, run) cells, the ``--trace`` CSV (every mined and received
block, in event order) of two fork-heavy cells, the registry dump of a
short end-to-end demo, and the files and standard output of four command
lines. A change that moves results on purpose re-pins the affected cells and
names them, with the reason, in CHANGES.md.
"""

import hashlib
import io

import pytest

from gridchain.cli import EXIT_OK, ExperimentSpec, main, run_e2e_demo
from gridchain.contract import dump_state
from gridchain.metrics import aggregate_runs, write_sweep_csv
from gridchain.netsim import SimConfig, run_many, run_simulation

from conftest import line_link_delays


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def paper_config(lambda_: int) -> SimConfig:
    """The paper's setup (3 miners, 0.25 s, 100 tx/s) over 600 s."""
    return SimConfig(lambda_=lambda_, sim_duration=600.0, warmup_blocks=10, seed=1)


def fork_config(tx_rate: float) -> SimConfig:
    """Fork-heavy: 6 miners behind a 2 s link at threshold 1."""
    return SimConfig(lambda_=1, num_nodes=6, propagation_delay=2.0, tx_rate=tx_rate,
                     sim_duration=600.0, warmup_blocks=10, seed=1)


def links_config() -> SimConfig:
    """Fork-heavy with per-link delays: 4 unequal miners on a line."""
    return SimConfig(lambda_=1, num_nodes=4, hash_shares=(0.4, 0.3, 0.2, 0.1),
                     propagation_delay=0.5, tx_rate=20.0, sim_duration=600.0,
                     warmup_blocks=10, seed=1,
                     link_delays=line_link_delays((0.0, 0.3, 1.0, 2.2), 0.2))


# name -> (config, run index)
RUN_CELLS = {
    "paper-l1-r0": (paper_config(1), 0),
    "paper-l1-r1": (paper_config(1), 1),
    "paper-l12-r0": (paper_config(12), 0),
    "fork-5tps-r0": (fork_config(5.0), 0),
    "fork-5tps-r1": (fork_config(5.0), 1),
    "fork-100tps-r0": (fork_config(100.0), 0),
}

# name -> (config, run index) whose event trace is pinned
TRACE_CELLS = {
    "trace-fork-5tps-r0": (fork_config(5.0), 0),
    "trace-links-r0": (links_config(), 0),
}

PINNED = {
    "sweep-csv": "e8a7de5c99fb794ef18bacec4872f0b83999914a3d5b6989d708b2e533df4eb6",
    "paper-l1-r0": "abdbbe19188427692bf26972c344fc54a2d10a109d0115f740cfbb649dd1d442",
    "paper-l1-r1": "1feed22810118c0bb3460ff2bf7fb9d3b7639fcc6c3811dba2dcbc12cc3e9cb2",
    "paper-l12-r0": "7645e05fa25412b6b2f71927b7baa9b6fa2e0508fded843d3a449f6ad5ad39d1",
    # Re-pinned when reorged-out transactions began returning to the pool
    # of every node that had them delivered (same RunStats, other blocks).
    "fork-5tps-r0": "0d89b57355d3d7f94b7ee0652e8cbc459bb4c2dd8c5f898fbaef73d008f8dd3c",
    "fork-5tps-r1": "f82bbcf4f53246081b1133a2c36a07bb6d1c5fc8ceee34ba0b16e3c559079096",
    "fork-100tps-r0": "f4b99a28121a6e4b639731a8108f615f4d1cd1eeab7e2ee9001e8697e431bd46",
    "trace-fork-5tps-r0": "2fa1174b5114f827f7a92ca0210eaeacc0a8a9f1672ccdc61f35dc10237bbf36",
    "trace-links-r0": "586e124f8b6589349aa276d6c506c3c673f3a3809f6bd19ef940fcb56f9cfeb6",
    "demo-state": "9f00beaae89ba3d3fb98eb9b1c80f167334f1f13b38b840c5aaf586c6778390b",
}

SWEEP_CONF = """\
mode = sweep
sweep = 1,3
nodes = 2
hash-shares = 0.7,0.3
workers = 2
duration = 300
runs = 2
seed = 5
warmup-blocks = 10
total-hashrate = 262144
"""

# name -> (command line, output files hashed in order, whether stdout is
# hashed); "{dir}" is the temporary directory the command runs in.
CLI_CELLS = {
    "cli-single": (
        "--mode single --lambda 2 --duration 300 --runs 2 --seed 4 --out {dir}/single.csv",
        ["single.csv"], False),
    "cli-single-trace": (
        "--mode single --lambda 1 --nodes 4 --delay 1.5 --tx-rate 10 --duration 300 "
        "--runs 2 --seed 6 --trace --out {dir}/single.csv",
        ["single.csv", "trace_run0.csv", "trace_run1.csv"], False),
    "cli-sweep-config": (
        "--config {dir}/sweep.conf --out {dir}/sweep.csv", ["sweep.csv"], False),
    "cli-mainnet-compare": (
        "--mode mainnet-compare --duration 2500 --runs 2 --seed 7 --out {dir}/mainnet.csv",
        ["mainnet.csv"], True),
}

CLI_PINNED = {
    "cli-single": "fdaa8ccdaf5f3fb54c5e1c4bdfd7c08e59393f5e228350c3c594e5faff292741",
    "cli-single-trace": "b7d258755fa768f569928666f8eac7a719238e566424b0ba34be22aca36199dd",
    "cli-sweep-config": "3a8645b5ba89f3047f787870afc7520d7ff344d4e8656af9b3f5a8e50a23ec2a",
    "cli-mainnet-compare": "b9b06568e2b28ee9525e9dcf1113f8ca7fc52609cd260a0bab07a3a3b90a97b4",
}


def run_fingerprint(config: SimConfig, run_index: int) -> str:
    result = run_simulation(config, run_index)
    return _sha(repr(result.stats) + "\n" + ",".join(result.heads))


def trace_fingerprint(config: SimConfig, run_index: int) -> str:
    buf = io.StringIO()
    run_simulation(config, run_index, trace=buf)
    return _sha(buf.getvalue())


def sweep_fingerprint() -> str:
    points = []
    for lam in (1, 3, 12):
        config = SimConfig(lambda_=lam, sim_duration=400.0, warmup_blocks=5, num_runs=2,
                           seed=3)
        points.append(aggregate_runs(run_many(config), lambda_=lam))
    buf = io.StringIO()
    write_sweep_csv(points, buf)
    return _sha(buf.getvalue())


def demo_fingerprint() -> str:
    config = SimConfig(lambda_=3, sim_duration=300.0, warmup_blocks=10, seed=2)
    report = run_e2e_demo(ExperimentSpec(mode="e2e-demo", config=config, sweep_lambdas=[]))
    return _sha(dump_state(report.state) + repr(report.stats))


def fingerprint(name: str) -> str:
    if name == "sweep-csv":
        return sweep_fingerprint()
    if name == "demo-state":
        return demo_fingerprint()
    if name in TRACE_CELLS:
        return trace_fingerprint(*TRACE_CELLS[name])
    return run_fingerprint(*RUN_CELLS[name])


def cli_fingerprint(name: str, tmp_path, capsys) -> str:
    command, files, with_stdout = CLI_CELLS[name]
    (tmp_path / "sweep.conf").write_text(SWEEP_CONF, encoding="utf-8")
    capsys.readouterr()
    assert main(command.format(dir=tmp_path).split()) == EXIT_OK
    parts = [f"{f}\n" + (tmp_path / f).read_text(encoding="utf-8") for f in files]
    if with_stdout:
        parts.append("stdout\n" + capsys.readouterr().out)
    return _sha("".join(parts))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_golden_fingerprint(name):
    assert fingerprint(name) == PINNED[name]


@pytest.mark.parametrize("name", sorted(CLI_PINNED))
def test_cli_fingerprint(name, tmp_path, capsys):
    assert cli_fingerprint(name, tmp_path, capsys) == CLI_PINNED[name]
