"""Benchmark of the gridchain simulator.

    python3 bench/run.py --workload {paper-sweep,slow-link,meter-demo}
                         --seed N --seconds S --trace {0,1}

Run from the repository root. The source is imported from ``src/``; no
install is needed. The command repeats whole rounds of the workload (one
pass of its body, every operation checked) until ``--seconds`` have passed,
prints the sha256 of the outputs as ``digest <hex>``, and as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over fresh
interpreters of the host time to import gridchain and build the workload's
inputs), ``wall_s`` (host time of one pass of the body: the sum over its
operations of each one's median across rounds) and ``peak_rss_mb``. Both
times are given at the nominal host speed of ``hostspeed.py``; the raw
per-operation times and reference times go to the result file.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones, per round, with ``trace.overhead_s``,
the traced minus the untraced ``wall_s``. Both write the full result, with
a summary of the simulated figures, to
``bench/results/<workload>-seed<N>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
RESULTS_DIR = BENCH_DIR / "results"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def time_setup(workload: str, seed: int) -> float:
    """Host seconds from starting a fresh interpreter until it has imported
    gridchain and built the workload's inputs, at the nominal host speed.
    The interpreter runs the host-speed reference right after, and its time
    scales the measured one."""
    cmd = [sys.executable, str(Path(__file__)), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            reference, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode} after {ready!r}")
    return hostspeed.at_nominal_speed(elapsed, float(reference))


def _body_seconds(op_seconds: dict[str, list[float]]) -> float:
    """Seconds of one pass of the body: the sum over its operations of each
    operation's median across rounds, so an operation that ran in a fast or
    slow spell of the host in one round does not move the figure."""
    return sum(statistics.median(times) for times in op_seconds.values())


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat rounds until ``seconds`` have passed; with ``trace``, every
    second round is traced, starting untraced."""
    import layers
    from workloads import WORKLOADS, Ledger

    make_inputs, body = WORKLOADS[workload]
    inputs = make_inputs(seed)
    tracer = layers.Tracer() if trace else None
    # Per untraced/traced: label -> seconds of the operation in each round,
    # at the nominal host speed and raw; and the host-speed reference times.
    op_seconds: dict[bool, dict[str, list[float]]] = {False: {}, True: {}}
    raw_seconds: dict[bool, dict[str, list[float]]] = {False: {}, True: {}}
    references: dict[bool, list[float]] = {False: [], True: []}
    rounds = {False: 0, True: 0}
    attempted = failed = 0
    problems: list[str] = []
    digests: list[str] = []
    summary: dict = {}
    start = time.perf_counter()
    while True:
        traced = trace and rounds[False] > rounds[True]
        ledger = Ledger(tracer if traced else None)
        if traced:
            tracer.install()
        try:
            body(inputs, ledger)
        finally:
            if traced:
                tracer.uninstall()
        rounds[traced] += 1
        for label, t in ledger.nominal_seconds().items():
            op_seconds[traced].setdefault(label, []).append(t)
            raw_seconds[traced].setdefault(label, []).append(ledger.seconds[label])
        references[traced] += ledger.references
        attempted += ledger.attempted
        failed += ledger.failed
        problems += ledger.problems
        digests.append(ledger.digest())
        summary = ledger.summary
        if time.perf_counter() - start >= seconds and (not trace or rounds[True]):
            break

    if len(set(digests)) != 1:
        problems.append(f"output digest differs between rounds: {sorted(set(digests))}")
    wall = _body_seconds(op_seconds[False])
    if trace:
        overhead = _body_seconds(op_seconds[True]) - wall
        speed = hostspeed.NOMINAL_S / statistics.median(references[True])
        values = tracer.report(rounds[True], overhead, speed)
        metrics = {name: {"value": v, "unit": layers.PER_LAYER[name][0]}
                   for name, v in values.items()}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    return {
        "correct": failed == 0 and len(set(digests)) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "digest": digests[0],
        "rounds": rounds[False],
        "traced_rounds": rounds[True],
        "raw_wall_s": _body_seconds(raw_seconds[False]),
        "op_seconds": op_seconds[False],
        "raw_op_seconds": raw_seconds[False],
        "traced_op_seconds": op_seconds[True],
        "reference_s": references[False],
        "problems": problems,
        "summary": summary,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "gridchain" / "__init__.py").is_file():
        print(f"bench: no gridchain source under {SRC_DIR}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.probe_setup:
        WORKLOADS[args.workload][0](args.seed)
        print("ready", flush=True)
        print(hostspeed.reference())
        return 0

    setup_s = None
    if not args.trace:
        setup_s = statistics.median(time_setup(args.workload, args.seed)
                                    for _ in range(SETUP_PROBES))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if setup_s is not None:
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **result["metrics"]}

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                               "seconds": args.seconds, **result}, indent=2) + "\n")
    for problem in result["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    print(f"digest {result['digest']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
