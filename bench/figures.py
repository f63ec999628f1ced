"""Markdown tables of the benchmark's figures for one seed, read from the
result files that ``run.py`` wrote. Runs nothing itself.

    for w in paper-sweep slow-link meter-demo; do for t in 0 1; do
        python3 bench/run.py --workload $w --seed 1 --seconds 30 --trace $t
    done; done
    python3 bench/figures.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent / "results"
WORKLOADS = ("paper-sweep", "slow-link", "meter-demo")


def _load(workload: str, seed: int, trace: int) -> dict:
    path = RESULTS_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    if not path.is_file():
        sys.exit(f"figures: {path} is missing; run bench/run.py first")
    return json.loads(path.read_text())


def _fmt(value: float) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args(argv).seed
    plain = {w: _load(w, seed, 0) for w in WORKLOADS}
    traced = {w: _load(w, seed, 1) for w in WORKLOADS}

    print("| workload | setup_s | wall_s | peak_rss_mb | raw wall_s | rounds | operations "
          "| trace.overhead_s |")
    print("|---|---|---|---|---|---|---|---|")
    for w, r in plain.items():
        m = r["metrics"]
        print(f"| `{w}` | {_fmt(m['setup_s']['value'])} | {_fmt(m['wall_s']['value'])} "
              f"| {_fmt(m['peak_rss_mb']['value'])} | {_fmt(r['raw_wall_s'])} "
              f"| {r['rounds']} | {r['attempted']} "
              f"| {_fmt(traced[w]['metrics']['trace.overhead_s']['value'])} |")

    print()
    print("| per-layer metric (per round) | " + " | ".join(f"`{w}`" for w in WORKLOADS) + " |")
    print("|---|" + "---|" * len(WORKLOADS))
    for name in traced[WORKLOADS[0]]["metrics"]:
        cells = [_fmt(traced[w]["metrics"][name]["value"]) for w in WORKLOADS]
        print(f"| `{name}` | " + " | ".join(cells) + " |")

    print()
    print("| simulated | mean interval (s) | uncle rate | throughput (tx/s) |")
    print("|---|---|---|---|")
    for key, row in plain["paper-sweep"]["summary"].items():
        print(f"| `paper-sweep` {key} | {row['interval_s']:.3f} | {row['uncle_rate']:.4f} "
              f"| {row['throughput_tps']:.2f} |")
    runs = plain["slow-link"]["summary"].values()
    print("| `slow-link` (mean of runs) | "
          + " | ".join(f"{statistics.mean(r[k] for r in runs):.{d}f}"
                       for k, d in (("interval_s", 3), ("uncle_rate", 4), ("throughput_tps", 2)))
          + " |")
    demo = plain["meter-demo"]["summary"]
    print(f"| `meter-demo` | {demo['mean block interval']} | {demo['uncle rate']} "
          f"| {demo['throughput']} |")
    print()
    print("meter-demo: " + "; ".join(f"{k} {v}" for k, v in demo.items()
                                     if k.startswith("records") or k.startswith("decryption")))
    print()
    print("digests: " + ", ".join(f"`{w}` {plain[w]['digest'][:16]}" for w in WORKLOADS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
