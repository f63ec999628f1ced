"""Correctness checks of the benchmark, against properties the method must have.

Each check returns a list of problems; an empty list means the output passed.
The checks recompute what they compare against from the chain itself, with
their own arithmetic, and never call the layers they check (so they also add
nothing to the traced per-layer figures).
"""

from __future__ import annotations

import hashlib
import math
import statistics

# The difficulty rule of the paper: base difficulty, adjustment divisor and
# the floor of the interval term. The exponential term is zero at the block
# heights a 3000 s run reaches.
D0 = 131072
DIVISOR = 2048
ZETA_FLOOR = -99
UNCLE_GENERATIONS = (2, 7)
CSV_HEADER = (
    "lambda,mean_interval_s,interval_std,throughput_tps,throughput_std,"
    "uncle_rate,uncle_rate_std,orphans,confirmed,pending,runs"
)
MAX_PROBLEMS = 5


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _walk(blocks, head: str) -> list:
    """Genesis-to-head block list, following parent ids."""
    out = []
    cur = blocks[head]
    while True:
        out.append(cur)
        if cur.number == 0:
            break
        cur = blocks[cur.header.parent_id]
    out.reverse()
    return out


def run_digest(result) -> str:
    """sha256 of a run's ``repr(RunStats)`` and of every node's head."""
    text = repr(result.stats) + "\n" + ",".join(result.heads)
    return hashlib.sha256(text.encode()).hexdigest()


def check_run(config, result) -> list[str]:
    """Invariants of one simulation run, recomputed from node 0's tree."""
    problems: list[str] = []
    stats, tree, table = result.stats, result.trees[0], result.table
    blocks = tree.blocks
    if len(set(result.heads)) != 1:
        problems.append(f"nodes report {len(set(result.heads))} heads")
    if stats.generated_tx != table.count:
        problems.append(f"generated_tx {stats.generated_tx} != {table.count} arrivals")
    if stats.generated_tx != stats.confirmed_tx_total + stats.pending_tx + stats.uncle_only_tx:
        problems.append("generated != confirmed_total + pending + uncle_only")

    chain = _walk(blocks, result.heads[0])
    ids = [i for b in chain for i in b.tx_ids]
    if len(set(ids)) != len(ids):
        problems.append("a transaction id appears twice on the canonical chain")
    if len(ids) != stats.confirmed_tx_total:
        problems.append(f"{len(ids)} canonical transactions, confirmed_tx_total "
                        f"{stats.confirmed_tx_total}")

    lam, gas = config.lambda_, table.gas
    for b in blocks.values():
        h = b.header
        if h.number == 0:
            continue
        p = blocks[h.parent_id].header
        if h.number != p.number + 1 or h.timestamp <= p.timestamp:
            problems.append(f"block {h.block_id[:12]}: number or timestamp not increasing")
        y = 2 if p.uncle_ids else 1
        zeta = max(y - (h.timestamp - p.timestamp) // lam, ZETA_FLOOR)
        expected = max(D0, p.difficulty + p.difficulty // DIVISOR * zeta)
        if h.difficulty != expected:
            problems.append(f"block {h.block_id[:12]}: difficulty {h.difficulty} != {expected}")
        used = int(gas[list(b.tx_ids)].sum()) if b.tx_ids else 0
        if h.gas_used != used or used > config.block_gas_limit:
            problems.append(f"block {h.block_id[:12]}: gas_used {h.gas_used}, "
                            f"transactions {used}, limit {config.block_gas_limit}")
        if len(problems) >= MAX_PROBLEMS:
            return problems

    canonical = {b.block_id for b in chain}
    included: set[str] = set()
    lo, hi = UNCLE_GENERATIONS
    for b in chain:
        for uid in b.header.uncle_ids:
            uncle = blocks.get(uid)
            k = b.number - uncle.number + 1 if uncle is not None else -1
            if (uid in included or uid in canonical or not lo <= k <= hi
                    or chain[b.number - k].block_id != uncle.header.parent_id):
                problems.append(f"block {b.block_id[:12]}: invalid uncle {uid[:12]}")
            included.add(uid)
    orphans = sum(1 for bid in blocks if bid not in canonical and bid not in included)
    if orphans != stats.orphaned_blocks:
        problems.append(f"orphaned_blocks {stats.orphaned_blocks} != {orphans}")

    segment = chain[stats.warmup_blocks_discarded:]
    n = len(segment)
    if n < 2:
        return problems + [f"{n}-block measured window"]
    span = segment[-1].header.timestamp - segment[0].header.timestamp
    u = sum(len(b.header.uncle_ids) for b in segment)
    tx_all = sum(len(b.tx_ids) for b in segment)
    tx_after_first = tx_all - len(segment[0].tx_ids)
    if (n, u) != (stats.canonical_blocks, stats.included_uncles):
        problems.append(f"window has {n} blocks and {u} uncles, stats say "
                        f"{stats.canonical_blocks} and {stats.included_uncles}")
    if stats.confirmed_tx not in (tx_all, tx_after_first):
        problems.append(f"confirmed_tx {stats.confirmed_tx} is neither {tx_all} "
                        f"nor {tx_after_first}")
    if not _close(stats.mean_block_interval, span / (n - 1)):
        problems.append(f"interval {stats.mean_block_interval} != {span / (n - 1)}")
    if not _close(stats.uncle_rate, u / (n + u)):
        problems.append(f"uncle rate {stats.uncle_rate} != {u / (n + u)}")
    if not (tx_after_first / span * (1 - 1e-12) <= stats.throughput
            <= tx_all / span * (1 + 1e-12)):
        problems.append(f"throughput {stats.throughput} outside "
                        f"[{tx_after_first / span}, {tx_all / span}]")
    return problems


def _mean_std(values: list[float]) -> tuple[float, float]:
    mean = math.fsum(values) / len(values)
    return mean, statistics.stdev(values) if len(values) > 1 else 0.0


def expected_csv_row(lam: int, runs: list) -> str:
    """The sweep CSV row recomputed from the per-run stats."""
    cells = [str(lam)]
    for name, with_std in (("mean_block_interval", True), ("throughput", True),
                           ("uncle_rate", True), ("orphaned_blocks", False),
                           ("confirmed_tx", False), ("pending_tx", False)):
        mean, std = _mean_std([float(getattr(s, name)) for s in runs])
        cells.append(f"{mean:.6g}")
        if with_std:
            cells.append(f"{std:.6g}")
    cells.append(str(len(runs)))
    return ",".join(cells)


def check_sweep(per_lambda: dict[int, list], csv_text: str) -> list[str]:
    """The CSV matches the per-run stats, and the trade-off holds between
    the smallest and the largest threshold."""
    problems: list[str] = []
    lines = csv_text.splitlines()
    expected = [CSV_HEADER] + [expected_csv_row(lam, runs) for lam, runs in per_lambda.items()]
    for got, want in zip(lines, expected):
        if got != want:
            problems.append(f"CSV row {got!r} != {want!r}")
    if len(lines) != len(expected):
        problems.append(f"CSV has {len(lines)} lines, expected {len(expected)}")
    first, last = min(per_lambda), max(per_lambda)

    def mean(lam: int, name: str) -> float:
        return _mean_std([getattr(s, name) for s in per_lambda[lam]])[0]

    if not mean(last, "mean_block_interval") > mean(first, "mean_block_interval"):
        problems.append(f"interval at lambda={last} is not above lambda={first}")
    if not mean(last, "uncle_rate") < mean(first, "uncle_rate"):
        problems.append(f"uncle rate at lambda={last} is not below lambda={first}")
    return problems


def check_demo(spec, report) -> list[str]:
    """Sent, confirmed, recovered and rejected record counts of the demo."""
    problems: list[str] = []
    per_meter = int(spec.config.sim_duration - 20) // spec.meter_interval_s
    state = report.state
    if (report.records_sent_trusted, report.records_sent_untrusted) != (2 * per_meter, per_meter):
        problems.append(f"sent {report.records_sent_trusted} trusted and "
                        f"{report.records_sent_untrusted} untrusted, expected "
                        f"{2 * per_meter} and {per_meter}")
    if not report.records_recovered == report.records_confirmed > 0:
        problems.append(f"recovered {report.records_recovered} of "
                        f"{report.records_confirmed} confirmed records")
    if report.decryption_failures != 0:
        problems.append(f"{report.decryption_failures} decryption failures")
    if not report.records_rejected == state.failed_calls <= report.records_sent_untrusted:
        problems.append(f"rejected {report.records_rejected}, failed calls "
                        f"{state.failed_calls}, untrusted sent {report.records_sent_untrusted}")
    if state.applied_calls != report.records_confirmed + 3:
        problems.append(f"applied calls {state.applied_calls} != confirmed "
                        f"{report.records_confirmed} + 3")
    s = report.stats
    if s.generated_tx != s.confirmed_tx_total + s.pending_tx + s.uncle_only_tx:
        problems.append("generated != confirmed_total + pending + uncle_only")
    return problems
