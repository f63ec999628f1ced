"""Figures of merit: throughput, uncle rate, block interval.

Conventions applied uniformly:
  * statistics cover the canonical segment after the warm-up prefix;
  * throughput counts unique canonical-chain transactions per second of
    timestamp time (uncle-carried transactions do not count);
  * uncle rate is included_uncles / (canonical_blocks + included_uncles);
    uncles-per-canonical-block is also derivable from the reported counts.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, fields
from typing import Iterable, Sequence, TextIO

from .chain import BlockTree

CSV_HEADER = (
    "lambda,mean_interval_s,interval_std,throughput_tps,throughput_std,"
    "uncle_rate,uncle_rate_std,orphans,confirmed,pending,runs"
)


class MetricsError(Exception):
    pass


class ChainTooShort(MetricsError):
    """A canonical chain of fewer than two blocks: no interval defined."""


class EmptyInput(MetricsError):
    pass


@dataclass(frozen=True, slots=True)
class RunStats:
    """Measured output of one simulation run.

    ``throughput`` counts the transactions of all n measured blocks but
    divides by the timestamp span of their n - 1 intervals, so it reads high
    by a factor of 1 + 1/(n - 1). The worst case is the 2-block window a
    short run leaves: 5 s at threshold 12 reports 433 transactions over a
    3 s span, 144.33 tx/s against 100 tx/s arrivals.
    """

    throughput: float
    uncle_rate: float
    mean_block_interval: float
    canonical_blocks: int
    included_uncles: int
    orphaned_blocks: int
    confirmed_tx: int
    pending_tx: int
    warmup_blocks_discarded: int
    # Conservation partition over every generated transaction (whole chain,
    # not just the post-warm-up segment): confirmed + pending + uncle-only.
    # compute_run_stats counts every id off the chain as pending: uncle-only is 0.
    generated_tx: int = 0
    confirmed_tx_total: int = 0
    uncle_only_tx: int = 0


_NUMERIC_FIELDS = [f.name for f in fields(RunStats)]


@dataclass(frozen=True, slots=True)
class FieldStat:
    mean: float
    std: float


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """Mean and sample standard deviation of every RunStats field."""

    lambda_: int
    runs: int
    stats: dict[str, FieldStat]

    def mean(self, name: str) -> float:
        return self.stats[name].mean

    def std(self, name: str) -> float:
        return self.stats[name].std


def compute_run_stats(tree: BlockTree, head: str, warmup: int, generated_tx: int) -> RunStats:
    """Statistics of the canonical chain ending at ``head``, ``generated_tx``
    transactions having been created: how every run is measured.

    The window leaves out the first ``warmup`` blocks, clamped to
    ``len(chain) - 2`` so that a short chain still measures two blocks;
    ``warmup_blocks_discarded`` reports the warm-up applied. Its time is
    timestamp time from its first block to the head. The conservation
    partition covers the whole chain: ``confirmed_tx_total`` counts its
    transactions and every other generated id is pending, so
    ``uncle_only_tx`` is 0. A chain of fewer than two blocks has no interval
    and raises ChainTooShort; a negative ``warmup`` raises ValueError.
    """
    if warmup < 0:
        raise ValueError(f"warm-up must be non-negative, got {warmup}")
    chain = tree.canonical_chain(head)
    if len(chain) < 2:
        raise ChainTooShort("need at least two post-warm-up blocks for an interval")
    warmup = min(warmup, len(chain) - 2)
    segment = chain[warmup:]
    span = segment[-1].header.timestamp - segment[0].header.timestamp
    confirmed = sum(len(b.tx_ids) for b in segment)
    confirmed_total = sum(len(b.tx_ids) for b in chain)
    included_uncles = sum(len(b.header.uncle_ids) for b in segment)
    canonical_blocks = len(segment)

    canonical_ids = {b.block_id for b in chain}
    referenced_uncles = {u for b in chain for u in b.header.uncle_ids}
    orphaned = sum(
        1 for bid in tree.blocks if bid not in canonical_ids and bid not in referenced_uncles
    )

    return RunStats(
        throughput=confirmed / span,
        uncle_rate=included_uncles / (canonical_blocks + included_uncles),
        mean_block_interval=span / (len(segment) - 1),
        canonical_blocks=canonical_blocks,
        included_uncles=included_uncles,
        orphaned_blocks=orphaned,
        confirmed_tx=confirmed,
        pending_tx=generated_tx - confirmed_total,
        warmup_blocks_discarded=warmup,
        generated_tx=generated_tx,
        confirmed_tx_total=confirmed_total,
    )


def aggregate_runs(stats: Sequence[RunStats], lambda_: int = 0) -> SweepPoint:
    """Arithmetic mean and sample standard deviation per RunStats field.

    Permutation-invariant; a single run reports zero standard deviation.
    """
    if not stats:
        raise EmptyInput("no runs to aggregate")
    out: dict[str, FieldStat] = {}
    for name in _NUMERIC_FIELDS:
        values = [float(getattr(s, name)) for s in stats]
        mean = math.fsum(values) / len(values)
        std = statistics.stdev(values) if len(values) > 1 else 0.0
        out[name] = FieldStat(mean=mean, std=std)
    return SweepPoint(lambda_=lambda_, runs=len(stats), stats=out)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def sweep_csv_row(point: SweepPoint) -> str:
    cells = [
        str(point.lambda_),
        _fmt(point.mean("mean_block_interval")),
        _fmt(point.std("mean_block_interval")),
        _fmt(point.mean("throughput")),
        _fmt(point.std("throughput")),
        _fmt(point.mean("uncle_rate")),
        _fmt(point.std("uncle_rate")),
        _fmt(point.mean("orphaned_blocks")),
        _fmt(point.mean("confirmed_tx")),
        _fmt(point.mean("pending_tx")),
        str(point.runs),
    ]
    return ",".join(cells)


def write_sweep_csv(points: Iterable[SweepPoint], out: TextIO) -> None:
    out.write(CSV_HEADER + "\n")
    for point in points:
        out.write(sweep_csv_row(point) + "\n")
