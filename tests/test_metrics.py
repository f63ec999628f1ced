import io
import math
import random

import pytest

from gridchain.chain import BlockTree, make_genesis
from gridchain.metrics import (
    CSV_HEADER,
    ChainTooShort,
    EmptyInput,
    RunStats,
    aggregate_runs,
    compute_run_stats,
    sweep_csv_row,
    write_sweep_csv,
)

from conftest import extend, tx


def linear_chain(n_blocks, ts_step=3, txs_per_block=30):
    genesis = make_genesis(131072, timestamp=0)
    tree = BlockTree(genesis)
    cur = genesis
    next_tx = 0
    for k in range(n_blocks - 1):
        transactions = [tx(next_tx + j) for j in range(txs_per_block)]
        next_tx += txs_per_block
        cur = extend(tree, cur, difficulty=131072, ts=(k + 1) * ts_step,
                     transactions=transactions)
    return tree, cur.block_id


def stats(**overrides):
    base = dict(
        throughput=10.0,
        uncle_rate=0.0,
        mean_block_interval=3.0,
        canonical_blocks=100,
        included_uncles=0,
        orphaned_blocks=0,
        confirmed_tx=3000,
        pending_tx=0,
        warmup_blocks_discarded=0,
    )
    base.update(overrides)
    return RunStats(**base)


class TestComputeRunStats:
    def test_linear_101_block_chain(self):
        # timestamps 0..300 step 3, 30 txs per non-genesis block:
        # interval 300/100 = 3.0 s, throughput 3000/300 = 10 tx/s
        tree, head = linear_chain(101)
        got = compute_run_stats(tree, head, warmup=0, generated_tx=3000)
        assert got.mean_block_interval == pytest.approx(3.0)
        assert got.throughput == pytest.approx(10.0)
        assert got.uncle_rate == 0.0
        assert got.canonical_blocks == 101
        assert got.confirmed_tx == 3000

    def test_uncle_rate_denominator(self):
        # 95 canonical + 5 included uncles -> 5 / (95 + 5) = 0.05
        genesis = make_genesis(131072, timestamp=0)
        tree = BlockTree(genesis)
        cur = genesis
        stales = []
        for k in range(5):
            stales.append(extend(tree, cur, difficulty=131073, miner=2, ts=1000 + k))
        for k in range(94):
            uncles = (stales[k].block_id,) if k < 5 else ()
            cur = extend(tree, cur, difficulty=131072, ts=(k + 1) * 3, uncle_ids=uncles)
        got = compute_run_stats(tree, cur.block_id, warmup=0, generated_tx=0)
        assert got.canonical_blocks == 95
        assert got.included_uncles == 5
        assert got.uncle_rate == pytest.approx(0.05)
        assert got.orphaned_blocks == 0

    def test_orphans_counted(self):
        tree, head = linear_chain(10)
        genesis = tree.block(tree.genesis_id)
        extend(tree, genesis, difficulty=131073, miner=2, ts=555)  # never referenced
        got = compute_run_stats(tree, head, warmup=0, generated_tx=270)
        assert got.orphaned_blocks == 1

    def test_single_block_chain_too_short(self):
        genesis = make_genesis(131072)
        tree = BlockTree(genesis)
        with pytest.raises(ChainTooShort):
            compute_run_stats(tree, genesis.block_id, warmup=0, generated_tx=0)

    def test_warmup_must_leave_two_blocks(self):
        # a warm-up of 4 on a 5-block chain is clamped to 3: two blocks measured
        tree, head = linear_chain(5)
        got = compute_run_stats(tree, head, warmup=4, generated_tx=120)
        assert got == compute_run_stats(tree, head, warmup=3, generated_tx=120)
        assert got.canonical_blocks == 2
        assert got.warmup_blocks_discarded == 3

    def test_negative_warmup_is_refused(self):
        # runs never pass one (SimConfig.validate refuses it); a direct call
        # would otherwise measure a window taken from the chain's tail
        tree, head = linear_chain(5)
        with pytest.raises(ValueError, match="got -3"):
            compute_run_stats(tree, head, warmup=-3, generated_tx=120)

    def test_warmup_shifts_measurement_window(self):
        tree, head = linear_chain(11)
        got = compute_run_stats(tree, head, warmup=5, generated_tx=300)
        # segment is blocks 5..10 (timestamps 15..30): 5 intervals of 3 s and
        # six blocks' worth of transactions
        assert got.mean_block_interval == pytest.approx(3.0)
        assert got.canonical_blocks == 6
        assert got.confirmed_tx == 6 * 30
        assert got.throughput == pytest.approx(180 / 15)

    def test_partition_covers_the_whole_chain(self):
        # the warm-up's 120 transactions are confirmed but not measured
        tree, head = linear_chain(11)
        got = compute_run_stats(tree, head, warmup=5, generated_tx=350)
        assert got.confirmed_tx == 180
        assert got.confirmed_tx_total == 300
        assert got.pending_tx == 50
        assert got.uncle_only_tx == 0


class TestAggregateRuns:
    def test_identical_stats_zero_std(self):
        point = aggregate_runs([stats(), stats(), stats()], lambda_=3)
        assert point.mean("throughput") == 10.0
        assert point.std("throughput") == 0.0
        assert point.runs == 3

    def test_two_run_sample_stddev(self):
        point = aggregate_runs([stats(throughput=10.0), stats(throughput=20.0)])
        assert point.mean("throughput") == pytest.approx(15.0)
        assert point.std("throughput") == pytest.approx(math.sqrt(50.0))
        assert point.std("throughput") == pytest.approx(7.0710678, rel=1e-6)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            aggregate_runs([])

    def test_permutation_invariance(self):
        rng = random.Random(5)
        runs = [stats(throughput=rng.uniform(1, 100), uncle_rate=rng.random() / 10)
                for _ in range(20)]
        p1 = aggregate_runs(runs)
        shuffled = runs[:]
        rng.shuffle(shuffled)
        p2 = aggregate_runs(shuffled)
        for name in ("throughput", "uncle_rate", "mean_block_interval"):
            assert p1.mean(name) == pytest.approx(p2.mean(name), rel=1e-12)
            assert p1.std(name) == pytest.approx(p2.std(name), rel=1e-12)

    def test_single_run_zero_std(self):
        point = aggregate_runs([stats()])
        assert point.std("throughput") == 0.0


class TestCsv:
    def test_header_pinned(self):
        assert CSV_HEADER == (
            "lambda,mean_interval_s,interval_std,throughput_tps,throughput_std,"
            "uncle_rate,uncle_rate_std,orphans,confirmed,pending,runs"
        )

    def test_row_formatting_six_significant_digits(self):
        point = aggregate_runs(
            [stats(throughput=77.7231555, uncle_rate=0.0488123,
                   mean_block_interval=3.0123456)],
            lambda_=3,
        )
        row = sweep_csv_row(point)
        cells = row.split(",")
        assert cells[0] == "3"
        assert cells[1] == "3.01235"
        assert cells[3] == "77.7232"
        assert cells[5] == "0.0488123"
        assert cells[-1] == "1"

    def test_write_sweep_csv(self):
        out = io.StringIO()
        write_sweep_csv([aggregate_runs([stats()], lambda_=2)], out)
        lines = out.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert len(lines[1].split(",")) == len(CSV_HEADER.split(","))
