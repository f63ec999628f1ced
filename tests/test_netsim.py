import concurrent.futures
import copy
import dataclasses
import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridchain import netsim
from gridchain.chain import BlockTree, Transaction, make_block, make_genesis
from gridchain.consensus import MIN_DIFFICULTY, fork_choice_head, validate_header
from gridchain.contract import CallKind, ContractCall, dump_state, replay_chain
from gridchain.metrics import ChainTooShort, compute_run_stats
from gridchain.netsim import (
    InvalidConfig,
    NodeState,
    SimConfig,
    Simulation,
    TRACE_HEADER,
    TxTable,
    build_tx_table,
    default_initial_difficulty,
    estimate_equilibrium_interval,
    run_many,
    run_simulation,
)

from conftest import addr, tx
from oracles import (
    HeapMiningSimulation,
    PerReceiverSimulation,
    build_tx_table_argsort,
    delivered,
    difficulty_oracle,
    fill_block,
    generate_tx_arrivals,
    header_digest,
    node_address,
    pending_ids,
    sample_arrival_times_chunked,
    sample_mining_time,
)


def small_config(**overrides):
    base = dict(lambda_=2, sim_duration=120.0, warmup_blocks=0, seed=5)
    base.update(overrides)
    return SimConfig(**base)


class TestConfigValidation:
    def test_default_config_is_valid(self):
        SimConfig().validate()

    def test_share_count_mismatch(self):
        with pytest.raises(InvalidConfig):
            SimConfig(num_nodes=3, hash_shares=(0.5, 0.5)).validate()

    def test_shares_must_sum_to_one(self):
        with pytest.raises(InvalidConfig):
            SimConfig(num_nodes=2, hash_shares=(0.5, 0.6)).validate()

    def test_tx_gas_below_limit(self):
        with pytest.raises(InvalidConfig):
            SimConfig(mean_tx_gas=16_000_000).validate()

    def test_lambda_positive_integer(self):
        with pytest.raises(InvalidConfig):
            SimConfig(lambda_=0).validate()

    @pytest.mark.parametrize("field,value", [
        ("lambda_", math.inf),
        ("lambda_", math.nan),
        ("lambda_", 2.5),
        ("num_nodes", 2.5),
        ("num_nodes", math.nan),
        ("block_gas_limit", math.nan),
        ("block_gas_limit", math.inf),
        ("block_gas_limit", 15e6 + 0.5),
        ("mean_tx_gas", math.nan),
        ("mean_tx_gas", 45_000.5),
        ("num_runs", math.nan),
        ("num_runs", 1.5),
        ("seed", 1.5),
        ("seed", math.nan),
        ("seed", "3"),
        ("warmup_blocks", math.nan),
        ("warmup_blocks", math.inf),
        ("initial_difficulty", math.nan),
        ("initial_difficulty", math.inf),
        ("initial_difficulty", 131072.5),
    ])
    def test_integer_fields_reject_non_integers(self, field, value):
        # A NaN gas limit used to let a block take every pending transaction.
        base = dict(lambda_=12, sim_duration=200.0, num_runs=1, warmup_blocks=0)
        config = SimConfig(**{**base, field: value})
        with pytest.raises(InvalidConfig, match=f"{field} must be an integer"):
            config.validate()
        with pytest.raises(InvalidConfig, match=f"{field} must be an integer"):
            run_simulation(config, 0)

    def test_integral_floats_run_as_their_ints(self):
        ints = dict(lambda_=3, num_nodes=3, block_gas_limit=15_000_000, mean_tx_gas=45_000,
                    num_runs=1, seed=2, warmup_blocks=0, initial_difficulty=400_000)
        floats = SimConfig(sim_duration=100.0, **{k: float(v) for k, v in ints.items()})
        floats.validate()
        assert {k: getattr(floats, k) for k in ints} == ints
        assert all(type(getattr(floats, k)) is int for k in ints)
        assert run_simulation(floats, 0).stats == run_simulation(
            SimConfig(sim_duration=100.0, **ints), 0).stats

    def test_infinite_hashrate_rejected(self):
        # Solve times would all be zero: a run would mine at t = 0 forever.
        config = SimConfig(total_hashrate=math.inf, initial_difficulty=131072,
                           sim_duration=10.0)
        with pytest.raises(InvalidConfig, match="total_hashrate must be positive and finite"):
            config.validate()


class TestMiningTime:
    def test_mean_matches_difficulty_over_hashrate(self):
        rng = np.random.default_rng(1)
        n = 1_000_000
        draws = rng.exponential(131072 / (131072 / 3), size=n)
        # the helper must agree with the stated distribution
        helper_draws = np.array(
            [sample_mining_time(np.random.default_rng(k), 131072, 131072 / 3)
             for k in range(2000)]
        )
        assert abs(draws.mean() - 3.0) < 0.03
        assert abs(helper_draws.mean() - 3.0) < 0.25

    def test_doubling_difficulty_doubles_mean(self):
        rng = np.random.default_rng(2)
        a = rng.exponential(131072 / 131072, size=1_000_000).mean()
        rng = np.random.default_rng(2)
        b = rng.exponential(262144 / 131072, size=1_000_000).mean()
        assert abs(b / a - 2.0) < 0.02

    def test_infinite_hashrate_limit(self):
        rng = np.random.default_rng(3)
        assert sample_mining_time(rng, 131072, 1e18) < 1e-9

    def test_nonpositive_hashrate_rejected(self):
        with pytest.raises(ValueError):
            sample_mining_time(np.random.default_rng(0), 131072, 0.0)

    def test_buffered_stream_matches_per_call_draws_bit_for_bit(self):
        sim = Simulation(small_config(), 0)
        reference = copy.deepcopy(sim.rng)
        draw = np.random.default_rng(4)
        n = 3 * netsim.SOLVE_TIME_BATCH + 7  # across several refills
        difficulties = draw.integers(MIN_DIFFICULTY, 10**12, size=n).tolist()
        hashrates = (10.0 ** draw.uniform(-3.0, 9.0, size=n)).tolist()
        got = [sim._solve_time(d / h) for d, h in zip(difficulties, hashrates)]
        want = [sample_mining_time(reference, d, h) for d, h in zip(difficulties, hashrates)]
        assert np.array(got).tobytes() == np.array(want).tobytes()


class TestArrivals:
    def test_count_within_three_sigma(self):
        config = SimConfig(tx_rate=100.0, sim_duration=1000.0)
        rng = np.random.default_rng(7)
        count = sum(1 for _ in generate_tx_arrivals(config, rng))
        assert abs(count - 100_000) <= 3 * math.sqrt(100_000)

    def test_zero_rate_empty_stream(self):
        config = SimConfig(tx_rate=0.0, sim_duration=100.0)
        assert list(generate_tx_arrivals(config, np.random.default_rng(1))) == []

    def test_same_seed_identical_stream(self):
        config = SimConfig(tx_rate=50.0, sim_duration=30.0)
        a = [(t, tx.tx_id, tx.sender) for t, tx in
             generate_tx_arrivals(config, np.random.default_rng(9))]
        b = [(t, tx.tx_id, tx.sender) for t, tx in
             generate_tx_arrivals(config, np.random.default_rng(9))]
        assert a == b

    def test_times_sorted_within_duration(self):
        config = SimConfig(tx_rate=20.0, sim_duration=50.0)
        times = [t for t, _ in generate_tx_arrivals(config, np.random.default_rng(11))]
        assert times == sorted(times)
        assert all(0 <= t < 50.0 for t in times)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rate", [3e-308, 1e-300, 5e-324])
    def test_tiny_rate_has_no_arrivals_and_no_warning(self, rate):
        # Gaps near the float maximum overflow their running sum to inf.
        config = SimConfig(tx_rate=rate, sim_duration=100.0)
        for seed in range(1, 6):
            assert build_tx_table(config, np.random.default_rng(seed)).count == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rate=st.sampled_from([0.0, 5e-324, 3e-308, 0.3, 4.0, 100.0]),
        duration=st.one_of(st.sampled_from([0.0, 1.0, 1e-3]), st.floats(0.0, 300.0)),
    )
    @example(seed=1, rate=100.0, duration=3000.0)
    def test_one_buffer_matches_chunked_oracle(self, seed, rate, duration):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        got = netsim._sample_arrival_times(rate, duration, rng)
        want = sample_arrival_times_chunked(rate, duration, twin)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert rng.standard_exponential() == twin.standard_exponential()

    @pytest.mark.parametrize("num_nodes", [1, 2, 3, 6, 256, 257])
    def test_origins_narrow_and_equal_to_an_int64_draw(self, num_nodes):
        config = SimConfig(num_nodes=num_nodes, tx_rate=50.0, sim_duration=40.0)
        rng, twin = np.random.default_rng(num_nodes), np.random.default_rng(num_nodes)
        table = build_tx_table(config, rng)
        times = sample_arrival_times_chunked(config.tx_rate, config.sim_duration, twin)
        want = twin.integers(0, num_nodes, size=len(times))
        assert want.dtype == np.int64
        assert table.origins.dtype == np.min_scalar_type(num_nodes - 1)
        assert np.array_equal(table.origins, want)
        assert rng.integers(0, 2**40) == twin.integers(0, 2**40)


def demo_injected(config):
    """The e2e demo's schedule of injected transactions: three control calls,
    then three meters each sending one record every 5 s over 2980 s."""
    sends = [(0.5, 0), (1.0, 0), (1.25, 0)]
    sends += [(10.0 + 5 * r + 0.1 * m, (m + 1) % config.num_nodes)
              for m in range(3) for r in range(596)]
    return [(t, origin, tx(0)) for t, origin in sends]


class TestTxTableMemory:
    """The traced peak of building the demo's table, in units of the final
    ``times`` column: one arrival buffer, one byte of origin per arrival,
    and during the merge the two copies of ``times`` only. Arrival chunks
    kept beside their concatenation (2.25x without injections), or that and
    an int64 origin column (4.16x with them), push the peak past these
    bounds."""

    @staticmethod
    def peak_over_times(config, injected):
        # A small build first, so that lazy set-up inside numpy is not traced.
        build_tx_table(small_config(tx_rate=5.0), np.random.default_rng(0), injected[:3])
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table = build_tx_table(config, rng, injected)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak / table.times.nbytes

    @pytest.mark.parametrize("with_injected,bound", [(False, 2.0), (True, 3.0)])
    def test_peak_in_units_of_times(self, with_injected, bound):
        config = SimConfig(lambda_=3, sim_duration=3000.0, seed=1)
        injected = demo_injected(config)
        assert len(injected) == 1791
        assert self.peak_over_times(config, injected if with_injected else []) < bound


class TestFillBlock:
    def test_empty_pool(self):
        assert fill_block([], 15_000_000) == []

    def test_exactly_333_of_400(self):
        pool = [tx(i) for i in range(400)]
        chosen = fill_block(pool, 15_000_000)
        assert len(chosen) == 333
        assert sum(t.gas for t in chosen) == 14_985_000
        assert [t.tx_id for t in chosen] == list(range(333))

    def test_small_pool_taken_entirely_in_order(self):
        pool = [tx(i) for i in (5, 1, 9)]
        chosen = fill_block(pool, 15_000_000)
        assert [t.tx_id for t in chosen] == [1, 5, 9]

    def test_stops_at_first_overflow(self):
        pool = [tx(0, gas=10), tx(1, gas=100), tx(2, gas=10)]
        chosen = fill_block(pool, 50)
        assert [t.tx_id for t in chosen] == [0]


def _chain_ids(node) -> set[int]:
    return {i for b in node.tree.canonical_chain(node.head_block.block_id) for i in b.tx_ids}


def _delivered_ids(sim, node, now: float) -> set[int]:
    """Ids delivered to ``node`` by ``now``, from the table: own at once,
    foreign after the propagation delay."""
    t, o = sim.table.times, sim.table.origins
    due = (t <= now - sim.config.propagation_delay) | ((o == node.index) & (t <= now))
    return set(np.flatnonzero(due).tolist())


class TestPool:
    def test_reorg_returns_abandoned_ids_to_the_pool(self):
        config = small_config(tx_rate=10.0)
        sim = Simulation(config, 0)
        # node 2 builds a three-block branch on genesis before most arrivals
        rival = [sim.on_block_mined(2, t) for t in (0.1, 0.2, 0.3)]
        block_b = sim.on_block_mined(0, 5.0)
        node1 = sim.nodes[1]
        sim.on_block_received(1, block_b, 5.25)
        assert node1.head_block.block_id == block_b.block_id
        block_c = sim.on_block_mined(1, 6.0)  # node 1 mines on B
        assert block_c.header.parent_id == block_b.block_id
        for blk in rival:
            sim.on_block_received(1, blk, 6.5)
        assert node1.head_block.block_id == rival[-1].block_id  # B and C abandoned
        on_rival = {i for blk in rival for i in blk.tx_ids}
        returned = set(block_b.tx_ids) - on_rival
        assert returned  # the scenario abandons transactions of another miner
        nxt = sim.on_block_mined(1, 7.0)
        assert returned <= set(nxt.tx_ids)
        assert set(block_c.tx_ids) <= set(nxt.tx_ids)

    def test_delivery_cut_offs_are_inclusive(self):
        sim = Simulation(small_config(tx_rate=10.0), 0)
        node = sim.nodes[0]
        times, origins = sim.table.times, sim.table.origins
        own = int(np.flatnonzero(origins == 0)[5])
        node.catch_up(float(times[own]), 1.0)  # own: delivered on arrival
        assert own in pending_ids(node)
        assert own + 1 not in pending_ids(node)
        foreign = int(np.flatnonzero(origins != 0)[20])
        node.catch_up(float(times[foreign]), 0.0)  # foreign: after the delay
        assert set(range(foreign + 1)) <= pending_ids(node)

    def test_catch_up_never_moves_delivery_back(self):
        sim = Simulation(small_config(tx_rate=10.0), 0)
        node = sim.nodes[1]
        now, delay = 30.0, sim.config.propagation_delay

        def state():
            return node.cut_all, node.cut_own, pending_ids(node), node.delivered.copy()

        node.catch_up(now, delay)
        before = state()
        assert 0 < node.cut_all < node.cut_own < sim.table.count
        for earlier_now, longer_delay in ((now - 10.0, delay), (now, delay + 10.0),
                                          (0.0, 0.0), (-math.inf, delay)):
            node.catch_up(earlier_now, longer_delay)
            after = state()
            assert after[:3] == before[:3]
            assert np.array_equal(after[3], before[3])
        node.catch_up(now + 5.0, delay)
        assert pending_ids(node) == _delivered_ids(sim, node, now + 5.0)
        # The node's own mask agrees with the cut-offs wherever fill reads it.
        end = node.cut_own
        assert np.array_equal(node.delivered[:end], delivered(node)[:end])

    def test_pool_is_delivered_minus_chain_after_every_event(self, monkeypatch):
        config = small_config(lambda_=1, num_nodes=4, propagation_delay=2.0, tx_rate=20.0,
                              sim_duration=80.0)
        sim = Simulation(config, 0)
        caught_up = {node.index: -math.inf for node in sim.nodes}
        counts = {"reorg": 0, "checked": 0}

        def check():
            for node in sim.nodes:
                expected = _delivered_ids(sim, node, caught_up[node.index]) - _chain_ids(node)
                assert pending_ids(node) == expected
            counts["checked"] += 1

        catch_up = NodeState.catch_up

        def recording_catch_up(node, now, delay):
            caught_up[node.index] = max(caught_up[node.index], now)
            catch_up(node, now, delay)

        def then(method, action):
            def wrapped(*args, **kwargs):
                out = method(*args, **kwargs)
                action()
                return out
            return wrapped

        def count_reorg():
            counts["reorg"] += 1

        monkeypatch.setattr(NodeState, "catch_up", recording_catch_up)
        monkeypatch.setattr(Simulation, "on_block_mined", then(Simulation.on_block_mined, check))
        monkeypatch.setattr(Simulation, "on_block_received",
                            then(Simulation.on_block_received, check))
        monkeypatch.setattr(Simulation, "_reorg", then(Simulation._reorg, count_reorg))
        result = sim.run()
        check()
        assert counts["checked"] > 100
        assert counts["reorg"] > 0
        assert result.stats.included_uncles > 0  # the run forked

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_nodes=st.integers(1, 4),
        tx_rate=st.just(0.0) | st.floats(1.0, 40.0),
        delay=st.floats(0.0, 3.0),
        tx_gas=st.integers(1_000, 60_000),
        gas_limit=st.integers(45_000, 600_000),
        steps=st.lists(
            st.tuples(st.floats(0.0, 10.0), st.sets(st.integers(0, 400), max_size=40),
                      st.sets(st.integers(0, 400), max_size=20), st.booleans()),
            min_size=1, max_size=4),
        chunk=st.sampled_from([1, 3, 16, netsim.FILL_CHUNK]),
        data=st.data(),
    )
    def test_fill_matches_object_level_oracle(self, seed, num_nodes, tx_rate, delay,
                                              tx_gas, gas_limit, steps, chunk, data):
        config = SimConfig(num_nodes=num_nodes, hash_shares=None, tx_rate=tx_rate,
                           propagation_delay=delay, sim_duration=40.0, seed=seed,
                           mean_tx_gas=tx_gas)
        sim = Simulation(config, 0)
        node = sim.nodes[data.draw(st.integers(0, num_nodes - 1))]
        stream = list(generate_tx_arrivals(config, np.random.default_rng([seed, 0])))
        own = node_address(node.index)
        on_chain: set[int] = set()
        now = 0.0
        for advance, claim, release, mine in steps:
            now += advance
            claim = {i for i in claim if i < sim.table.count}
            release = {i for i in release if i < sim.table.count}
            node.set_in_chain(sorted(claim), 1)
            node.set_in_chain(sorted(release), 0)
            on_chain = (on_chain | claim) - release
            node.catch_up(now, delay)
            pool = [tx for t, tx in stream
                    if (t <= now - delay or (tx.sender == own and t <= now))
                    and tx.tx_id not in on_chain]
            expected = fill_block(pool, gas_limit)
            with mock.patch.object(netsim, "FILL_CHUNK", chunk):
                ids, gas_used = node.fill(tx_gas, gas_limit)
            assert ids.dtype == np.intp
            assert ids.tolist() == [tx.tx_id for tx in expected]
            assert gas_used == sum(tx.gas for tx in expected)
            assert pending_ids(node) == {tx.tx_id for tx in pool}
            if mine:  # the filled block joins the chain
                node.set_in_chain(ids, 1)
                on_chain.update(ids.tolist())

    @settings(max_examples=100, deadline=None)
    @given(
        size=st.integers(0, 60),
        data=st.data(),
    )
    def test_a_range_flips_flags_as_its_tuple_does(self, size, data):
        table = TxTable(times=np.arange(size, dtype=np.float64),
                        origins=np.zeros(size, dtype=np.int64),
                        gas=np.broadcast_to(np.int64(45_000), (size,)), injected={})
        tree = BlockTree(make_genesis(MIN_DIFFICULTY))
        by_range, by_tuple = NodeState(0, tree, table), NodeState(0, tree, table)
        flags = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)),
                         dtype=np.bool_)
        low = data.draw(st.integers(0, size))
        for node in (by_range, by_tuple):
            node.in_chain[:] = flags
            node.low = low
        bound = st.integers(0, size)
        for a, b, flag in data.draw(st.lists(st.tuples(bound, bound, st.booleans()),
                                             min_size=1, max_size=6)):
            by_range.set_in_chain(range(a, b), flag)
            by_tuple.set_in_chain(tuple(range(a, b)), flag)
            assert np.array_equal(by_range.in_chain, by_tuple.in_chain)
            assert by_range.low == by_tuple.low


class TestEquilibriumCalibration:
    def test_estimates_increase_with_lambda(self):
        config = SimConfig()
        values = [
            estimate_equilibrium_interval(lam, config.propagation_delay, config.shares())
            for lam in (1, 2, 3, 6, 9, 12)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(1.0)

    def test_initial_difficulty_floor(self):
        config = SimConfig(lambda_=1)
        assert default_initial_difficulty(config) == MIN_DIFFICULTY
        config9 = SimConfig(lambda_=9)
        assert default_initial_difficulty(config9) > 10 * MIN_DIFFICULTY


class TestRunSimulation:
    def test_deterministic_bit_for_bit(self):
        config = small_config()
        t1, t2 = io.StringIO(), io.StringIO()
        r1 = run_simulation(config, 0, trace=t1)
        r2 = run_simulation(config, 0, trace=t2)
        assert t1.getvalue() == t2.getvalue()
        assert r1.stats == r2.stats
        assert r1.heads == r2.heads
        assert set(r1.tree.blocks) == set(r2.tree.blocks)

    def test_different_run_index_differs(self):
        config = small_config()
        r1 = run_simulation(config, 0)
        r2 = run_simulation(config, 1)
        assert r1.heads != r2.heads

    def test_trace_format(self):
        config = small_config(sim_duration=60.0)
        buf = io.StringIO()
        run_simulation(config, 0, trace=buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) > 5
        for line in lines[1:6]:
            cells = line.split(",")
            assert len(cells) == 9
            assert cells[1] in ("mined", "received")

    def test_convergence_all_nodes_same_head(self):
        for seed in (1, 2, 3):
            result = run_simulation(small_config(seed=seed), 0)
            assert len(set(result.heads)) == 1

    def test_head_matches_pure_fork_choice_at_end(self):
        result = run_simulation(small_config(), 0)
        assert result.head == fork_choice_head(result.tree)

    def test_single_node_never_forks(self):
        config = small_config(num_nodes=1, hash_shares=None, sim_duration=300.0)
        for seed in (1, 7):
            result = run_simulation(dataclasses.replace(config, seed=seed), 0)
            assert result.stats.uncle_rate == 0.0
            assert result.stats.included_uncles == 0
            assert result.stats.orphaned_blocks == 0
            # tree is a single path
            assert len(result.tree) == result.stats.canonical_blocks

    def test_zero_tx_rate_empty_blocks(self):
        config = small_config(num_nodes=1, tx_rate=0.0, sim_duration=300.0)
        result = run_simulation(config, 0)
        assert result.stats.throughput == 0.0
        assert result.stats.uncle_rate == 0.0
        assert all(len(b.tx_ids) == 0 for b in result.tree.blocks.values())

    def test_conservation_partition(self):
        config = small_config(sim_duration=200.0)
        result = run_simulation(config, 0)
        s = result.stats
        assert s.generated_tx == s.confirmed_tx_total + s.pending_tx + s.uncle_only_tx
        # recount confirmed from the tree itself
        chain = result.canonical_blocks()
        ids = [i for b in chain for i in b.tx_ids]
        assert len(ids) == len(set(ids)) == s.confirmed_tx_total

    def test_no_tx_counted_twice_across_forks(self):
        # higher fork pressure: fast blocks, long delay
        config = small_config(lambda_=1, propagation_delay=1.0, sim_duration=150.0)
        result = run_simulation(config, 0)
        chain = result.canonical_blocks()
        ids = [i for b in chain for i in b.tx_ids]
        assert len(ids) == len(set(ids))
        assert result.stats.included_uncles > 0  # the scenario actually forked

    def test_timestamps_and_numbers_increase_along_paths(self):
        result = run_simulation(small_config(), 0)
        tree = result.tree
        for block in tree.blocks.values():
            if block.block_id == tree.genesis_id:
                continue
            parent = tree.blocks[block.header.parent_id]
            assert block.number == parent.number + 1
            assert block.header.timestamp > parent.header.timestamp

    def test_gas_limit_respected_everywhere(self):
        config = small_config(sim_duration=200.0)
        result = run_simulation(config, 0)
        for block in result.tree.blocks.values():
            assert block.header.gas_used <= config.block_gas_limit

    def test_closed_loop_interval_band_short_run(self):
        # short-horizon sanity check; the acceptance suite measures 3000 s
        config = SimConfig(lambda_=3, sim_duration=600.0, warmup_blocks=50, seed=11)
        result = run_simulation(config, 0)
        assert 2.0 <= result.stats.mean_block_interval <= 6.0

    @settings(max_examples=25, deadline=None)
    @given(
        lambda_=st.integers(1, 12),
        num_nodes=st.integers(1, 4),
        delay=st.floats(0.0, 2.0),
        tx_rate=st.floats(0.0, 100.0),
        duration=st.floats(5.0, 400.0),
        warmup=st.integers(0, 150),
        seed=st.integers(0, 2**16),
    )
    # 90 s at threshold 2 mines fewer than 102 canonical blocks: the warm-up clamps.
    @example(lambda_=2, num_nodes=3, delay=0.25, tx_rate=100.0, duration=90.0, warmup=100,
             seed=1)
    def test_stats_are_compute_run_stats_of_the_final_chain(
            self, lambda_, num_nodes, delay, tx_rate, duration, warmup, seed):
        config = SimConfig(lambda_=lambda_, num_nodes=num_nodes, propagation_delay=delay,
                           tx_rate=tx_rate, sim_duration=duration, warmup_blocks=warmup,
                           seed=seed)
        sim = Simulation(config, 0)
        try:
            r = sim.run()
        except ChainTooShort:
            assert len(sim.tree.canonical_chain(sim.nodes[0].head_block.block_id)) < 2
            return
        assert compute_run_stats(r.tree, r.head, config.warmup_blocks, r.table.count) == r.stats
        chain_length = len(r.canonical_blocks())
        assert r.stats.warmup_blocks_discarded == min(warmup, chain_length - 2)
        assert r.stats.canonical_blocks == chain_length - r.stats.warmup_blocks_discarded


class TestEndOfRun:
    def test_scheduling_at_the_end_changes_nothing(self):
        config = small_config()
        sim = Simulation(config, 0)
        for node in sim.nodes:
            sim._schedule_mining(node, 0.0)
        for now in (config.sim_duration, config.sim_duration + 1.0):
            for node in sim.nodes:
                epoch, events, timers = node.epoch, list(sim.events), list(sim.timers)
                rng_state = sim.rng.bit_generator.state
                sim._schedule_mining(node, now)
                assert node.epoch == epoch
                assert sim.events == events
                assert sim.timers == timers
                assert sim.rng.bit_generator.state == rng_state

    def test_a_draw_past_the_end_is_spent_but_leaves_the_timer_idle(self):
        config = small_config()
        sim = Simulation(config, 0)
        node = sim.nodes[0]
        now = config.sim_duration - 0.5
        rng_state = sim.rng.bit_generator.state
        # Buffered standard exponentials, next one last: a solve time a
        # millionth of the mean lands before the end, a million means after.
        sim.exponentials[:] = [1e6, 1e-6]
        sim._schedule_mining(node, now)
        time, _, index = sim.timers[0]
        assert (index, node.epoch, sim.exponentials) == (0, 1, [1e6])
        assert now < time <= config.sim_duration
        sim._schedule_mining(node, now)  # the redraw replaces the live timer
        assert (node.epoch, sim.exponentials) == (2, [])
        assert sim.timers == [netsim.IDLE] * config.num_nodes
        assert sim.events == []
        assert sim.rng.bit_generator.state == rng_state

    @pytest.mark.parametrize("config", [
        small_config(),
        small_config(lambda_=1, num_nodes=6, propagation_delay=2.0, tx_rate=5.0),
    ])
    def test_no_block_mined_after_the_end(self, config):
        buf = io.StringIO()
        run_simulation(config, 0, trace=buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        mined = [float(row[0]) for row in rows if row[1] == "mined"]
        assert mined
        assert max(mined) <= config.sim_duration


class TestEventSemantics:
    def test_mined_timestamp_rule(self):
        # parent timestamp 5, mining at sim time 5.2 -> max(6, 5) = 6
        config = small_config(tx_rate=0.0, num_nodes=1)
        sim = Simulation(config, 0)
        node = sim.nodes[0]
        genesis = node.head_block
        first = sim.on_block_mined(0, 4.7)
        assert first.header.timestamp == max(genesis.header.timestamp + 1, 4)
        parent = sim.on_block_mined(0, 5.0)
        assert parent.header.timestamp == max(first.header.timestamp + 1, 5) == 5
        second = sim.on_block_mined(0, 5.2)
        assert second.header.parent_id == parent.block_id
        assert second.header.timestamp == max(parent.header.timestamp + 1, 5) == 6
        third = sim.on_block_mined(0, 9.9)
        assert third.header.timestamp == max(second.header.timestamp + 1, 9) == 9

    def test_first_mined_block_fields(self):
        config = small_config(tx_rate=10.0)
        sim = Simulation(config, 0)
        block = sim.on_block_mined(1, 3.4)
        assert block.number == 1
        assert block.header.parent_id == sim.genesis.block_id
        assert block.header.miner == 1
        # difficulty follows the rule applied to (genesis, timestamp)
        genesis = sim.genesis.header
        assert block.header.difficulty == difficulty_oracle(
            sim.params.lambda_, genesis.difficulty, len(genesis.uncle_ids), 1,
            block.header.timestamp - genesis.timestamp,
        )

    def test_every_difficulty_evaluation_goes_through_the_traced_names(self):
        # The bench tracer wraps ``compute_difficulty`` where netsim and
        # consensus look it up. Every draw evaluates it once in netsim, and
        # every mined block twice: once to build it in netsim and once in
        # consensus' header check. On a fork-heavy config the two wrapped
        # names must see all of them.
        from gridchain import consensus

        counts = {"netsim": 0, "consensus": 0}

        def counted(owner, original):
            def wrapper(*args):
                counts[owner] += 1
                return original(*args)
            return wrapper

        config = small_config(lambda_=1, num_nodes=6, propagation_delay=2.0, tx_rate=5.0,
                              sim_duration=300.0)
        sim = Simulation(config, 0)
        with mock.patch.object(netsim, "compute_difficulty",
                               counted("netsim", netsim.compute_difficulty)), \
                mock.patch.object(consensus, "compute_difficulty",
                                  counted("consensus", consensus.compute_difficulty)):
            sim.run()
        mined = len(sim.tree.blocks) - 1
        draws = sum(node.epoch for node in sim.nodes)
        assert mined > sim.nodes[0].head_block.number  # the run forked
        assert counts == {"netsim": draws + mined, "consensus": mined}
        assert sum(counts.values()) == draws + 2 * mined

    def test_receive_extending_head_advances(self):
        config = small_config(tx_rate=0.0)
        sim = Simulation(config, 0)
        block = sim.on_block_mined(0, 1.0)
        sim.on_block_received(1, block, 1.25)
        assert sim.nodes[1].head_block.block_id == block.block_id

    def test_receive_lighter_branch_stored_not_adopted(self):
        config = small_config(tx_rate=0.0)
        sim = Simulation(config, 0)
        b1 = sim.on_block_mined(0, 1.0)
        b2 = sim.on_block_mined(0, 4.0)
        sim.on_block_received(1, b1, 1.25)
        sim.on_block_received(1, b2, 4.25)
        rival = sim.on_block_mined(2, 5.0)  # node 2 still on genesis
        sim.on_block_received(1, rival, 5.25)
        node1 = sim.nodes[1]
        assert node1.head_block.block_id == b2.block_id
        assert rival.block_id in node1.known

    def test_out_of_order_delivery_takes_the_parent_from_the_store(self):
        config = small_config(tx_rate=5.0)
        sim = Simulation(config, 0)
        b1 = sim.on_block_mined(0, 1.0)
        b2 = sim.on_block_mined(0, 2.5)
        assert b2.header.parent_id == b1.block_id
        assert b1.tx_ids and b2.tx_ids
        node1, node2 = sim.nodes[1], sim.nodes[2]
        # in-order delivery to node 1
        sim.on_block_received(1, b1, 1.25)
        sim.on_block_received(1, b2, 2.75)
        # out-of-order delivery to node 2: the child first, so the node
        # takes the parent from the run's block store and holds both at once
        sim.on_block_received(2, b2, 2.75)
        assert node2.head_block.block_id == node1.head_block.block_id == b2.block_id
        assert node2.known == node1.known
        assert np.array_equal(node2.in_chain, node1.in_chain)
        # the parent's own delivery later changes nothing
        known, in_chain = set(node2.known), node2.in_chain.copy()
        timer, epoch = sim.timers[2], node2.epoch
        sim.on_block_received(2, b1, 3.0)
        assert node2.head_block.block_id == b2.block_id
        assert node2.known == known
        assert np.array_equal(node2.in_chain, in_chain)
        assert (sim.timers[2], node2.epoch) == (timer, epoch)

    def test_branch_delivered_in_reverse_matches_in_order(self):
        # Node 1 mines a block of its own, then receives node 0's heavier
        # 3-block branch: in order in one run, grandchild first in the other.
        config = small_config(tx_rate=5.0)
        in_order, reverse = Simulation(config, 0), Simulation(config, 0)
        times = (1.0, 2.5, 4.0)
        for sim in (in_order, reverse):
            sim.on_block_mined(1, 0.5)
        branch = [in_order.on_block_mined(0, t) for t in times]
        assert [reverse.on_block_mined(0, t).block_id for t in times] == [
            b.block_id for b in branch]
        for block, t in zip(branch, times):
            in_order.on_block_received(1, block, t + 0.25)
        for block in reversed(branch):
            reverse.on_block_received(1, block, times[-1] + 0.25)
        a, b = in_order.nodes[1], reverse.nodes[1]
        for node in (a, b):
            node.catch_up(times[-1] + 1.0, config.propagation_delay)
        assert b.head_block.block_id == a.head_block.block_id == branch[-1].block_id
        assert b.known == a.known
        assert np.array_equal(b.in_chain, a.in_chain)
        assert pending_ids(b) == pending_ids(a)
        assert pending_ids(a)  # node 1's abandoned block returned ids to the pool

    def test_delivery_far_ahead_receives_every_missing_ancestor_oldest_first(self):
        # More missing ancestors than Python's default recursion limit.
        config = small_config(tx_rate=1.0, sim_duration=1300.0)
        sim = Simulation(config, 0, trace=io.StringIO())
        chain = [sim.on_block_mined(0, 1.0 + k) for k in range(1200)]
        sim.on_block_received(1, chain[-1], 1250.0)
        node0, node1 = sim.nodes[0], sim.nodes[1]
        assert node1.head_block.block_id == node0.head_block.block_id == chain[-1].block_id
        assert node1.known == node0.known
        assert np.array_equal(node1.in_chain, node0.in_chain)
        received = [line.split(",")[3] for line in sim.trace.getvalue().splitlines()
                    if ",received,1," in line]
        assert received == [b.block_id for b in chain]

    def test_each_mined_block_is_adopted_by_one_reorg_that_abandons_nothing(self,
                                                                            monkeypatch):
        config = small_config(lambda_=1, num_nodes=6, propagation_delay=2.0, tx_rate=5.0,
                              sim_duration=300.0)
        sim = Simulation(config, 0)
        blocks = sim.tree.blocks
        reorgs = []  # (blocks abandoned, new head id) per ``_reorg`` call
        reorg, mine = Simulation._reorg, Simulation.on_block_mined

        def abandoned(old, new):
            depth = 0
            while old.block_id != new.block_id:
                if old.number > new.number:
                    old = blocks[old.header.parent_id]
                    depth += 1
                else:
                    new = blocks[new.header.parent_id]
            return depth

        def recording_reorg(self, node, new_head, now):
            reorgs.append((abandoned(node.head_block, new_head), new_head.block_id))
            reorg(self, node, new_head, now)

        def checked_mine(self, node_index, now):
            before = len(reorgs)
            block = mine(self, node_index, now)
            assert reorgs[before:] == [(0, block.block_id)]
            return block

        monkeypatch.setattr(Simulation, "_reorg", recording_reorg)
        monkeypatch.setattr(Simulation, "on_block_mined", checked_mine)
        sim.run()
        mined = len(blocks) - 1
        assert mined > sim.nodes[0].head_block.number  # the run forked
        assert len(reorgs) > mined
        assert max(depth for depth, _ in reorgs) >= 1  # received blocks did abandon

    def test_stale_sibling_becomes_uncle(self):
        config = small_config(tx_rate=0.0)
        sim = Simulation(config, 0)
        a1 = sim.on_block_mined(0, 1.0)
        b1 = sim.on_block_mined(1, 1.1)  # node 1 has not seen a1 yet: sibling
        sim.on_block_received(0, b1, 1.35)
        child = sim.on_block_mined(0, 3.0)
        assert child.header.parent_id == a1.block_id
        assert child.header.uncle_ids == (b1.block_id,)

    def test_block_not_yet_received_is_no_uncle(self):
        config = small_config(tx_rate=0.0)
        sim = Simulation(config, 0)
        a1 = sim.on_block_mined(0, 1.0)
        b1 = sim.on_block_mined(1, 1.1)  # a sibling, in the run's tree at once
        child = sim.on_block_mined(0, 3.0)  # before node 0 receives b1
        assert child.header.parent_id == a1.block_id
        assert child.header.uncle_ids == ()
        sim.on_block_received(0, b1, 3.5)
        grandchild = sim.on_block_mined(0, 4.0)
        assert grandchild.header.parent_id == child.block_id
        assert grandchild.header.uncle_ids == (b1.block_id,)


def _traced_run(sim_class, config):
    """What a traced run of ``sim_class`` leaves: see ``_run_outcome``."""
    return _run_outcome(sim_class(config, 0, trace=io.StringIO()))


def _run_outcome(sim):
    """Run ``sim``, traced to a ``StringIO``: the trace, the stats (or the
    error that refused them), the heads, each node's draw count and the
    generator's final state with its unused buffered draws."""
    try:
        stats = repr(sim.run().stats)
    except ChainTooShort as exc:  # a short draw can mine fewer than two blocks
        stats = repr(exc)
    return (sim.trace.getvalue(), stats, [node.head_block.block_id for node in sim.nodes],
            [node.epoch for node in sim.nodes], sim.rng.bit_generator.state,
            list(sim.exponentials))


class TestMiningTimers:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        weights=st.lists(st.integers(1, 5), min_size=1, max_size=6),
        delay=st.just(0.0) | st.floats(0.0, 3.0),
        lambda_=st.integers(1, 12),
        tx_rate=st.floats(0.0, 30.0),
        duration=st.floats(20.0, 400.0),
    )
    def test_matches_one_heap_entry_per_draw(self, seed, weights, delay, lambda_, tx_rate,
                                             duration):
        config = SimConfig(lambda_=lambda_, num_nodes=len(weights),
                           hash_shares=tuple(w / sum(weights) for w in weights),
                           propagation_delay=delay, tx_rate=tx_rate,
                           sim_duration=duration, warmup_blocks=3, seed=seed)
        oracle = HeapMiningSimulation(config, 0, trace=io.StringIO())
        assert _traced_run(Simulation, config) == _run_outcome(oracle)
        assert oracle.late_draws > 0  # the last draws landed after the end


class TestDelivery:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        weights=st.lists(st.integers(1, 5), min_size=1, max_size=5),
        lambda_=st.integers(1, 4),
        delay=st.floats(0.0, 2.0),
        tx_rate=st.floats(0.0, 30.0),
        tx_gas=st.integers(1_000, 300_000),
        duration=st.floats(20.0, 150.0),
    )
    def test_matches_per_receiver_oracle(self, seed, weights, lambda_, delay, tx_rate,
                                         tx_gas, duration):
        config = SimConfig(lambda_=lambda_, num_nodes=len(weights),
                           hash_shares=tuple(w / sum(weights) for w in weights),
                           propagation_delay=delay, tx_rate=tx_rate,
                           block_gas_limit=300_000, mean_tx_gas=tx_gas,
                           sim_duration=duration, warmup_blocks=3, seed=seed)
        assert _traced_run(Simulation, config) == _traced_run(PerReceiverSimulation, config)

    def test_each_header_is_validated_once(self):
        config = small_config(lambda_=1, num_nodes=5, propagation_delay=1.5, tx_rate=5.0,
                              sim_duration=200.0)
        buf = io.StringIO()
        with mock.patch.object(netsim, "validate_header",
                               wraps=netsim.validate_header) as validate:
            result = run_simulation(config, 0, trace=buf)
        mined = [line.split(",")[3] for line in buf.getvalue().splitlines()
                 if ",mined," in line]
        assert result.stats.included_uncles > 0
        assert sorted(call.args[2].block_id for call in validate.call_args_list) == sorted(mined)

    def test_zero_delay_delivers_parents_first(self):
        # Every block reaches every other node at the time it is mined. The
        # oracle takes no missing parent from the store, so it raises if a
        # block reaches a node before its parent or an uncle.
        config = small_config(lambda_=1, num_nodes=5, propagation_delay=0.0, tx_rate=5.0,
                              sim_duration=600.0, seed=3)
        assert _traced_run(Simulation, config) == _traced_run(PerReceiverSimulation, config)
        result = run_simulation(config, 0)
        assert len(set(result.heads)) == 1

    def test_each_mined_block_is_one_event_to_every_other_node(self):
        config = small_config(lambda_=1, num_nodes=4, tx_rate=5.0, sim_duration=600.0,
                              seed=3)
        mined, delivered = [], []

        class Recording(Simulation):
            def on_block_mined(self, node_index, now):
                block = super().on_block_mined(node_index, now)
                if node_index == 0:
                    mined.append(block.block_id)
                return block

            def _push(self, time, receivers, block):
                if block.header.miner == 0:
                    delivered.append((block.block_id, receivers))
                super()._push(time, receivers, block)

        Recording(config, 0).run()
        assert mined and delivered == [(bid, (1, 2, 3)) for bid in mined]
        assert _traced_run(Simulation, config) == _traced_run(PerReceiverSimulation, config)

    def test_validated_block_missing_an_uncle_still_raises(self):
        sim = Simulation(small_config(tx_rate=0.0), 0)
        a1 = sim.on_block_mined(0, 1.0)
        b1 = sim.on_block_mined(1, 1.1)  # a sibling of a1
        sim.on_block_received(0, b1, 1.35)
        child = sim.on_block_mined(0, 3.0)
        assert child.header.uncle_ids == (b1.block_id,)
        sim.on_block_received(1, a1, 1.25)
        sim.on_block_received(2, a1, 1.25)  # node 2 never gets b1
        sim.on_block_received(1, child, 3.25)
        assert child.block_id in sim.nodes[1].known
        with mock.patch.object(netsim, "validate_header") as validate:
            with pytest.raises(AssertionError, match="invalid header broadcast"):
                sim.on_block_received(2, child, 3.25)
        validate.assert_not_called()
        assert child.block_id not in sim.nodes[2].known
        sim.on_block_received(2, b1, 3.5)
        sim.on_block_received(2, child, 3.5)
        assert sim.nodes[2].head_block.block_id == child.block_id


class _AddOrder(set):
    """A node's ``known`` set that also lists its ids in the order the node
    mined or received them."""

    def __init__(self, ids):
        super().__init__(ids)
        self.order = list(ids)

    def add(self, block_id: str) -> None:
        if block_id not in self:
            self.order.append(block_id)
            super().add(block_id)


def _first_heaviest(order: list[str], td: dict[str, int]) -> str:
    """The earliest of ``order`` with maximal total difficulty (``max``
    returns the first maximal item)."""
    return max(order, key=td.get)


class TestForkChoice:
    @staticmethod
    def _siblings_in_both_orders(sim):
        """Two equally heavy siblings, received by node 1 in one order and by
        node 2 in the other."""
        a = sim.on_block_mined(0, 1.0)
        c = sim.on_block_mined(3, 1.1)  # node 3 has not seen a: a sibling
        assert a.header.difficulty == c.header.difficulty
        for index, first, second in ((1, a, c), (2, c, a)):
            sim.on_block_received(index, first, 1.3)
            sim.on_block_received(index, second, 1.4)
        return a, c

    def test_first_received_of_equal_siblings_stays_head(self):
        sim = Simulation(small_config(num_nodes=4, hash_shares=None, tx_rate=0.0), 0)
        a, c = self._siblings_in_both_orders(sim)
        assert [sim.nodes[i].head_block.block_id for i in (1, 2)] == [a.block_id, c.block_id]
        heavier = sim.on_block_mined(0, 3.0)
        assert heavier.header.parent_id == a.block_id
        for index in (1, 2):
            sim.on_block_received(index, heavier, 3.25)
            assert sim.nodes[index].head_block.block_id == heavier.block_id

    def test_settle_breaks_a_standing_tie_by_smaller_id(self):
        sim = Simulation(small_config(num_nodes=4, hash_shares=None, tx_rate=0.0), 0)
        a, c = self._siblings_in_both_orders(sim)
        with pytest.raises(AssertionError, match="node 0 holds 2 of 3 blocks"):
            sim._settle()  # settling needs every delivery done
        sim.on_block_received(0, c, 1.5)
        sim.on_block_received(3, a, 1.5)
        sim._settle()
        smaller = min(a.block_id, c.block_id)
        assert [node.head_block.block_id for node in sim.nodes] == [smaller] * 4

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        weights=st.lists(st.integers(1, 5), min_size=2, max_size=5),
        lambda_=st.integers(1, 3),
        delay=st.floats(0.5, 3.0),
        duration=st.floats(20.0, 120.0),
    )
    def test_head_is_first_received_heaviest_after_every_event(
            self, seed, weights, lambda_, delay, duration):
        config = SimConfig(lambda_=lambda_, num_nodes=len(weights),
                           hash_shares=tuple(w / sum(weights) for w in weights),
                           propagation_delay=delay, tx_rate=2.0,
                           sim_duration=duration, warmup_blocks=0, seed=seed)
        sim = Simulation(config, 0)
        for node in sim.nodes:
            node.known = _AddOrder(node.known)

        def check():
            for node in sim.nodes:
                assert node.head_block.block_id == _first_heaviest(
                    node.known.order, sim.tree.total_difficulty)

        mined, received = sim.on_block_mined, sim.on_block_received

        def on_mined(*args):
            out = mined(*args)
            check()
            return out

        def on_received(*args):
            received(*args)
            check()

        sim.on_block_mined, sim.on_block_received = on_mined, on_received
        try:
            sim.run()
        except ChainTooShort:  # a short draw can mine fewer than two blocks
            pass
        for node in sim.nodes:
            assert node.known == sim.tree.blocks.keys()
            assert node.head_block.block_id == fork_choice_head(sim.tree)


class TestHeadersOnDrawnConfigs:
    @settings(max_examples=30, deadline=None)
    @given(
        num_nodes=st.integers(1, 6),
        weights=st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
        delay=st.floats(0.0, 3.0),
        lambda_=st.integers(1, 12),
        tx_rate=st.floats(0.0, 30.0),
        duration=st.floats(20.0, 400.0),
        seed=st.integers(0, 2**16),
        # The default, or any gas up to the gas limit.
        tx_gas=st.just(45_000) | st.integers(1, 15_000_000),
    )
    def test_every_block_passes_validate_header_in_a_fresh_tree(
            self, num_nodes, weights, delay, lambda_, tx_rate, duration, seed, tx_gas):
        shares = tuple(w / sum(weights[:num_nodes]) for w in weights[:num_nodes])
        config = SimConfig(lambda_=lambda_, num_nodes=num_nodes, hash_shares=shares,
                           propagation_delay=delay, tx_rate=tx_rate, sim_duration=duration,
                           warmup_blocks=0, seed=seed, mean_tx_gas=tx_gas)
        sim = Simulation(config, 0)
        try:
            stats = sim.run().stats
        except ChainTooShort:  # the tree is complete; only the stats failed
            pass
        else:
            assert stats.generated_tx == stats.confirmed_tx_total + stats.pending_tx
        assert len({node.head_block.block_id for node in sim.nodes}) == 1
        assert all(node.known == sim.tree.blocks.keys() for node in sim.nodes)
        blocks = sorted(sim.tree.blocks.values(), key=lambda b: b.number)
        fresh = BlockTree(sim.genesis)
        gas = sim.table.gas
        for b in blocks:
            h = b.header
            assert b.block_id == header_digest(h.number, h.parent_id, h.miner, h.difficulty,
                                               h.timestamp, h.uncle_ids, b.tx_ids)
        for b in blocks[1:]:  # parents and uncles are lower, so inserted first
            assert validate_header(sim.params, fresh, b.header)
            fresh.insert_block(b)
            assert b.header.gas_used == int(gas[list(b.tx_ids)].sum())
            assert b.header.gas_used <= config.block_gas_limit


class TestBlockIds:
    @settings(max_examples=40, deadline=None)
    @given(
        num_nodes=st.integers(1, 6),
        lambda_=st.integers(1, 12),
        tx_rate=st.floats(0.0, 100.0),
        delay=st.floats(0.0, 3.0),
        records=st.lists(st.tuples(st.floats(0.0, 150.0), st.integers(0, 5)), max_size=30),
        seed=st.integers(0, 2**16),
    )
    def test_a_block_keeps_a_range_or_a_tuple_and_flags_follow_the_chain(
            self, num_nodes, lambda_, tx_rate, delay, records, seed):
        config = SimConfig(lambda_=lambda_, num_nodes=num_nodes, tx_rate=tx_rate,
                           propagation_delay=delay, sim_duration=150.0, warmup_blocks=0,
                           seed=seed)
        owner = addr("owner")
        injected = [(t, origin % num_nodes, Transaction(0, owner, config.mean_tx_gas))
                    for t, origin in records]
        sim = Simulation(config, 0, injected)
        try:
            sim.run()
        except ChainTooShort:  # the run is complete; only the stats failed
            pass
        for b in sim.tree.blocks.values():
            ids = list(b.tx_ids)
            consecutive = bool(ids) and ids == list(range(ids[0], ids[-1] + 1))
            assert (type(b.tx_ids) is range) == consecutive
            if not consecutive:
                assert type(b.tx_ids) is tuple
                assert all(type(i) is int for i in ids)
                assert all(x < y for x, y in zip(ids, ids[1:]))
        for node in sim.nodes:
            expected = np.zeros(sim.table.count, dtype=np.bool_)
            for b in sim.tree.canonical_chain(node.head_block.block_id):
                expected[list(b.tx_ids)] = True
            assert np.array_equal(node.in_chain, expected)


class TestInjectedTransactions:
    def test_payload_rides_through_to_replay(self):
        owner = addr("owner")
        calls = [
            (1.0, 0, Transaction(0, owner, 45_000,
                                 payload=ContractCall(CallKind.DEPLOY))),
            (2.0, 1, Transaction(0, owner, 45_000,
                                 payload=ContractCall(
                                     CallKind.NEW_RECO, record_id=b"i",
                                     record_time=b"t", record_value=b"v"))),
        ]
        config = small_config(tx_rate=5.0, sim_duration=150.0)
        result = run_simulation(config, 0, injected=calls)
        state = replay_chain(result.canonical_blocks())
        assert state.init_addr == owner
        assert state.total_of_reco == 1
        assert state.reco[1].id == b"i"

    def test_replay_of_injected_ids_matches_a_full_scan(self):
        owner, stranger = addr("owner"), addr("stranger")
        record = ContractCall(CallKind.NEW_RECO, record_id=b"i", record_time=b"t",
                              record_value=b"v")
        calls = [
            (1.0, 0, Transaction(0, owner, 45_000, payload=ContractCall(CallKind.DEPLOY))),
            (2.0, 1, Transaction(0, stranger, 45_000, payload=record)),  # refused
            (3.0, 2, Transaction(0, owner, 45_000, payload=record)),
            (4.0, 0, Transaction(0, owner, 45_000, payload=None)),
        ]
        config = small_config(tx_rate=5.0, sim_duration=150.0)
        result = run_simulation(config, 0, injected=calls)
        chain, table = result.canonical_blocks(), result.table

        def every_tx(i):  # the injected object, or a payload-less stand-in
            return table.injected.get(i) or Transaction(
                i, node_address(int(table.origins[i])), int(table.gas[i]))

        scanned = [make_block(b.number, b.header.parent_id, b.header.miner,
                              b.header.difficulty, b.header.timestamp,
                              [every_tx(i) for i in b.tx_ids], b.header.uncle_ids)
                   for b in chain]
        assert [s.tx_ids for s in scanned] == [tuple(b.tx_ids) for b in chain]
        assert sum(len(b.tx_ids) for b in chain) > len(table.injected)
        fast, full = replay_chain(chain), replay_chain(scanned)
        assert (fast.applied_calls, fast.failed_calls) == (2, 1)
        assert fast.failures_by_sender == full.failures_by_sender == {stranger: 1}
        assert dump_state(fast) == dump_state(full)

    def test_blocks_hold_their_injected_transactions(self):
        owner = addr("owner")
        calls = [(0.5 + 3.0 * k, k % 3, Transaction(0, owner, 45_000, payload=None))
                 for k in range(40)]
        config = small_config(tx_rate=20.0, sim_duration=150.0, propagation_delay=1.0)
        result = run_simulation(config, 0, injected=calls)
        inj = result.table.injected
        held = 0
        for b in result.tree.blocks.values():
            assert b.transactions == tuple(inj[i] for i in b.tx_ids if i in inj)
            held += len(b.transactions)
        assert held >= len(inj) == 40

        plain = run_simulation(config, 0)
        assert all(b.transactions == () for b in plain.tree.blocks.values())
        assert any(b.tx_ids for b in plain.tree.blocks.values())

    def test_injected_renumbered_in_arrival_order(self):
        owner = addr("owner")
        inj = [(10.0, 0, Transaction(0, owner, 45_000, payload=None))]
        config = small_config(tx_rate=2.0, sim_duration=60.0)
        sim = Simulation(config, 0, injected=inj)
        table = sim.table
        found = [i for i in range(table.count) if table.injected.get(i) is not None]
        assert len(found) == 1
        i = found[0]
        assert table.injected[i].tx_id == i
        assert float(table.times[i]) == 10.0

    @pytest.mark.parametrize("time, origin, gas, message", [
        (10.0, 3, 45_000, "origin 3 is not a node below 3"),
        (10.0, -1, 45_000, "origin -1 is not a node below 3"),
        (math.nan, 0, 45_000, "time nan must be finite"),
        (math.inf, 0, 45_000, "time inf must be finite"),
        (-5.0, 0, 45_000, r"time -5.0 must be finite and >= 0"),
        (10.0, 0, 21_000, "injected transaction 1: gas 21000 is not mean_tx_gas 45000"),
    ], ids=["origin-past-last-node", "origin-negative", "time-nan", "time-inf",
            "time-negative", "gas-not-mean"])
    def test_injected_origin_and_time_must_be_placeable(self, time, origin, gas, message):
        config = small_config(tx_rate=2.0, sim_duration=60.0)
        inj = [(1.0, 0, tx(0)), (time, origin, tx(1, gas=gas))]
        with pytest.raises(InvalidConfig, match=message):
            build_tx_table(config, np.random.default_rng(3), inj)
        with pytest.raises(InvalidConfig, match=message):
            run_simulation(config, 0, injected=inj)

    def test_injected_at_or_after_the_end_stays_pending(self):
        config = small_config(tx_rate=2.0, sim_duration=60.0)
        inj = [(60.0, 0, tx(0)), (90.0, 2, tx(0))]
        result = run_simulation(config, 0, injected=inj)
        late = sorted(result.table.injected)
        assert result.table.times[late].tolist() == [60.0, 90.0]
        assert not any(set(late) & set(b.tx_ids) for b in result.canonical_blocks())

    def test_injected_goes_after_generated_at_the_same_time(self):
        config = small_config(tx_rate=2.0, sim_duration=60.0)
        generated = build_tx_table(config, np.random.default_rng(3)).times
        at = float(generated[5])
        inj = [(at, 1, tx(0, sender="first")), (at, 2, tx(0, sender="second"))]
        table = build_tx_table(config, np.random.default_rng(3), inj)
        assert table.times[5:8].tolist() == [at, at, at]
        assert table.injected[6] == dataclasses.replace(inj[0][2], tx_id=6)
        assert table.injected[7] == dataclasses.replace(inj[1][2], tx_id=7)
        assert table.origins[6:8].tolist() == [1, 2]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rate=st.sampled_from([0.0, 0.3, 4.0]),
        data=st.data(),
    )
    def test_merge_matches_argsort_oracle(self, seed, rate, data):
        config = small_config(tx_rate=rate, sim_duration=20.0)
        generated = build_tx_table(config, np.random.default_rng(seed)).times.tolist()
        # Ties with generated times and with each other, times before the
        # first arrival and after the last, and times in between.
        special = [0.0, 7.25, config.sim_duration + 1.0]
        if generated:
            special += [generated[0] / 2, generated[-1]]
        times = st.one_of(
            st.sampled_from(special),
            st.sampled_from(generated or special),
            st.floats(0.0, 2 * config.sim_duration),
        )
        drawn = data.draw(st.lists(
            st.tuples(times, st.integers(0, config.num_nodes - 1)),
            max_size=25,
        ))
        injected = [
            (t, origin, tx(1000 + k, gas=config.mean_tx_gas, sender=f"m{k % 3}",
                           payload=("record", k)))
            for k, (t, origin) in enumerate(drawn)
        ]
        got = build_tx_table(config, np.random.default_rng(seed), injected)
        want = build_tx_table_argsort(config, np.random.default_rng(seed), injected)
        for name in ("times", "origins", "gas"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert got.count == want.count == len(generated) + len(injected)
        assert got.injected == want.injected
        source = {item[2].payload: item[2] for item in injected}
        for new, renumbered in got.injected.items():
            assert renumbered == dataclasses.replace(source[renumbered.payload], tx_id=new)


class TestUniformGas:
    """The gas column is one value as a zero-stride view, and a block keeps
    its ids as a range when they form one."""

    @pytest.mark.parametrize("lambda_, records, kind", [
        (1, 0, tuple),  # blocks mostly take scattered ids
        (3, 0, range),  # a saturated pool: blocks mostly take one range
        (3, 60, range),
    ])
    def test_blocks_keep_a_range_or_a_tuple(self, lambda_, records, kind):
        owner = addr("owner")
        injected = [(0.5 + 5.0 * k, k % 3, Transaction(0, owner, 45_000))
                    for k in range(records)]
        config = SimConfig(lambda_=lambda_, sim_duration=300.0, warmup_blocks=10, seed=7)
        sim = Simulation(config, 0, injected)
        sim.run()
        assert sim.table.gas.strides == (0,)
        kinds = [type(b.tx_ids) for b in sim.tree.blocks.values()]
        assert kinds.count(kind) > len(kinds) / 2
        assert len(sim.table.injected) == records

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rate=st.sampled_from([0.0, 0.3, 4.0]),
        mean=st.integers(1, 15_000_000),
        times=st.lists(st.floats(0.0, 40.0), max_size=8),
    )
    def test_column_stays_one_value_through_a_matching_injection(self, seed, rate, mean,
                                                                  times):
        config = small_config(tx_rate=rate, sim_duration=20.0, mean_tx_gas=mean)
        generated = build_tx_table(config, np.random.default_rng(seed))
        injected = [(t, k % 3, tx(k, gas=mean)) for k, t in enumerate(times)]
        table = build_tx_table(config, np.random.default_rng(seed), injected)
        assert table.count == generated.count + len(times)
        assert table.gas.strides == (0,)
        assert table.gas.shape == (table.count,)
        assert table.gas.dtype == np.int64
        assert not table.gas.flags.writeable
        assert (table.gas == mean).all()


class TestRunMany:
    def test_sequential_and_parallel_agree(self):
        config = small_config(sim_duration=60.0, num_runs=3)
        seq = run_many(config, workers=1)
        par = run_many(config, workers=2)
        assert seq == par

    def test_results_in_run_index_order(self):
        config = small_config(sim_duration=60.0, num_runs=4)
        stats = run_many(config, workers=1)
        singles = [run_simulation(config, i).stats for i in range(4)]
        assert stats == singles

    def test_pool_never_larger_than_the_runs(self, monkeypatch):
        # A fake pool that records its size and maps serially: no process starts.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        config = small_config(sim_duration=60.0, num_runs=3)
        assert run_many(config, workers=8) == run_many(config, workers=1)
        assert sizes == [3]
        one = small_config(sim_duration=60.0, num_runs=1)
        assert run_many(one, workers=4) == [run_simulation(one, 0).stats]
        assert sizes == [3]
