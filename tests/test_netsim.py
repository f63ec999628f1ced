import copy
import dataclasses
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridchain import netsim
from gridchain.chain import TX_SIZE_KB, BlockTree, Transaction, make_block
from gridchain.consensus import MIN_DIFFICULTY, fork_choice_head, validate_header
from gridchain.contract import CallKind, ContractCall, dump_state, replay_chain
from gridchain.metrics import ChainTooShort
from gridchain.netsim import (
    InvalidConfig,
    NodeState,
    SimConfig,
    Simulation,
    TRACE_HEADER,
    build_tx_table,
    default_initial_difficulty,
    estimate_equilibrium_interval,
    run_many,
    run_simulation,
)

from conftest import addr, line_link_delays, tx
from oracles import (
    PerReceiverSimulation,
    fill_block,
    generate_tx_arrivals,
    node_address,
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

    def test_link_delays_must_be_metric(self):
        # 0.1 s links, but 3 s between nodes 0 and 2: a nephew would reach
        # node 2 over two hops before its uncle arrives from node 0.
        links = {(i, j): 0.1 for i in range(3) for j in range(3) if i != j}
        links[(0, 2)] = links[(2, 0)] = 3.0
        config = SimConfig(lambda_=1, num_nodes=3, link_delays=links, tx_rate=5.0,
                           sim_duration=600.0)
        with pytest.raises(InvalidConfig, match="triangle inequality"):
            config.validate()
        with pytest.raises(InvalidConfig, match="triangle inequality"):
            run_simulation(config, 0)
        two_hops = {**links, (0, 2): 0.2, (2, 0): 0.2}  # equality is allowed
        dataclasses.replace(config, link_delays=two_hops).validate()

    @pytest.mark.parametrize("links", [
        {(0, 1): -1.0, (1, 0): -1.0},  # the trace's time would run backwards
        {(0, 1): math.nan},
        {(0, 1): math.inf},
        {(0, 0): 0.1},
        {(0, 2): 0.1},
        {(-1, 1): 0.1},
    ])
    def test_link_delays_must_be_finite_non_negative_between_two_nodes(self, links):
        with pytest.raises(InvalidConfig, match="need two distinct nodes below 2"):
            SimConfig(num_nodes=2, link_delays=links).validate()
        SimConfig(num_nodes=2, link_delays={(0, 1): 0.0, (1, 0): 0.5}).validate()

    def test_infinite_hashrate_rejected(self):
        # Solve times would all be zero: a run would mine at t = 0 forever.
        config = SimConfig(total_hashrate=math.inf, initial_difficulty=131072,
                           sim_duration=10.0)
        with pytest.raises(InvalidConfig, match="total_hashrate must be positive and finite"):
            config.validate()

    def test_sampled_gas_above_gas_limit_rejected(self):
        def sampler(rng, n):
            gas = rng.integers(40_000, 50_001, size=n)
            gas[3] = 20_000_000
            return gas

        config = SimConfig(lambda_=3, sim_duration=300.0, tx_gas_sampler=sampler)
        with pytest.raises(InvalidConfig, match="block gas limit"):
            run_simulation(config, 0)


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
        assert own in node.pending_ids()
        assert own + 1 not in node.pending_ids()
        foreign = int(np.flatnonzero(origins != 0)[20])
        node.catch_up(float(times[foreign]), 0.0)  # foreign: after the delay
        assert set(range(foreign + 1)) <= node.pending_ids()

    def test_pool_is_delivered_minus_chain_after_every_event(self, monkeypatch):
        config = small_config(lambda_=1, num_nodes=4, propagation_delay=2.0, tx_rate=20.0,
                              sim_duration=80.0)
        sim = Simulation(config, 0)
        caught_up = {node.index: -math.inf for node in sim.nodes}
        counts = {"reorg": 0, "checked": 0}

        def check():
            for node in sim.nodes:
                expected = _delivered_ids(sim, node, caught_up[node.index]) - _chain_ids(node)
                assert node.pending_ids() == expected
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
        tx_rate=st.floats(1.0, 40.0),
        delay=st.floats(0.0, 3.0),
        gas_range=st.tuples(st.integers(1_000, 60_000), st.integers(0, 60_000)),
        gas_limit=st.integers(45_000, 600_000),
        steps=st.lists(
            st.tuples(st.floats(0.0, 10.0), st.sets(st.integers(0, 400), max_size=40),
                      st.sets(st.integers(0, 400), max_size=20), st.booleans()),
            min_size=1, max_size=4),
        chunk=st.sampled_from([1, 3, 16, netsim.FILL_CHUNK]),
        data=st.data(),
    )
    def test_fill_matches_object_level_oracle(self, seed, num_nodes, tx_rate, delay,
                                              gas_range, gas_limit, steps, chunk, data):
        lo, span = gas_range

        def sampler(rng, n):
            return rng.integers(lo, lo + span + 1, size=n)

        config = SimConfig(num_nodes=num_nodes, hash_shares=None, tx_rate=tx_rate,
                           propagation_delay=delay, sim_duration=40.0, seed=seed,
                           tx_gas_sampler=sampler)
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
                ids, gas_used = node.fill(sim.table.gas, gas_limit)
            assert ids.dtype == np.intp
            assert ids.tolist() == [tx.tx_id for tx in expected]
            assert gas_used == sum(tx.gas for tx in expected)
            assert node.pending_ids() == {tx.tx_id for tx in pool}
            if mine:  # the filled block joins the chain
                node.set_in_chain(ids, 1)
                on_chain.update(ids.tolist())


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
            sizes = {len(t) for t in result.trees}
            assert len(sizes) == 1

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


class TestEndOfRun:
    def test_scheduling_at_the_end_changes_nothing(self):
        config = small_config()
        sim = Simulation(config, 0)
        for node in sim.nodes:
            sim._schedule_mining(node, 0.0)
        for now in (config.sim_duration, config.sim_duration + 1.0):
            for node in sim.nodes:
                epoch, events = node.epoch, list(sim.events)
                rng_state = sim.rng.bit_generator.state
                sim._schedule_mining(node, now)
                assert node.epoch == epoch
                assert sim.events == events
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
        node.head_block = first
        forged = dataclasses.replace(first.header, timestamp=5)
        node.head_block = dataclasses.replace(first, header=forged)
        second = sim.on_block_mined(0, 5.2)
        assert second.header.timestamp == 6

    def test_first_mined_block_fields(self):
        config = small_config(tx_rate=10.0)
        sim = Simulation(config, 0)
        block = sim.on_block_mined(1, 3.4)
        assert block.number == 1
        assert block.header.parent_id == sim.genesis.block_id
        assert block.header.miner == 1
        # difficulty follows the rule applied to (genesis, timestamp)
        from gridchain.consensus import compute_difficulty

        trace = compute_difficulty(
            sim.params, sim.genesis.header, 1, block.header.timestamp
        )
        assert block.header.difficulty == trace.result

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
        assert rival.block_id in node1.tree

    def test_out_of_order_delivery_buffers_and_matches_in_order(self):
        config = small_config(tx_rate=0.0)
        sim_a = Simulation(config, 0)
        b1 = sim_a.on_block_mined(0, 1.0)
        node0 = sim_a.nodes[0]
        node0.head_block = b1
        b2 = sim_a.on_block_mined(0, 2.5)
        # in-order delivery to node 1
        sim_a.on_block_received(1, b1, 1.25)
        sim_a.on_block_received(1, b2, 2.75)
        # out-of-order delivery to node 2: child first, buffered
        sim_a.on_block_received(2, b2, 2.75)
        assert b2.block_id not in sim_a.nodes[2].tree
        sim_a.on_block_received(2, b1, 3.0)
        assert b2.block_id in sim_a.nodes[2].tree
        assert sim_a.nodes[2].head_block.block_id == b2.block_id
        assert set(sim_a.nodes[2].tree.blocks) == set(sim_a.nodes[1].tree.blocks)

    def test_stale_sibling_becomes_uncle(self):
        config = small_config(tx_rate=0.0)
        sim = Simulation(config, 0)
        a1 = sim.on_block_mined(0, 1.0)
        b1 = sim.on_block_mined(1, 1.1)  # node 1 has not seen a1 yet: sibling
        sim.on_block_received(0, b1, 1.35)
        child = sim.on_block_mined(0, 3.0)
        assert child.header.parent_id == a1.block_id
        assert child.header.uncle_ids == (b1.block_id,)


def _traced_run(sim_class, config):
    """The trace, the stats (or the error that refused them) and the heads."""
    buf = io.StringIO()
    sim = sim_class(config, 0, trace=buf)
    try:
        stats = repr(sim.run().stats)
    except ChainTooShort as exc:  # a short draw can mine fewer than two blocks
        stats = repr(exc)
    return buf.getvalue(), stats, [node.head_block.block_id for node in sim.nodes]


class TestDelivery:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        weights=st.lists(st.integers(1, 5), min_size=1, max_size=5),
        lambda_=st.integers(1, 4),
        delay=st.floats(0.0, 2.0),
        positions=st.none() | st.lists(st.floats(0.0, 3.0), min_size=5, max_size=5),
        base=st.floats(0.05, 1.0),
        tx_rate=st.floats(0.0, 30.0),
        gas_range=st.tuples(st.integers(1_000, 60_000), st.integers(0, 200_000)),
        duration=st.floats(20.0, 150.0),
    )
    def test_matches_per_receiver_oracle(self, seed, weights, lambda_, delay, positions,
                                         base, tx_rate, gas_range, duration):
        lo, span = gas_range

        def sampler(rng, n):
            return rng.integers(lo, lo + span + 1, size=n)

        n = len(weights)
        links = None if positions is None else line_link_delays(positions[:n], base)
        config = SimConfig(lambda_=lambda_, num_nodes=n,
                           hash_shares=tuple(w / sum(weights) for w in weights),
                           propagation_delay=delay, link_delays=links, tx_rate=tx_rate,
                           block_gas_limit=300_000, mean_tx_gas=lo,
                           sim_duration=duration, warmup_blocks=3, seed=seed,
                           tx_gas_sampler=sampler)
        assert _traced_run(Simulation, config) == _traced_run(PerReceiverSimulation, config)

    def test_each_header_is_validated_once(self):
        config = small_config(lambda_=1, num_nodes=5, propagation_delay=1.5, tx_rate=5.0,
                              sim_duration=200.0,
                              link_delays=line_link_delays((0.0, 0.2, 0.9, 1.4, 2.0), 0.3))
        buf = io.StringIO()
        with mock.patch.object(netsim, "validate_header",
                               wraps=netsim.validate_header) as validate:
            result = run_simulation(config, 0, trace=buf)
        mined = [line.split(",")[3] for line in buf.getvalue().splitlines()
                 if ",mined," in line]
        assert result.stats.included_uncles > 0
        assert sorted(call.args[2].block_id for call in validate.call_args_list) == sorted(mined)

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
        assert child.block_id in sim.validated
        with mock.patch.object(netsim, "validate_header") as validate:
            with pytest.raises(AssertionError, match="invalid header broadcast"):
                sim.on_block_received(2, child, 3.25)
        validate.assert_not_called()
        assert child.block_id not in sim.nodes[2].tree
        sim.on_block_received(2, b1, 3.5)
        sim.on_block_received(2, child, 3.5)
        assert sim.nodes[2].head_block.block_id == child.block_id


def _first_heaviest(tree) -> str:
    """The earliest-inserted block of maximal total difficulty (dicts keep
    insertion order, and ``max`` returns the first maximal key)."""
    td = tree.total_difficulty
    return max(td, key=td.get)


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
        sim._settle()
        smaller = min(a.block_id, c.block_id)
        assert [sim.nodes[i].head_block.block_id for i in (1, 2)] == [smaller, smaller]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        weights=st.lists(st.integers(1, 5), min_size=2, max_size=5),
        lambda_=st.integers(1, 3),
        delay=st.floats(0.5, 3.0),
        positions=st.none() | st.lists(st.floats(0.0, 3.0), min_size=5, max_size=5),
        duration=st.floats(20.0, 120.0),
    )
    def test_head_is_first_received_heaviest_after_every_event(
            self, seed, weights, lambda_, delay, positions, duration):
        n = len(weights)
        links = None if positions is None else line_link_delays(positions[:n], 0.5)
        config = SimConfig(lambda_=lambda_, num_nodes=n,
                           hash_shares=tuple(w / sum(weights) for w in weights),
                           propagation_delay=delay, link_delays=links, tx_rate=2.0,
                           sim_duration=duration, warmup_blocks=0, seed=seed)
        sim = Simulation(config, 0)

        def check():
            for node in sim.nodes:
                assert node.head_block.block_id == _first_heaviest(node.tree)

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
            assert node.head_block.block_id == fork_choice_head(node.tree)


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
    )
    def test_every_block_passes_validate_header_in_a_fresh_tree(
            self, num_nodes, weights, delay, lambda_, tx_rate, duration, seed):
        shares = tuple(w / sum(weights[:num_nodes]) for w in weights[:num_nodes])
        config = SimConfig(lambda_=lambda_, num_nodes=num_nodes, hash_shares=shares,
                           propagation_delay=delay, tx_rate=tx_rate, sim_duration=duration,
                           warmup_blocks=0, seed=seed)
        sim = Simulation(config, 0)
        try:
            sim.run()
        except ChainTooShort:  # the trees are complete; only the stats failed
            pass
        blocks = sorted(sim.nodes[0].tree.blocks.values(), key=lambda b: b.number)
        fresh = BlockTree(sim.genesis)
        for b in blocks[1:]:  # parents and uncles are lower, so inserted first
            assert validate_header(sim.params, fresh, b.header)
            fresh.insert_block(b)


class TestInjectedTransactions:
    def test_payload_rides_through_to_replay(self):
        owner = addr("owner")
        calls = [
            (1.0, 0, Transaction(0, owner, 45_000, 0.76,
                                 payload=ContractCall(CallKind.DEPLOY))),
            (2.0, 1, Transaction(0, owner, 45_000, 0.76,
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
            (1.0, 0, Transaction(0, owner, 45_000, 0.76, payload=ContractCall(CallKind.DEPLOY))),
            (2.0, 1, Transaction(0, stranger, 45_000, 0.76, payload=record)),  # refused
            (3.0, 2, Transaction(0, owner, 45_000, 0.76, payload=record)),
            (4.0, 0, Transaction(0, owner, 45_000, 0.76, payload=None)),
        ]
        config = small_config(tx_rate=5.0, sim_duration=150.0)
        result = run_simulation(config, 0, injected=calls)
        chain, table = result.canonical_blocks(), result.table

        def every_tx(i):  # the injected object, or a payload-less stand-in
            return table.injected.get(i) or Transaction(
                i, node_address(int(table.origins[i])), int(table.gas[i]), TX_SIZE_KB)

        scanned = [make_block(b.number, b.header.parent_id, b.header.miner,
                              b.header.difficulty, b.header.timestamp,
                              [every_tx(i) for i in b.tx_ids], b.header.uncle_ids)
                   for b in chain]
        assert [s.tx_ids for s in scanned] == [b.tx_ids for b in chain]
        assert sum(len(b.tx_ids) for b in chain) > len(table.injected)
        fast, full = replay_chain(chain), replay_chain(scanned)
        assert (fast.applied_calls, fast.failed_calls) == (2, 1)
        assert fast.failures_by_sender == full.failures_by_sender == {stranger: 1}
        assert dump_state(fast) == dump_state(full)

    def test_blocks_hold_their_injected_transactions(self):
        owner = addr("owner")
        calls = [(0.5 + 3.0 * k, k % 3, Transaction(0, owner, 45_000, 0.76, payload=None))
                 for k in range(40)]
        config = small_config(tx_rate=20.0, sim_duration=150.0, propagation_delay=1.0)
        result = run_simulation(config, 0, injected=calls)
        inj = result.table.injected
        held = 0
        for tree in result.trees:
            for b in tree.blocks.values():
                assert b.transactions == tuple(inj[i] for i in b.tx_ids if i in inj)
                held += len(b.transactions)
        assert held >= len(inj) == 40

        plain = run_simulation(config, 0)
        assert all(b.transactions == () for tree in plain.trees for b in tree.blocks.values())
        assert any(b.tx_ids for b in plain.tree.blocks.values())

    def test_injected_renumbered_in_arrival_order(self):
        owner = addr("owner")
        inj = [(10.0, 0, Transaction(0, owner, 45_000, 0.76, payload=None))]
        config = small_config(tx_rate=2.0, sim_duration=60.0)
        sim = Simulation(config, 0, injected=inj)
        table = sim.table
        found = [i for i in range(table.count) if table.injected.get(i) is not None]
        assert len(found) == 1
        i = found[0]
        assert table.injected[i].tx_id == i
        assert float(table.times[i]) == 10.0


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
