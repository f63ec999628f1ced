import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gridchain.chain import (
    BlockHeader,
    BlockTree,
    UnknownBlock,
    UnknownParent,
    make_block,
    make_genesis,
)
from gridchain.consensus import (
    MAX_UNCLE_GENERATIONS,
    MIN_DIFFICULTY,
    DifficultyParams,
    NonMonotonicTimestamp,
    compute_difficulty,
    eligible_uncles,
    fork_choice_head,
    validate_header,
    validate_uncle,
)
from gridchain.netsim import SimConfig, run_simulation

from conftest import extend


def header(difficulty, timestamp, uncles=0, number=1):
    return BlockHeader(
        block_id="h",
        number=number,
        parent_id="p",
        miner=0,
        difficulty=difficulty,
        timestamp=timestamp,
        uncle_ids=tuple(f"u{i}" for i in range(uncles)),
        gas_used=0,
    )


def run_rule(lam, parent_d, parent_uncles, number, interval):
    params = DifficultyParams(lambda_=lam)
    parent = header(parent_d, 1000, uncles=parent_uncles, number=number - 1)
    return compute_difficulty(params, parent, number, 1000 + interval)


class TestComputeDifficulty:
    def test_genesis_is_base_difficulty(self):
        assert compute_difficulty(DifficultyParams(lambda_=3), None, 0, 0) == 131072

    def test_lambda9_interval_inside_window(self):
        # lam=9, parent D=131072, no uncles, T=10 -> x=64, y=1, zeta=0,
        # epsilon=0: result unchanged
        assert run_rule(9, 131072, 0, 1, 10) == 131072

    def test_fast_block_steps_up(self):
        # lam=3, parent D=2,048,000, T=1 -> x=1000, zeta=1 -> 2,049,000
        assert run_rule(3, 2_048_000, 0, 100, 1) == 2_049_000

    def test_slow_block_steps_down(self):
        # lam=3, T=30 -> zeta = max(1-10, -99) = -9 -> 2,048,000 - 9000
        assert run_rule(3, 2_048_000, 0, 100, 30) == 2_039_000

    def test_clamp_and_floor(self):
        # T huge -> zeta clamps at -99; the result floors at the base difficulty
        assert run_rule(3, 131072, 0, 1, 10_000) == 131072
        # Far above the base the -99 clamp shows in the result: x=488,281,
        # so 10**9 - 99 * 488,281. Unclamped (zeta=-3332) it would floor at
        # 131072.
        assert run_rule(3, 10**9, 0, 1, 10_000) == 951_660_181

    def test_bomb_term_at_5_3_million(self):
        # T=4 in [lam, 2*lam) -> zeta 0; epsilon = floor(2^(3-2)) = 2 on top
        # of an unchanged difficulty
        assert run_rule(3, 131072, 0, 5_300_000, 4) == 131074

    def test_uncle_parent_uses_y2(self):
        # y=2, T=4 -> zeta = 2 - 1 = 1 -> one step of x=64 up
        assert run_rule(3, 131072, 2, 1, 4) == 131072 + 64

    def test_non_monotonic_timestamp_rejected(self):
        params = DifficultyParams(lambda_=3)
        parent = header(131072, 1000)
        with pytest.raises(NonMonotonicTimestamp):
            compute_difficulty(params, parent, 1, 1000)

    def test_table_driven_against_oracle(self):
        rng = random.Random(20210606)
        cases = [
            (9, 131072, 0, 1, 10),
            (3, 2_048_000, 0, 100, 1),
            (3, 2_048_000, 0, 100, 30),
            (3, 131072, 0, 1, 10_000),
            (3, 10**9, 0, 1, 10_000),
            (3, 131072, 0, 5_300_000, 4),
            # The last height without a bomb term (0) and the first with
            # one (1): BOMB_OFFSET + 2 * BOMB_PERIOD = 5,200,000.
            (3, 131072, 0, 5_199_999, 4),
            (3, 131072, 0, 5_200_000, 4),
            (9, 131072, 1, 77, 17),
        ]
        for _ in range(60):
            cases.append(
                (
                    rng.randint(1, 15),
                    rng.randint(131072, 10**9),
                    rng.randint(0, 2),
                    rng.randint(1, 6_000_000),
                    rng.randint(1, 10_000),
                )
            )
        for case in cases:
            assert run_rule(*case) == oracles.difficulty_oracle(*case), case

    @settings(max_examples=200, deadline=None)
    @given(
        lam=st.integers(min_value=1, max_value=20),
        pd=st.integers(min_value=131072, max_value=10**12),
        pu=st.integers(min_value=0, max_value=2),
        number=st.integers(min_value=1, max_value=7_000_000),
        t=st.integers(min_value=1, max_value=100_000),
    )
    def test_exact_recurrence_property(self, lam, pd, pu, number, t):
        assert run_rule(lam, pd, pu, number, t) == oracles.difficulty_oracle(lam, pd, pu, number, t)

    @settings(max_examples=150, deadline=None)
    @given(
        lam=st.integers(min_value=1, max_value=20),
        pd=st.integers(min_value=131072, max_value=10**12),
        t=st.integers(min_value=1, max_value=10_000),
    )
    def test_region_property(self, lam, pd, t):
        # With no uncles and a dormant bomb: up iff T < lam, flat on
        # [lam, 2*lam), down (when above the floor) iff T >= 2*lam.
        result = run_rule(lam, pd, 0, 1, t)
        if t < lam:
            assert result > pd
        elif t < 2 * lam:
            assert result == max(131072, pd)
        elif pd > 131072:
            assert result < pd
        else:
            assert result == 131072

    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.integers(min_value=1, max_value=12),
        pd=st.integers(min_value=131072, max_value=10**10),
        pu=st.integers(min_value=0, max_value=2),
    )
    def test_monotone_clamp(self, lam, pd, pu):
        lower = max(131072, pd + (pd // 2048) * (-99))
        results = [run_rule(lam, pd, pu, 10, t) for t in range(1, 40 * lam, max(1, lam))]
        assert all(a >= b for a, b in zip(results, results[1:]))
        assert all(r >= lower for r in results)

    @settings(max_examples=200, deadline=None)
    @given(
        lam=st.integers(min_value=1, max_value=16),
        pd=st.integers(min_value=MIN_DIFFICULTY, max_value=10**12),
        pu=st.integers(min_value=0, max_value=2),
        number=st.integers(min_value=1, max_value=6_500_000),
        t=st.integers(min_value=1, max_value=50_000),
        case=st.sampled_from(["valid", "no parent", "not after parent"]),
    )
    def test_returns_an_int_or_rejects_bad_input(self, lam, pd, pu, number, t, case):
        # A valid child gets a plain int. A non-genesis block without a
        # parent raises ValueError, and a timestamp not after the parent's
        # raises NonMonotonicTimestamp.
        params = DifficultyParams(lambda_=lam)
        parent = None if case == "no parent" else header(pd, 1000, uncles=pu, number=number - 1)
        timestamp = 1000 + t if case == "valid" else 1001 - t
        if case == "valid":
            assert type(compute_difficulty(params, parent, number, timestamp)) is int
            return
        expected = ValueError if parent is None else NonMonotonicTimestamp
        with pytest.raises(expected):
            compute_difficulty(params, parent, number, timestamp)

    def test_lambda9_matches_fixed_divisor_formula(self):
        # The tunable rule at lambda=9 must be bit-identical to the
        # unmodified floor(T/9) formula.
        rng = random.Random(9)
        for _ in range(500):
            pd = rng.randint(131072, 10**10)
            pu = rng.randint(0, 2)
            number = rng.randint(1, 6_000_000)
            t = rng.randint(1, 2000)
            y = 1 if pu == 0 else 2
            exp = max(number - 5_000_000, 0) // 100_000 - 2
            eps = 2**exp if exp >= 0 else 0
            fixed9 = max(131072, pd + (pd // 2048) * max(y - t // 9, -99) + eps)
            assert run_rule(9, pd, pu, number, t) == fixed9


class TestForkChoice:
    def test_single_genesis(self, tree, genesis):
        assert fork_choice_head(tree) == genesis.block_id

    def test_two_children_heavier_wins(self, tree, genesis):
        extend(tree, genesis, difficulty=131136, miner=0)
        heavy = extend(tree, genesis, difficulty=131200, miner=1)
        assert fork_choice_head(tree) == heavy.block_id

    def test_total_difficulty_beats_length(self, tree, genesis):
        # branch A: two blocks adding 262272; branch B: one block adding 262273
        a1 = extend(tree, genesis, difficulty=131136, miner=0)
        extend(tree, a1, difficulty=131136, miner=0)
        b1 = extend(tree, genesis, difficulty=262273, miner=1)
        assert fork_choice_head(tree) == b1.block_id

    def test_tie_broken_by_smaller_id(self, tree, genesis):
        c1 = extend(tree, genesis, difficulty=131072, miner=0, ts=5)
        c2 = extend(tree, genesis, difficulty=131072, miner=1, ts=6)
        assert tree.total_difficulty[c1.block_id] == tree.total_difficulty[c2.block_id]
        assert fork_choice_head(tree) == min(c1.block_id, c2.block_id)

    def test_insertion_order_invariance(self, genesis):
        rng = random.Random(4)
        blocks = []
        tree = BlockTree(genesis)
        frontier = [genesis]
        for i in range(25):
            parent = rng.choice(frontier)
            blk = extend(tree, parent, difficulty=131072 + rng.randint(0, 64) * 2048,
                         ts=parent.header.timestamp + 1 + rng.randint(0, 3), miner=i % 3)
            blocks.append(blk)
            frontier.append(blk)
        expected = fork_choice_head(tree)
        for _ in range(5):
            order = blocks[:]
            rng.shuffle(order)
            rebuilt = BlockTree(genesis)
            pending = order[:]
            while pending:
                progressed = False
                for blk in list(pending):
                    if blk.header.parent_id in rebuilt:
                        rebuilt.insert_block(blk)
                        pending.remove(blk)
                        progressed = True
                assert progressed
            assert fork_choice_head(rebuilt) == expected


def build_spine(tree, genesis, n):
    spine = [genesis]
    for _ in range(n):
        spine.append(extend(tree, spine[-1], difficulty=131072))
    return spine


class TestUncles:
    def test_stale_sibling_of_parent_is_valid(self, tree, genesis):
        spine = build_spine(tree, genesis, 3)
        stale = extend(tree, spine[2], difficulty=131073, miner=2, ts=99)
        nephew = header_for(spine[3], tree)
        assert validate_uncle(tree, nephew, stale.block_id) is True

    def test_ancestor_is_not_an_uncle(self, tree, genesis):
        spine = build_spine(tree, genesis, 3)
        nephew = header_for(spine[3], tree)
        assert validate_uncle(tree, nephew, spine[1].block_id) is False

    def test_depth_window_boundary(self, tree, genesis):
        spine = build_spine(tree, genesis, 9)
        # stale child of spine[2] (height 3): its parent sits k generations
        # above the nephew; k = 7 is the last valid one, k = 8 is out.
        stale = extend(tree, spine[2], difficulty=131073, miner=2, ts=77)
        nephew_k7 = header_for(spine[8], tree)   # nephew height 9: k = 9 - 3 + 1
        nephew_k8 = header_for(spine[9], tree)   # nephew height 10: k = 8
        assert validate_uncle(tree, nephew_k7, stale.block_id) is True
        assert validate_uncle(tree, nephew_k8, stale.block_id) is False

    def test_sibling_of_nephew_is_invalid(self, tree, genesis):
        spine = build_spine(tree, genesis, 2)
        stale = extend(tree, spine[2], difficulty=131073, miner=2, ts=55)
        # prospective nephew is also a child of spine[2]: same height (k = 1)
        nephew = header_for(spine[2], tree)
        assert validate_uncle(tree, nephew, stale.block_id) is False

    def test_already_included_uncle_rejected(self, tree, genesis):
        spine = build_spine(tree, genesis, 2)
        stale = extend(tree, spine[1], difficulty=131073, miner=2, ts=44)
        including = extend(tree, spine[2], difficulty=131072, uncle_ids=(stale.block_id,))
        nephew = header_for(including, tree)
        assert validate_uncle(tree, nephew, stale.block_id) is False

    def test_unknown_uncle_invalid(self, tree, genesis):
        spine = build_spine(tree, genesis, 2)
        nephew = header_for(spine[2], tree)
        assert validate_uncle(tree, nephew, "missing") is False

    def test_eligible_uncles_empty_on_linear_chain(self, tree, genesis):
        spine = build_spine(tree, genesis, 4)
        assert eligible_uncles(tree, spine[4].block_id, tree.blocks) == []

    def test_eligible_uncles_single_stale_sibling(self, tree, genesis):
        spine = build_spine(tree, genesis, 3)
        stale = extend(tree, spine[2], difficulty=131073, miner=2, ts=66)
        assert eligible_uncles(tree, spine[3].block_id, tree.blocks) == [stale.block_id]
        known = tree.blocks.keys() - {stale.block_id}  # not received yet
        assert eligible_uncles(tree, spine[3].block_id, known) == []

    def test_eligible_uncles_two_lowest_numbered(self, tree, genesis):
        spine = build_spine(tree, genesis, 4)
        s1 = extend(tree, spine[1], difficulty=131073, miner=2, ts=31)  # number 2
        s2 = extend(tree, spine[2], difficulty=131073, miner=2, ts=32)  # number 3
        s3 = extend(tree, spine[3], difficulty=131073, miner=2, ts=33)  # number 4
        got = eligible_uncles(tree, spine[4].block_id, tree.blocks)
        assert got == [s1.block_id, s2.block_id]
        assert s3.block_id not in got

    def test_unknown_nephew_parent_raises(self, tree, genesis):
        spine = build_spine(tree, genesis, 3)
        stale = extend(tree, spine[1], difficulty=131073, miner=2, ts=50)
        nephew = BlockHeader(block_id="n", number=4, parent_id="missing", miner=0,
                             difficulty=131072, timestamp=60, uncle_ids=(stale.block_id,),
                             gas_used=0)
        with pytest.raises(UnknownBlock):
            validate_uncle(tree, nephew, stale.block_id)
        with pytest.raises(UnknownBlock):
            eligible_uncles(tree, "missing", tree.blocks)
        with pytest.raises(UnknownParent):
            validate_header(DifficultyParams(lambda_=3), tree, nephew)


def fork_tree(rng: random.Random, size: int) -> BlockTree:
    """A random fork-heavy tree, built without validation.

    Each block extends one of the four latest blocks and references up to
    two blocks of the eight heights below it, whether or not they are
    ancestors or already included, so double inclusion happens.
    """
    genesis = make_genesis(difficulty=131072)
    tree = BlockTree(genesis)
    blocks = [genesis]
    for i in range(size):
        parent = blocks[-1 - rng.randrange(min(4, len(blocks)))]
        window = [b for b in blocks if b.number > parent.number - 8]
        uncles = rng.sample(window, min(len(window), rng.choice((0, 0, 0, 1, 2))))
        blocks.append(extend(tree, parent, difficulty=131072, miner=i,
                             uncle_ids=tuple(u.block_id for u in uncles)))
    return tree


def reinserted(tree: BlockTree, rng: random.Random) -> BlockTree:
    """The blocks of ``tree`` inserted into a new tree in another
    parent-first order: heights ascending, each height's blocks shuffled."""
    blocks = [b for b in tree.blocks.values() if b.block_id != tree.genesis_id]
    rng.shuffle(blocks)
    blocks.sort(key=lambda b: b.number)  # stable: a shuffled order per height
    copy = BlockTree(tree.blocks[tree.genesis_id])
    for block in blocks:
        copy.insert_block(block)
    return copy


def compare_uncle_selection(tree: BlockTree) -> Counter:
    """Assert the lineage-based uncle checks agree with the oracles for
    every (nephew parent, candidate) pair; count the edge cases met."""
    seen: Counter = Counter()
    for pid in tree.blocks:
        assert eligible_uncles(tree, pid, tree.blocks) == oracles.eligible_uncles(tree, pid)
        probe = oracles.probe_header(tree, pid)
        lineage = [pid] + tree.ancestors(pid, MAX_UNCLE_GENERATIONS)
        included = {u for a in lineage for u in tree.blocks[a].header.uncle_ids}
        for cid, cand in tree.blocks.items():
            valid = oracles.validate_uncle(tree, probe, cid)
            assert validate_uncle(tree, probe, cid) == valid
            k = probe.number - cand.number + 1
            related = cid not in lineage and cand.header.parent_id in lineage
            seen["k7-valid"] += valid and k == MAX_UNCLE_GENERATIONS
            seen["k8-out"] += (related and k == MAX_UNCLE_GENERATIONS + 1
                               and cid not in included)
            seen["double"] += related and 2 <= k <= MAX_UNCLE_GENERATIONS and cid in included
            seen["cut-at-genesis"] += valid and len(lineage) <= MAX_UNCLE_GENERATIONS
    return seen


class TestUncleSelectionOracle:
    @settings(max_examples=40, deadline=None)
    @given(rng=st.randoms(use_true_random=False), size=st.integers(1, 40))
    def test_matches_per_candidate_oracle(self, rng, size):
        tree = fork_tree(rng, size)
        # The same blocks inserted in another order select the same uncles.
        for t in (tree, reinserted(tree, rng)):
            compare_uncle_selection(t)
            assert all(ids == sorted(ids) for ids in t.by_number.values())

    def test_random_trees_reach_the_edge_cases(self):
        seen: Counter = Counter()
        for seed in range(10):
            seen += compare_uncle_selection(fork_tree(random.Random(seed), 40))
        for case in ("k7-valid", "k8-out", "double", "cut-at-genesis"):
            assert seen[case] > 0, case

    def test_lineage_is_block_and_seven_ancestors(self):
        config = SimConfig(lambda_=1, num_nodes=6, propagation_delay=2.0, tx_rate=5.0,
                           sim_duration=200.0, warmup_blocks=0, seed=1)
        result = run_simulation(config, 0)
        assert result.stats.included_uncles > 0
        tree = result.tree
        assert tree.lineage.keys() == tree.blocks.keys()
        for bid in tree.blocks:
            assert tree.lineage[bid] == (bid, *tree.ancestors(bid, 7))


def header_for(parent_block, tree):
    """Prospective child header of parent_block (uncle checks only)."""
    return BlockHeader(
        block_id="nephew",
        number=parent_block.number + 1,
        parent_id=parent_block.block_id,
        miner=0,
        difficulty=0,
        timestamp=parent_block.header.timestamp + 1,
        uncle_ids=(),
        gas_used=0,
    )


class TestValidateHeader:
    def params(self):
        return DifficultyParams(lambda_=3)

    def make_valid_child(self, tree, parent, ts_gap=4):
        params = self.params()
        ts = parent.header.timestamp + ts_gap
        return make_block(
            number=parent.number + 1,
            parent_id=parent.block_id,
            miner=0,
            difficulty=compute_difficulty(params, parent.header, parent.number + 1, ts),
            timestamp=ts,
        )

    def test_valid_header_accepted(self, tree, genesis):
        child = self.make_valid_child(tree, genesis)
        assert validate_header(self.params(), tree, child.header) is True

    def test_wrong_difficulty_rejected(self, tree, genesis):
        child = self.make_valid_child(tree, genesis)
        bad = BlockHeader(
            block_id="bad",
            number=child.number,
            parent_id=child.header.parent_id,
            miner=0,
            difficulty=child.header.difficulty + 1,
            timestamp=child.header.timestamp,
            uncle_ids=(),
            gas_used=0,
        )
        assert validate_header(self.params(), tree, bad) is False

    def test_three_uncles_rejected(self, tree, genesis):
        child = self.make_valid_child(tree, genesis)
        bad = BlockHeader(
            block_id="bad",
            number=child.number,
            parent_id=child.header.parent_id,
            miner=0,
            difficulty=child.header.difficulty,
            timestamp=child.header.timestamp,
            uncle_ids=("u1", "u2", "u3"),
            gas_used=0,
        )
        assert validate_header(self.params(), tree, bad) is False

    def test_stale_timestamp_rejected(self, tree, genesis):
        params = self.params()
        bad = BlockHeader(
            block_id="bad",
            number=1,
            parent_id=genesis.block_id,
            miner=0,
            difficulty=131072,
            timestamp=genesis.header.timestamp,
            uncle_ids=(),
            gas_used=0,
        )
        assert validate_header(params, tree, bad) is False

    def test_simulator_blocks_all_validate(self):
        from gridchain.netsim import SimConfig, run_simulation

        config = SimConfig(lambda_=2, sim_duration=120.0, warmup_blocks=0, seed=3)
        result = run_simulation(config, 0)
        params = config.difficulty_params()
        tree = result.tree
        checked = 0
        for bid, block in tree.blocks.items():
            if bid == tree.genesis_id:
                continue
            assert validate_header(params, tree, block.header) is True
            checked += 1
        assert checked > 10
