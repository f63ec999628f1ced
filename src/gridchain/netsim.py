"""Discrete-event network simulator: arrivals, statistical mining, broadcast.

One run drives ``num_nodes`` full nodes over a full mesh with a fixed
propagation delay. Mining is statistical: each node's solve time for its
current candidate is exponential with mean ``difficulty / node_hashrate``;
no hashes are ever computed. Blocks are assembled greedily from the node's
pending pool up to the gas limit, carry up to two uncles, and are delivered
to every peer after the propagation delay.

Determinism: a run is a pure function of (config, run_index). Events are
processed in (time, sequence) order from a single heap, every random draw
comes from one generator seeded with (seed, run_index), and transaction
arrivals are precomputed into arrays (a transaction only becomes visible to
the chain when a node mines, so batch delivery is observationally equivalent
to one event per arrival).

Timestamps are integer seconds with the strict-monotonicity fix
``max(parent + 1, floor(now))``; the difficulty rule's interval term needs
integer intervals and production clients behave the same way.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left, bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence, TextIO

import numpy as np

from .chain import (
    Block,
    BlockHeader,
    BlockTree,
    Transaction,
    assemble_block,
    header_digest,  # noqa: F401  (bench/layers.py times netsim.header_digest)
    make_genesis,
)
from .consensus import (
    MIN_DIFFICULTY,
    DifficultyParams,
    compute_difficulty,
    eligible_uncles,
    fork_choice_head,
    validate_header,
)
from .metrics import RunStats, compute_run_stats

TRACE_HEADER = "time,kind,node,block_id,number,difficulty,timestamp,n_tx,n_uncles"


class InvalidConfig(ValueError):
    pass


@dataclass
class SimConfig:
    """Experiment input. Defaults follow the measured small-network setup:
    3 miners with equal shares, 0.25 s propagation, 100 tx/s arrivals,
    15M gas blocks and 45k gas transactions. Transaction size is no setting:
    every simulated transaction is ``chain.TX_SIZE_KB`` (0.759808 kB), and
    nothing in a run reads it.

    ``total_hashrate`` sets the scale of solve times (difficulty per second);
    the default of one base-difficulty per second keeps the difficulty
    floor from pinning short intervals, so every threshold in a sweep has a
    reachable operating point. ``initial_difficulty`` defaults to the
    closed-loop equilibrium for the configured threshold, computed by
    ``estimate_equilibrium_interval``; the adjustment rule moves difficulty
    by at most ~0.05% per block, far too slow to climb from the floor to a
    long-interval equilibrium within a bounded run.
    """

    lambda_: int = 3
    num_nodes: int = 3
    hash_shares: tuple[float, ...] | None = None
    total_hashrate: float = float(MIN_DIFFICULTY)
    propagation_delay: float = 0.25
    tx_rate: float = 100.0
    block_gas_limit: int = 15_000_000
    mean_tx_gas: int = 45_000
    sim_duration: float = 1000.0
    num_runs: int = 100
    seed: int = 1
    warmup_blocks: int = 100
    initial_difficulty: int | None = None
    # Optional per-link delays {(src, dst): seconds} for sensitivity runs.
    link_delays: dict[tuple[int, int], float] | None = None
    # Optional gas distribution: callable(rng, n) -> int array.
    tx_gas_sampler: Callable | None = None

    def __post_init__(self) -> None:
        if self.hash_shares is not None:
            self.hash_shares = tuple(float(s) for s in self.hash_shares)

    def shares(self) -> tuple[float, ...]:
        if self.hash_shares is None:
            return tuple(1.0 / self.num_nodes for _ in range(self.num_nodes))
        return self.hash_shares

    def validate(self) -> None:
        if self.num_nodes < 1:
            raise InvalidConfig("num_nodes must be >= 1")
        if self.lambda_ < 1 or int(self.lambda_) != self.lambda_:
            raise InvalidConfig("lambda must be a positive integer (seconds)")
        shares = self.shares()
        if len(shares) != self.num_nodes:
            raise InvalidConfig(
                f"hash_shares has {len(shares)} entries for {self.num_nodes} nodes"
            )
        if not all(0 < s < math.inf for s in shares):
            raise InvalidConfig("every hash share must be positive and finite")
        if abs(math.fsum(shares) - 1.0) > 1e-9:
            raise InvalidConfig("hash shares must sum to 1")
        if not 0 < self.total_hashrate < math.inf:
            raise InvalidConfig("total_hashrate must be positive and finite")
        if not 0 <= self.propagation_delay < math.inf:
            raise InvalidConfig("propagation_delay must be finite and non-negative")
        if not 0 <= self.tx_rate < math.inf:
            raise InvalidConfig("tx_rate must be finite and non-negative")
        if self.block_gas_limit <= 0 or self.mean_tx_gas <= 0:
            raise InvalidConfig("gas limit and mean transaction gas must be positive")
        if self.mean_tx_gas > self.block_gas_limit:
            raise InvalidConfig("mean_tx_gas cannot exceed the block gas limit")
        if not 0 < self.sim_duration < math.inf:
            raise InvalidConfig("sim_duration must be positive and finite")
        if self.num_runs < 1:
            raise InvalidConfig("num_runs must be >= 1")
        if self.warmup_blocks < 0:
            raise InvalidConfig("warmup_blocks must be non-negative")
        if self.initial_difficulty is not None and self.initial_difficulty < MIN_DIFFICULTY:
            raise InvalidConfig(f"initial_difficulty must be >= {MIN_DIFFICULTY}")
        if self.link_delays is not None:
            for (src, dst), delay in self.link_delays.items():
                distinct = src != dst and {src, dst} <= set(range(self.num_nodes))
                if not (distinct and 0 <= delay < math.inf):
                    raise InvalidConfig(f"link delay {(src, dst)} = {delay}: need two distinct "
                                        f"nodes below {self.num_nodes} and a finite delay >= 0")
            # Blocks are not relayed, so a block reaches a node no later than
            # one that references it only if no two-hop path is faster.
            d = self.delay
            for i, j, k in itertools.permutations(range(self.num_nodes), 3):
                if d(i, k) > d(i, j) + d(j, k):
                    raise InvalidConfig(
                        f"link_delays break the triangle inequality: delay({i},{k}) > "
                        f"delay({i},{j}) + delay({j},{k})"
                    )

    def difficulty_params(self) -> DifficultyParams:
        return DifficultyParams(lambda_=int(self.lambda_))

    def delay(self, src: int, dst: int) -> float:
        if self.link_delays is not None:
            return self.link_delays.get((src, dst), self.propagation_delay)
        return self.propagation_delay


def _zeta_drift(m: float, lam: int, delay: float, shares: Sequence[float]) -> float:
    """Expected per-block difficulty step (in units of one step) at mean
    interval ``m``: positive means difficulty rises, negative it falls."""
    if len(shares) > 1:
        stale = sum(s * (1.0 - math.exp(-delay * (1.0 - s) / m)) for s in shares)
    else:
        stale = 0.0
    expected_floor = 0.0
    for k in itertools.count(1):
        threshold = k * lam
        p = 1.0 if threshold <= 1 else math.exp(-(threshold - 0.5) / m)
        expected_floor += p
        if p < 1e-12 or k > 500:
            break
    return (1.0 + stale) - expected_floor


def estimate_equilibrium_interval(
    lam: int, delay: float, shares: Sequence[float]
) -> float:
    """Mean block interval at which the difficulty update has zero drift.

    Models the interval as exponential, rounded to integer seconds with a
    one-second minimum, and credits the uncle term with the expected stale
    fraction. Intervals cannot regulate below one second (the timestamp rule
    forces intervals >= 1), so the estimate is clamped there.
    """
    lo, hi = 1.0, 4.0 * lam + 2.0
    if _zeta_drift(lo, lam, delay, shares) <= 0.0:
        return lo
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _zeta_drift(mid, lam, delay, shares) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def default_initial_difficulty(config: SimConfig) -> int:
    m = estimate_equilibrium_interval(
        int(config.lambda_), config.propagation_delay, config.shares()
    )
    return max(MIN_DIFFICULTY, round(config.total_hashrate * m))


def _sample_arrival_times(rate: float, duration: float, rng: np.random.Generator) -> np.ndarray:
    if rate <= 0:
        return np.empty(0, dtype=np.float64)
    chunks = []
    t = 0.0
    est = max(64, int(rate * duration * 0.25) + 64)
    while True:
        gaps = rng.exponential(1.0 / rate, size=est)
        # A tiny rate draws gaps near the float maximum; their sum may
        # overflow to inf, which lies past the end as it should.
        with np.errstate(over="ignore"):
            chunk = t + np.cumsum(gaps)
        if chunk[-1] >= duration:
            chunks.append(chunk[chunk < duration])
            break
        chunks.append(chunk)
        t = float(chunk[-1])
    return np.concatenate(chunks)


class TxTable:
    """Arrival-ordered transaction store working on integer ids: arrival
    time, origin node and gas per id. Generated transactions exist only as
    these arrays. Injected transactions (the metering pipeline) are
    re-numbered into arrival order and kept as objects in ``injected``,
    with their payloads.
    """

    def __init__(
        self,
        times: np.ndarray,
        origins: np.ndarray,
        gas: np.ndarray,
        injected: dict[int, Transaction],
    ):
        self.times = times
        self.origins = origins
        self.gas = gas
        self.injected = injected
        self.count = len(times)


def build_tx_table(
    config: SimConfig,
    rng: np.random.Generator,
    injected: Sequence[tuple[float, int, Transaction]] = (),
) -> TxTable:
    """Draw the Poisson arrival stream and merge any injected transactions.

    Injected entries are (time, origin_node, transaction); transactions are
    re-numbered by final arrival order so tx ids equal arrival indices.
    """
    stat_times = _sample_arrival_times(config.tx_rate, config.sim_duration, rng)
    n_stat = len(stat_times)
    stat_origins = (
        rng.integers(0, config.num_nodes, size=n_stat)
        if n_stat
        else np.empty(0, dtype=np.int64)
    )
    if config.tx_gas_sampler is not None and n_stat:
        stat_gas = np.asarray(config.tx_gas_sampler(rng, n_stat), dtype=np.int64)
        if len(stat_gas) != n_stat or (stat_gas <= 0).any():
            raise InvalidConfig("tx_gas_sampler must return positive gas per transaction")
        if (stat_gas > config.block_gas_limit).any():
            # fill stops at the first misfit, so it would block the pool for good
            raise InvalidConfig("tx_gas_sampler drew gas above the block gas limit")
    else:
        stat_gas = np.full(n_stat, config.mean_tx_gas, dtype=np.int64)

    if injected:
        inj = sorted(injected, key=lambda item: item[0])
        inj_times = np.array([item[0] for item in inj], dtype=np.float64)
        inj_origins = np.array([item[1] for item in inj], dtype=np.int64)
        inj_gas = np.array([item[2].gas for item in inj], dtype=np.int64)
        times = np.concatenate([stat_times, inj_times])
        origins = np.concatenate([stat_origins, inj_origins])
        gas = np.concatenate([stat_gas, inj_gas])
        order = np.argsort(times, kind="stable")
        times, origins, gas = times[order], origins[order], gas[order]
        # Inverse permutation: old index -> arrival index.
        position = np.empty_like(order)
        position[order] = np.arange(len(order))
        injected_map = {
            new: replace(item[2], tx_id=new)
            for new, item in zip(position[n_stat:].tolist(), inj)
        }
    else:
        times, origins, gas = stat_times, stat_origins, stat_gas
        injected_map = {}
    return TxTable(times=times, origins=origins, gas=gas, injected=injected_map)


class EventKind(Enum):
    BLOCK_MINED = "mined"
    BLOCK_RECEIVED = "received"


# Ids examined per vectorised step of ``NodeState.fill``.
FILL_CHUNK = 1024
# Standard exponentials drawn at a time for solve times.
SOLVE_TIME_BATCH = 1024
# Child difficulties kept per run, keyed by (parent id, timestamp); the
# cache is emptied when full.
DIFFICULTY_CACHE = 64


class NodeState:
    """One full node: local tree, fork-choice head, pending pool.

    ``head_block`` is the first-received (or mined) block of maximal total
    difficulty in the tree: a block replaces it only when strictly heavier.

    The pool works on transaction ids, which are arrival indices into the
    shared ``TxTable``, and keeps no per-transaction objects:

    * ``in_chain`` holds one flag per id, set while the id is on the node's
      canonical chain. Mining a block and reorganising flip a block's ids
      with one array assignment.
    * Delivery is two cut-offs on the sorted arrival times, moved forward by
      ``catch_up``: every id below ``cut_all`` arrived at least one
      propagation delay ago and has reached every node; the node's own ids
      in ``[cut_all, cut_own)`` arrived by now and are delivered too.
    * ``fill`` takes the delivered ids that are not in the chain, in id
      (arrival) order, and stops at the first one that does not fit.

    So the pool is delivered minus on-chain by construction: when a reorg
    abandons a block, its ids return to every node that had them delivered.
    ``low`` is a low-water mark: every id below it is in the chain.
    """

    __slots__ = (
        "index",
        "table",
        "tree",
        "head_block",
        "orphans",
        "epoch",
        "in_chain",
        "cut_all",
        "cut_own",
        "low",
    )

    def __init__(self, index: int, genesis: Block, table: TxTable):
        self.index = index
        self.table = table
        self.tree = BlockTree(genesis)
        self.head_block = genesis
        self.orphans: dict[str, list[Block]] = {}
        self.epoch = 0
        self.in_chain = np.zeros(table.count, dtype=np.bool_)
        self.cut_all = 0
        self.cut_own = 0
        self.low = 0

    def catch_up(self, now: float, delay: float) -> None:
        """Deliver arrivals due by ``now``: own immediately, foreign delayed."""
        times = self.table.times
        self.cut_all = max(self.cut_all, int(times.searchsorted(now - delay, "right")))
        self.cut_own = max(self.cut_own, int(times.searchsorted(now, "right")))

    def set_in_chain(self, tx_ids: np.ndarray | Sequence[int], flag: bool) -> None:
        """Flag ``tx_ids`` as on (true) or off (false) the node's canonical
        chain."""
        self.in_chain[tx_ids] = flag
        if not flag and len(tx_ids):
            self.low = min(self.low, int(np.min(tx_ids)))

    def fill(self, gas: np.ndarray, gas_limit: int) -> tuple[np.ndarray, int]:
        """Available ids in arrival order, as one ``intp`` array, up to the
        first that would push the gas sum past ``gas_limit``; the pool
        itself is not changed."""
        flags, cut_all, end = self.in_chain, self.cut_all, self.cut_own
        taken: list[np.ndarray] = []
        total = 0
        start = self.low
        while start < end:
            stop = min(start + FILL_CHUNK, end)
            free = ~flags[start:stop]
            if stop > cut_all:  # from cut_all on, only own ids are delivered
                k0 = max(cut_all - start, 0)
                free[k0:] &= self.table.origins[start + k0 : stop] == self.index
            ids = free.nonzero()[0] + start
            if start == self.low:
                # Ids before the first free one are in the chain. Stop at
                # cut_all: foreign ids past it are not delivered yet.
                self.low = min(int(ids[0]) if len(ids) else stop, cut_all)
            cum = gas[ids].cumsum()
            k = int(cum.searchsorted(gas_limit - total, "right"))
            if k:
                # A copy, so that the block does not keep the chunk alive.
                taken.append(ids if k == len(ids) else ids[:k].copy())
                total += int(cum[k - 1])
            if k < len(ids):
                break
            start = stop
        if len(taken) == 1:
            return taken[0], total
        return np.concatenate(taken) if taken else np.empty(0, dtype=np.intp), total

    def delivered(self) -> np.ndarray:
        """Boolean mask over ids: delivered to this node."""
        mask = np.zeros(self.table.count, dtype=np.bool_)
        mask[: self.cut_all] = True
        lo, hi = self.cut_all, self.cut_own
        mask[lo:hi] = self.table.origins[lo:hi] == self.index
        return mask

    def pending_ids(self) -> set[int]:
        """Delivered, not on the canonical chain: the node's pool."""
        return set(np.flatnonzero(self.delivered() & ~self.in_chain).tolist())


@dataclass
class RunResult:
    trees: list[BlockTree]
    heads: list[str]
    stats: RunStats
    table: TxTable

    @property
    def tree(self) -> BlockTree:
        return self.trees[0]

    @property
    def head(self) -> str:
        return self.heads[0]

    def canonical_blocks(self) -> list[Block]:
        return self.trees[0].canonical_chain(self.heads[0])


class Simulation:
    """One deterministic run of the network."""

    def __init__(
        self,
        config: SimConfig,
        run_index: int,
        injected: Sequence[tuple[float, int, Transaction]] = (),
        trace: TextIO | None = None,
    ):
        config.validate()
        self.config = config
        self.run_index = run_index
        self.params = config.difficulty_params()
        self.rng = np.random.default_rng([config.seed & (2**64 - 1), run_index & (2**64 - 1)])
        self.table = build_tx_table(config, self.rng, injected)
        difficulty0 = (
            config.initial_difficulty
            if config.initial_difficulty is not None
            else default_initial_difficulty(config)
        )
        self.genesis = make_genesis(difficulty0)
        self.nodes = [NodeState(i, self.genesis, self.table) for i in range(config.num_nodes)]
        self.hashrates = [config.total_hashrate * share for share in config.shares()]
        # Per sender: (delay, receiver) for every other node, in index order.
        self.links = [
            [(config.delay(src, dst), dst) for dst in range(config.num_nodes) if dst != src]
            for src in range(config.num_nodes)
        ]
        # Block id -> the block's transaction ids as an index array.
        self.tx_arrays: dict[str, np.ndarray] = {}
        # Injected ids in ascending order, for the range lookup per block.
        self.injected_ids = sorted(self.table.injected)
        # (parent id, timestamp) -> child difficulty; see ``_difficulty``.
        self.difficulties: dict[tuple[str, int], int] = {}
        # Unused standard exponentials for ``_solve_time``, last one next.
        self.exponentials: list[float] = []
        # Ids of the blocks whose header passed ``validate_header``.
        self.validated: set[str] = set()
        # (time, sequence, kind, target, block, epoch); the sequence is
        # unique, so the heap orders by (time, sequence) and compares nothing
        # else. A mining event targets a node index, a delivery a tuple of
        # receivers in index order.
        self.events: list[tuple] = []
        self._sequence = itertools.count()
        self.trace = trace
        if trace is not None:
            trace.write(TRACE_HEADER + "\n")

    def _push(self, time: float, kind: EventKind, target: int | tuple[int, ...],
              block: Block | None = None, epoch: int = 0) -> None:
        heapq.heappush(self.events, (time, next(self._sequence), kind, target, block, epoch))

    def _trace(self, time: float, kind: str, node: int, block: Block) -> None:
        """Write one trace row; callers check that a trace is open."""
        h = block.header
        self.trace.write(
            f"{time:.6f},{kind},{node},{h.block_id},{h.number},{h.difficulty},"
            f"{h.timestamp},{len(block.tx_ids)},{len(h.uncle_ids)}\n"
        )

    def _difficulty(self, parent: BlockHeader, timestamp: int) -> int:
        """Difficulty of a child of ``parent`` at ``timestamp``, evaluated
        once for the miner's draw, the receivers' draws in the same event and
        the mined block."""
        key = (parent.block_id, timestamp)
        cache = self.difficulties
        difficulty = cache.get(key)
        if difficulty is None:
            if len(cache) >= DIFFICULTY_CACHE:
                cache.clear()
            difficulty = cache[key] = compute_difficulty(
                self.params, parent, parent.number + 1, timestamp).result
        return difficulty

    def _solve_time(self, scale: float) -> float:
        """Exponential draw with mean ``scale``: bit for bit what
        ``rng.exponential(scale)`` returns, from a buffered stream.

        Memorylessness makes re-sampling on a head change statistically
        equivalent to continuing the old draw. Nothing else draws from the
        generator after ``build_tx_table``, so drawing ahead changes nothing.
        """
        buffer = self.exponentials
        if not buffer:
            buffer.extend(reversed(self.rng.standard_exponential(SOLVE_TIME_BATCH).tolist()))
        return scale * buffer.pop()

    def _schedule_mining(self, node: NodeState, now: float) -> None:
        """Draw the node's next solve time on its current head. From the end
        of the run on, it does nothing: no draw, no new epoch, no event."""
        if now >= self.config.sim_duration:
            return
        node.epoch += 1
        head = node.head_block.header
        difficulty = self._difficulty(head, max(head.timestamp + 1, int(now)))
        dt = self._solve_time(difficulty / self.hashrates[node.index])
        self._push(now + dt, EventKind.BLOCK_MINED, node.index, epoch=node.epoch)

    def _injected_in(self, tx_ids: tuple[int, ...]) -> tuple[Transaction, ...]:
        """The injected transactions among ``tx_ids`` (ascending), in order:
        only the injected ids within the block's id range are looked up."""
        order = self.injected_ids
        if not order or not tx_ids:
            return ()
        inj = self.table.injected
        found = []
        k = 0
        lo = bisect_left(order, tx_ids[0])
        for i in order[lo:bisect_right(order, tx_ids[-1], lo)]:
            k = bisect_left(tx_ids, i, k)
            if tx_ids[k] == i:
                found.append(inj[i])
        return tuple(found)

    def on_block_mined(self, node_index: int, now: float) -> Block:
        """Assemble and adopt a block on the node's current head, then
        broadcast it and restart mining on the new head."""
        node = self.nodes[node_index]
        parent = node.head_block.header
        timestamp = max(parent.timestamp + 1, int(now))
        difficulty = self._difficulty(parent, timestamp)
        uncles = eligible_uncles(node.tree, parent.block_id)
        node.catch_up(now, self.config.propagation_delay)
        id_array, gas_used = node.fill(self.table.gas, self.config.block_gas_limit)
        tx_ids = tuple(id_array.tolist())
        block = assemble_block(parent.number + 1, parent.block_id, node.index, difficulty,
                               timestamp, uncles, tx_ids, gas_used, self._injected_in(tx_ids))
        self.tx_arrays[block.block_id] = id_array
        node.tree.insert_block(block)
        node.head_block = block
        node.set_in_chain(id_array, True)
        if self.trace is not None:
            self._trace(now, "mined", node.index, block)
        self._broadcast(block, node.index, now)
        self._schedule_mining(node, now)
        return block

    def _broadcast(self, block: Block, sender: int, now: float) -> None:
        """One delivery event per arrival time, carrying its receivers in
        index order.

        Per-receiver events would take consecutive sequence numbers, so no
        other event could fall between two of them with the same time: one
        event that delivers to each receiver in turn is the same order.
        """
        arrivals: dict[float, list[int]] = {}
        for delay, dst in self.links[sender]:
            arrivals.setdefault(now + delay, []).append(dst)
        for time, receivers in arrivals.items():
            self._push(time, EventKind.BLOCK_RECEIVED, tuple(receivers), block)

    def on_block_received(self, node_index: int, block: Block, now: float) -> None:
        """Insert a delivered block (buffering on unknown parents), then
        re-run fork choice and reorganise if the head changed."""
        node = self.nodes[node_index]
        tree, validated = node.tree, self.validated
        blocks, td = tree.blocks, tree.total_difficulty
        queue = [block]
        while queue:
            b = queue.pop(0)
            header = b.header
            bid = header.block_id
            if bid in blocks:
                continue
            if header.parent_id not in blocks:
                node.orphans.setdefault(header.parent_id, []).append(b)
                continue
            if bid in validated:
                # Block ids are content digests, so the parent and the
                # lineage are the same at every node; only whether the tree
                # holds each uncle can differ.
                valid = all(uid in blocks for uid in header.uncle_ids)
            else:
                valid = validate_header(self.params, tree, header)
                validated.add(bid)
            if not valid:
                # Simulator nodes are honest; a failure here is a bug.
                raise AssertionError(f"invalid header broadcast: {bid}")
            tree.insert_block(b)
            if self.trace is not None:
                self._trace(now, "received", node.index, b)
            # Only a strictly heavier block moves the head: the first received wins a tie.
            if td[bid] > td[node.head_block.header.block_id]:
                self._reorg(node, b, now)
            queue.extend(node.orphans.pop(bid, ()))

    def _reorg(self, node: NodeState, new_head: Block, now: float) -> None:
        """Move the node's canonical state from the old head to ``new_head``:
        abandoned blocks return their transactions to the pool, adopted
        blocks claim theirs, and mining restarts on the new head."""
        blocks = node.tree.blocks
        old = node.head_block.header
        new = new_head.header
        removed: list[str] = []
        added: list[str] = []
        while old.number > new.number:
            removed.append(old.block_id)
            old = blocks[old.parent_id].header
        while new.number > old.number:
            added.append(new.block_id)
            new = blocks[new.parent_id].header
        while old.block_id != new.block_id:
            removed.append(old.block_id)
            old = blocks[old.parent_id].header
            added.append(new.block_id)
            new = blocks[new.parent_id].header
        tx_arrays = self.tx_arrays
        for bid in removed:
            node.set_in_chain(tx_arrays[bid], False)
        for bid in added:
            node.set_in_chain(tx_arrays[bid], True)
        node.head_block = new_head
        self._schedule_mining(node, now)

    def _settle(self) -> None:
        """Resolve end-of-run ties identically at every node.

        During the run each node breaks total-difficulty ties by first
        receipt (what a live client does). A tie still standing after the
        final deliveries would leave nodes split forever, so the measurement
        head is chosen with the tree-only rule (smaller block id), which is
        identical everywhere once the trees agree.
        """
        for node in self.nodes:
            node.catch_up(math.inf, self.config.propagation_delay)
            best = fork_choice_head(node.tree)
            if best != node.head_block.block_id:
                self._reorg(node, node.tree.blocks[best], self.config.sim_duration)

    def run(self) -> RunResult:
        duration = self.config.sim_duration
        for node in self.nodes:
            self._schedule_mining(node, 0.0)
        events = self.events
        while events:
            time, _, kind, target, block, epoch = heapq.heappop(events)
            if kind is EventKind.BLOCK_MINED:
                if epoch != self.nodes[target].epoch or time > duration:
                    continue
                self.on_block_mined(target, time)
            else:
                for index in target:
                    self.on_block_received(index, block, time)
        self._settle()

        node0 = self.nodes[0]
        tree0, head0 = node0.tree, node0.head_block.block_id
        chain = tree0.canonical_chain(head0)
        chain_tx = sum(len(b.tx_ids) for b in chain)
        confirmed_total = int(np.count_nonzero(node0.in_chain))
        if chain_tx != confirmed_total:
            raise AssertionError("a transaction appears twice on the canonical chain")
        generated = self.table.count
        # ``_settle`` delivered every transaction to node 0, so none is left
        # only on a stale block: the uncle-only term is zero.
        stats = compute_run_stats(
            tree0,
            head0,
            duration,
            warmup=min(self.config.warmup_blocks, max(0, len(chain) - 2)),
            pending_tx=generated - confirmed_total,
            generated_tx=generated,
            confirmed_tx_total=confirmed_total,
        )
        return RunResult(
            trees=[n.tree for n in self.nodes],
            heads=[n.head_block.block_id for n in self.nodes],
            stats=stats,
            table=self.table,
        )


def run_simulation(
    config: SimConfig,
    run_index: int,
    injected: Sequence[tuple[float, int, Transaction]] = (),
    trace: TextIO | None = None,
) -> RunResult:
    """Run one deterministic simulation; identical (config, run_index) give
    bit-identical results."""
    return Simulation(config, run_index, injected, trace).run()


def _stats_worker(args: tuple[SimConfig, int]) -> RunStats:
    config, run_index = args
    return run_simulation(config, run_index).stats


def run_many(config: SimConfig, workers: int = 1) -> list[RunStats]:
    """Execute ``config.num_runs`` independent runs, in run-index order.

    Runs are embarrassingly parallel (each owns its generator seeded by
    (seed, run_index)); results are merged in index order so the worker
    count never changes the output.
    """
    config.validate()
    jobs = [(config, i) for i in range(config.num_runs)]
    if workers <= 1:
        return [_stats_worker(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(jobs) // (workers * 4))
        return list(pool.map(_stats_worker, jobs, chunksize=chunk))
