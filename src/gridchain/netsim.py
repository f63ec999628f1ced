"""Discrete-event network simulator: arrivals, statistical mining, broadcast.

One run drives ``num_nodes`` full nodes over a full mesh with a fixed
propagation delay. Mining is statistical: each node's solve time for its
current candidate is exponential with mean ``difficulty / node_hashrate``;
no hashes are ever computed. Blocks are assembled greedily from the node's
pending pool up to the gas limit, carry up to two uncles, and are delivered
to every peer after the propagation delay. Block ids digest their
contents, so a run keeps one block tree: each header is checked once, when
its block is mined, and a node differs from another only in the ids it
holds, its head and its pool.

Determinism: a run is a pure function of (config, run_index). Events are
processed in (time, sequence) order: deliveries from a heap, mining draws
from one timer per node (a redraw replaces the node's timer), both numbered
by one counter. Every random draw comes from one generator seeded with
(seed, run_index), and transaction arrivals are precomputed into arrays (a
transaction only becomes visible to the chain when a node mines, so batch
delivery is observationally equivalent to one event per arrival).

Timestamps are integer seconds with the strict-monotonicity fix
``max(parent + 1, floor(now))``; the difficulty rule's interval term needs
integer intervals and production clients behave the same way.
"""

from __future__ import annotations

import heapq
import itertools
import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .chain import (
    Block,
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


# SimConfig fields that hold whole numbers. An integral float is taken as
# its int when the config is built; any other non-integer value (a NaN, an
# infinity, a fraction) is an invalid config.
INTEGER_FIELDS = ("lambda_", "num_nodes", "block_gas_limit", "mean_tx_gas", "num_runs",
                  "seed", "warmup_blocks", "initial_difficulty")


@dataclass
class SimConfig:
    """Experiment input. Defaults follow the measured small-network setup:
    3 miners with equal shares, 0.25 s propagation, 100 tx/s arrivals,
    15M gas blocks and 45k gas transactions. Every transaction, generated or
    injected, carries ``mean_tx_gas``: a block holds at most
    ``block_gas_limit // mean_tx_gas`` of them.

    ``propagation_delay`` is the one delay between any two nodes: blocks,
    transactions and the equilibrium estimate all use it.

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

    def __post_init__(self) -> None:
        if self.hash_shares is not None:
            self.hash_shares = tuple(float(s) for s in self.hash_shares)
        for name in INTEGER_FIELDS:
            value = getattr(self, name)
            if isinstance(value, float) and value.is_integer():
                setattr(self, name, int(value))

    def shares(self) -> tuple[float, ...]:
        if self.hash_shares is None:
            return tuple(1.0 / self.num_nodes for _ in range(self.num_nodes))
        return self.hash_shares

    def validate(self) -> None:
        for name in INTEGER_FIELDS:
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral)
                    or (value is None and name == "initial_difficulty")):
                raise InvalidConfig(f"{name} must be an integer, got {value!r}")
        if self.num_nodes < 1:
            raise InvalidConfig("num_nodes must be >= 1")
        if self.lambda_ < 1:
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

    def difficulty_params(self) -> DifficultyParams:
        return DifficultyParams(lambda_=int(self.lambda_))


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
            chunk = np.cumsum(gaps, out=gaps)
            chunk += t
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

    Every id carries ``mean_tx_gas``, so ``gas`` is a read-only zero-stride
    view of that one value.
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
    re-numbered by final arrival order so tx ids equal arrival indices. An
    injected transaction arrives after every generated one at its time, and
    injected ones at one time keep their order in ``injected``. Its origin
    must be a node and its time finite and non-negative; a time at or after
    the end leaves it pending. Its gas must be ``mean_tx_gas``.
    """
    stat_times = _sample_arrival_times(config.tx_rate, config.sim_duration, rng)
    n_stat = len(stat_times)
    stat_origins = (
        rng.integers(0, config.num_nodes, size=n_stat)
        if n_stat
        else np.empty(0, dtype=np.int64)
    )
    if injected:
        nodes = range(config.num_nodes)
        for time, origin, tx in injected:
            if origin not in nodes:
                raise InvalidConfig(f"injected transaction {tx.tx_id}: origin {origin!r} "
                                    f"is not a node below {config.num_nodes}")
            if not 0 <= time < math.inf:
                raise InvalidConfig(f"injected transaction {tx.tx_id}: time {time!r} "
                                    f"must be finite and >= 0")
            if tx.gas != config.mean_tx_gas:
                raise InvalidConfig(f"injected transaction {tx.tx_id}: gas {tx.gas!r} "
                                    f"is not mean_tx_gas {config.mean_tx_gas}")
        inj = sorted(injected, key=lambda item: item[0])
        # One pass: injected transaction j comes after the at[j] generated
        # arrivals at or before its time and the j injected ones before it.
        inj_times = np.array([item[0] for item in inj], dtype=np.float64)
        at = stat_times.searchsorted(inj_times, "right")
        times = np.insert(stat_times, at, inj_times)
        origins = np.insert(stat_origins, at, [item[1] for item in inj])
        injected_map = {
            new: Transaction(new, tx.sender, tx.gas, tx.payload)
            for new, (_, _, tx) in zip((at + np.arange(len(inj))).tolist(), inj)
        }
    else:
        times, origins = stat_times, stat_origins
        injected_map = {}
    # One stored value, read-only: nothing writes a table's gas column.
    gas = np.broadcast_to(np.int64(config.mean_tx_gas), times.shape)
    return TxTable(times=times, origins=origins, gas=gas, injected=injected_map)


# Ids examined per vectorised step of ``NodeState.fill``.
FILL_CHUNK = 1024
# Standard exponentials drawn at a time for solve times.
SOLVE_TIME_BATCH = 1024
# A node's mining timer when it holds no live draw: later than any event.
IDLE = (math.inf, -1, -1)


class NodeState:
    """One full node: the ids it holds of the run's block tree, fork-choice
    head, pending pool.

    ``tree`` is the run's one shared block store; ``known`` holds the ids of
    the blocks this node has mined or received. ``head_block`` is the
    first-received (or mined) block of maximal total difficulty among them:
    a block replaces it only when strictly heavier, and only
    ``Simulation._reorg`` moves it.

    The pool works on transaction ids, which are arrival indices into the
    shared ``TxTable``, and keeps no per-transaction objects:

    * ``in_chain`` holds one flag per id, set while the id is on the node's
      canonical chain. Mining a block and reorganising flip the block's own
      ``tx_ids`` with one array assignment: by slice for a ``range``, through
      one index array for a tuple.
    * ``delivered`` holds one flag per id, set once the id has reached the
      node, at one byte per arrival: the node's own ids are set from the
      start, and ``catch_up`` sets every id below ``cut_all`` (arrived at
      least one propagation delay ago, so at every node) with one slice
      assignment as that cut-off moves forward. ``cut_own`` bounds the own
      ids that have arrived by now; ids from it on are not read.
    * ``fill`` takes the ids below ``cut_own`` that are delivered and not in
      the chain, in id (arrival) order, as many as fit: every id carries
      the same gas, so the block is filled by count.

    So the pool is delivered minus on-chain by construction: when a reorg
    abandons a block, its ids return to every node that had them delivered.
    ``low`` is a low-water mark: every id below it is in the chain.
    """

    __slots__ = (
        "index",
        "table",
        "tree",
        "known",
        "head_block",
        "epoch",
        "in_chain",
        "delivered",
        "cut_all",
        "cut_own",
        "low",
    )

    def __init__(self, index: int, tree: BlockTree, table: TxTable):
        self.index = index
        self.table = table
        self.tree = tree
        self.known = {tree.genesis_id}
        self.head_block = tree.blocks[tree.genesis_id]
        self.epoch = 0
        self.in_chain = np.zeros(table.count, dtype=np.bool_)
        self.delivered = table.origins == index
        self.cut_all = 0
        self.cut_own = 0
        self.low = 0

    def catch_up(self, now: float, delay: float) -> None:
        """Deliver arrivals due by ``now``: own immediately, foreign delayed."""
        times = self.table.times
        cut_all = int(times.searchsorted(now - delay, "right"))
        if cut_all > self.cut_all:
            self.delivered[self.cut_all:cut_all] = True
            self.cut_all = cut_all
        self.cut_own = max(self.cut_own, int(times.searchsorted(now, "right")))

    def set_in_chain(self, tx_ids: range | tuple[int, ...], flag: bool) -> None:
        """Flag a block's ``tx_ids`` (ascending) as on (true) or off (false)
        the node's canonical chain: a ``range`` of step 1 by slice, a tuple
        through one index array."""
        if type(tx_ids) is range:
            self.in_chain[tx_ids.start:tx_ids.stop] = flag
        else:
            self.in_chain[np.fromiter(tx_ids, np.intp, len(tx_ids))] = flag
        if not flag and tx_ids:
            self.low = min(self.low, tx_ids[0])

    def fill(self, unit: int, gas_limit: int) -> tuple[np.ndarray, int]:
        """Available ids in arrival order, as one ``intp`` array, as many
        of them as ``gas_limit`` holds at ``unit`` gas each, and their gas;
        the pool itself is not changed."""
        delivered, in_chain = self.delivered, self.in_chain
        cut_all, end = self.cut_all, self.cut_own
        room = gas_limit // unit
        taken: list[np.ndarray] = []
        start = self.low
        while start < end:
            stop = min(start + FILL_CHUNK, end)
            ids = (delivered[start:stop] > in_chain[start:stop]).nonzero()[0] + start
            if start == self.low:
                # Ids before the first free one are in the chain. Stop at
                # cut_all: foreign ids past it are not delivered yet.
                self.low = min(int(ids[0]) if len(ids) else stop, cut_all)
            k = min(len(ids), room)
            if k:
                # A copy, so that the block does not keep the chunk alive.
                taken.append(ids if k == len(ids) else ids[:k].copy())
                room -= k
            if k < len(ids):
                break
            start = stop
        if len(taken) == 1:
            ids = taken[0]
        else:
            ids = np.concatenate(taken) if taken else np.empty(0, dtype=np.intp)
        return ids, len(ids) * unit


@dataclass
class RunResult:
    """``trees`` has one entry per node, each the run's one shared block
    store; ``tree`` is that store too."""

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
        self.tree = BlockTree(self.genesis)
        self.nodes = [NodeState(i, self.tree, self.table) for i in range(config.num_nodes)]
        self.hashrates = [config.total_hashrate * share for share in config.shares()]
        # Per sender: every other node, in index order.
        self.peers = [tuple(j for j in range(config.num_nodes) if j != i)
                      for i in range(config.num_nodes)]
        # Injected ids in ascending order, for the range lookup per block.
        self.injected_ids = sorted(self.table.injected)
        # Unused standard exponentials for ``_solve_time``, last one next.
        self.exponentials: list[float] = []
        # Deliveries as (time, sequence, receivers, block), receivers in
        # index order; the sequence is unique, so the heap orders by
        # (time, sequence) and compares nothing else.
        self.events: list[tuple] = []
        # Per node: its one live mining draw as (time, sequence, node), or
        # IDLE. Sequences come from the same counter as the events'.
        self.timers: list[tuple] = [IDLE] * config.num_nodes
        self._sequence = itertools.count()
        self.trace = trace
        if trace is not None:
            trace.write(TRACE_HEADER + "\n")

    def _push(self, time: float, receivers: tuple[int, ...], block: Block) -> None:
        """Queue the delivery of ``block`` to ``receivers`` at ``time``."""
        heapq.heappush(self.events, (time, next(self._sequence), receivers, block))

    def _trace(self, time: float, kind: str, node: int, block: Block) -> None:
        """Write one trace row; callers check that a trace is open."""
        h = block.header
        self.trace.write(
            f"{time:.6f},{kind},{node},{h.block_id},{h.number},{h.difficulty},"
            f"{h.timestamp},{len(block.tx_ids)},{len(h.uncle_ids)}\n"
        )

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
        """Draw the node's next solve time on its current head and set its
        timer to it, replacing any earlier draw; ``node.epoch`` counts the
        draws. A draw that lands after the end leaves the timer idle. From
        the end of the run on, it does nothing: no draw, no new epoch, the
        timer as it was."""
        duration = self.config.sim_duration
        if now >= duration:
            return
        node.epoch += 1
        head = node.head_block.header
        difficulty = compute_difficulty(self.params, head, head.number + 1,
                                        max(head.timestamp + 1, int(now)))
        time = now + self._solve_time(difficulty / self.hashrates[node.index])
        self.timers[node.index] = (
            (time, next(self._sequence), node.index) if time <= duration else IDLE)

    def _injected_in(self, tx_ids: Sequence[int]) -> tuple[Transaction, ...]:
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
        """Assemble a block on the node's head, check its header once for
        the run, adopt it through ``_reorg`` and broadcast it."""
        node = self.nodes[node_index]
        tree = self.tree
        parent = node.head_block.header
        timestamp = max(parent.timestamp + 1, int(now))
        difficulty = compute_difficulty(self.params, parent, parent.number + 1, timestamp)
        uncles = eligible_uncles(tree, parent.block_id, node.known)
        node.catch_up(now, self.config.propagation_delay)
        id_array, gas_used = node.fill(self.config.mean_tx_gas, self.config.block_gas_limit)
        # ``fill`` gives ascending unique ids, so they form one range exactly
        # when their span equals their count; the block keeps the range, the
        # one store of its ids, which ``_reorg`` flips by slice.
        n = len(id_array)
        if n and int(id_array[-1]) - int(id_array[0]) + 1 == n:
            tx_ids = range(int(id_array[0]), int(id_array[-1]) + 1)
        else:
            tx_ids = tuple(id_array.tolist())
        block = assemble_block(parent.number + 1, parent.block_id, node.index, difficulty,
                               timestamp, uncles, tx_ids, gas_used, self._injected_in(tx_ids))
        if not validate_header(self.params, tree, block.header):
            # Simulator nodes are honest; a failure here is a bug.
            raise AssertionError(f"invalid header mined: {block.block_id}")
        tree.insert_block(block)
        node.known.add(block.block_id)
        self._reorg(node, block, now)
        if self.trace is not None:
            self._trace(now, "mined", node.index, block)
        self._broadcast(block, node.index, now)
        return block

    def _broadcast(self, block: Block, sender: int, now: float) -> None:
        """One delivery event at ``now + propagation_delay``, carrying every
        other node in index order; a one-node run pushes nothing.

        Per-receiver events would take consecutive sequence numbers and one
        time, so no other event could fall between two of them: one event
        that delivers to each receiver in turn is the same order.
        """
        peers = self.peers[sender]
        if peers:
            self._push(now + self.config.propagation_delay, peers, block)

    def on_block_received(self, node_index: int, block: Block, now: float) -> None:
        """Take a delivered block, then reorganise if it is strictly heavier
        than the head.

        The header passed ``validate_header`` when it was mined, and block
        ids digest their contents, so the node checks only that it holds the
        parent and the uncles. A run delivers both first: every block
        reaches every other node one ``propagation_delay`` after it is
        mined, and equal-time events pop in push order. A direct call may
        deliver a block early: its missing ancestors are received first,
        oldest first, one in-order delivery each."""
        node = self.nodes[node_index]
        known, td = node.known, self.tree.total_difficulty
        header = block.header
        bid = header.block_id
        if header.parent_id not in known:
            missing = [self.tree.block(header.parent_id)]
            while missing[-1].header.parent_id not in known:
                missing.append(self.tree.block(missing[-1].header.parent_id))
            for ancestor in reversed(missing):
                self.on_block_received(node_index, ancestor, now)
        if not known.issuperset(header.uncle_ids):
            # Simulator nodes are honest; a failure here is a bug.
            raise AssertionError(f"invalid header broadcast: {bid}")
        known.add(bid)
        if self.trace is not None:
            self._trace(now, "received", node.index, block)
        # Only a strictly heavier block moves the head: the first received wins a tie.
        if td[bid] > td[node.head_block.header.block_id]:
            self._reorg(node, block, now)

    def _reorg(self, node: NodeState, new_head: Block, now: float) -> None:
        """Move the node's head to ``new_head``, a block it mined, received
        or settles on: the one place a head moves. One walk to their common
        ancestor steps the higher tip (the new one on a tie): an abandoned
        block returns its ``tx_ids`` to the pool as the walk leaves it, and
        the adopted blocks claim theirs after the walk, where no clear can
        undo a claim. Mining restarts on the new head."""
        blocks = self.tree.blocks
        old, new = node.head_block.header, new_head.header
        added: list[str] = []
        while old.block_id != new.block_id:
            if old.number > new.number:
                node.set_in_chain(blocks[old.block_id].tx_ids, False)
                old = blocks[old.parent_id].header
            else:
                added.append(new.block_id)
                new = blocks[new.parent_id].header
        for bid in added:
            node.set_in_chain(blocks[bid].tx_ids, True)
        node.head_block = new_head
        self._schedule_mining(node, now)

    def _settle(self) -> None:
        """Resolve end-of-run ties identically at every node.

        During the run each node breaks total-difficulty ties by first
        receipt (what a live client does). A tie still standing after the
        final deliveries would leave nodes split forever, so the measurement
        head is chosen with the tree-only rule (smaller block id), once for
        the run: every node holds every block by now.
        """
        tree = self.tree
        best = fork_choice_head(tree)
        for node in self.nodes:
            if len(node.known) != len(tree):
                raise AssertionError(f"node {node.index} holds {len(node.known)} "
                                     f"of {len(tree)} blocks after the last delivery")
            if best != node.head_block.block_id:
                self._reorg(node, tree.blocks[best], self.config.sim_duration)

    def _process_events(self) -> None:
        """Run deliveries and mining draws in (time, sequence) order until
        the heap is empty and every timer is idle. The earliest timer is
        found by a scan over the nodes, and cleared before its block is
        mined."""
        events, timers = self.events, self.timers
        while True:
            timer = min(timers)
            if events and events[0] < timer:
                time, _, receivers, block = heapq.heappop(events)
                for index in receivers:
                    self.on_block_received(index, block, time)
            elif timer is IDLE:
                return
            else:
                time, _, index = timer
                timers[index] = IDLE
                self.on_block_mined(index, time)

    def run(self) -> RunResult:
        for node in self.nodes:
            self._schedule_mining(node, 0.0)
        self._process_events()
        self._settle()

        node0 = self.nodes[0]
        head0 = node0.head_block.block_id
        stats = compute_run_stats(self.tree, head0, self.config.warmup_blocks, self.table.count)
        if stats.confirmed_tx_total != np.count_nonzero(node0.in_chain):
            raise AssertionError("a transaction appears twice on the canonical chain")
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
    # A fork-started pool starts all its processes at the first submit.
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [_stats_worker(job) for job in jobs]
    # Imported here so that a serial run never loads the process pool.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(jobs) // (workers * 4))
        return list(pool.map(_stats_worker, jobs, chunksize=chunk))
