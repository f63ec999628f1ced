"""Reference versions of the simulator's fast paths, kept as oracles for
differential tests: the object-level transaction stream and block filling
behind the id-level code in ``gridchain.netsim``, the per-candidate uncle
selection behind the lineage-based one in ``gridchain.consensus``, and the
per-receiver block delivery behind the simulator's one event per arrival
time and one header check per block, one ``rng.exponential`` call per solve
time behind the simulator's buffered stream, and the library's own AES-CTR
mode, one cipher per field, behind the meter's one AES call per record,
the tuple ``repr`` block id behind the digest of an id range, one
stable ``argsort`` over generated and injected arrivals behind the linear
merge of injected transactions, and one heap entry per mining draw with a
full chain walk on every reorg behind the simulator's per-node mining
timers and its one-block extension, and a one-line evaluation of the
difficulty rule behind ``gridchain.consensus.compute_difficulty``.
Also the readers and writers that only tests need: a node's delivered set
and pool, and a meter stream file."""

import dataclasses
import hashlib
import heapq
from typing import Iterable, Iterator, Sequence

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from gridchain.chain import Address, Block, BlockHeader, BlockTree, Transaction
from gridchain.consensus import (
    MAX_UNCLE_GENERATIONS,
    MAX_UNCLES_PER_BLOCK,
    compute_difficulty,
    validate_header,
)
from gridchain.meter import MeterRecord, SymmetricKey, field_counter
from gridchain.netsim import NodeState, SimConfig, Simulation, TxTable, build_tx_table


def generate_tx_arrivals(
    config: SimConfig, rng: np.random.Generator
) -> Iterator[tuple[float, Transaction]]:
    """Poisson arrival stream over [0, sim_duration) as (time, transaction).

    Identical seeds yield identical streams; a zero rate yields nothing.
    """
    table = build_tx_table(config, rng)
    for i in range(table.count):
        tx = Transaction(tx_id=i, sender=node_address(int(table.origins[i])),
                         gas=int(table.gas[i]))
        yield float(table.times[i]), tx


def build_tx_table_argsort(
    config: SimConfig,
    rng: np.random.Generator,
    injected: Sequence[tuple[float, int, Transaction]],
) -> TxTable:
    """The generated stream of ``build_tx_table``, with the injected
    transactions merged in by one stable ``argsort`` over all arrival times
    and renumbered through the inverse permutation."""
    table = build_tx_table(config, rng)
    if not injected:
        return table
    n_stat = table.count
    inj = sorted(injected, key=lambda item: item[0])
    inj_times = np.array([item[0] for item in inj], dtype=np.float64)
    inj_origins = np.array([item[1] for item in inj], dtype=np.int64)
    inj_gas = np.array([item[2].gas for item in inj], dtype=np.int64)
    times = np.concatenate([table.times, inj_times])
    origins = np.concatenate([table.origins, inj_origins])
    gas = np.concatenate([table.gas, inj_gas])
    order = np.argsort(times, kind="stable")
    times, origins, gas = times[order], origins[order], gas[order]
    # Inverse permutation: old index -> arrival index.
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    injected_map = {
        new: dataclasses.replace(item[2], tx_id=new)
        for new, item in zip(position[n_stat:].tolist(), inj)
    }
    return TxTable(times=times, origins=origins, gas=gas, injected=injected_map)


def sample_mining_time(rng: np.random.Generator, difficulty: int, node_hashrate: float) -> float:
    """Exponential solve time with mean ``difficulty / node_hashrate``, one
    generator call per draw."""
    if node_hashrate <= 0:
        raise ValueError("node hashrate must be positive")
    return float(rng.exponential(difficulty / node_hashrate))


def difficulty_oracle(lam, parent_d, parent_uncles, number, interval):
    """Independent one-line evaluation of the difficulty update rule."""
    if number == 0:
        return 131072
    exp = max(number - 5_000_000, 0) // 100_000 - 2
    eps = 2**exp if exp >= 0 else 0
    y = 1 if parent_uncles == 0 else 2
    return max(131072, parent_d + (parent_d // 2048) * max(y - interval // lam, -99) + eps)


def node_address(index: int) -> Address:
    """The sender address of the transactions that node ``index`` originates."""
    return Address.from_seed(b"node:%d" % index)


def fill_block(pool: Iterable[Transaction], gas_limit: int) -> list[Transaction]:
    """Greedy selection in arrival order, stopping at the first transaction
    that would push the gas sum past ``gas_limit``."""
    chosen: list[Transaction] = []
    total = 0
    for tx in sorted(pool, key=lambda t: t.tx_id):
        if total + tx.gas > gas_limit:
            break
        chosen.append(tx)
        total += tx.gas
    return chosen


def validate_uncle(tree: BlockTree, nephew: BlockHeader, uncle_id: str) -> bool:
    """Uncle check that walks the nephew's ancestors for every candidate."""
    if uncle_id not in tree:
        return False
    uncle = tree.blocks[uncle_id]
    k = nephew.number - uncle.number + 1
    if not (2 <= k <= MAX_UNCLE_GENERATIONS):
        return False
    lineage = [nephew.parent_id] + tree.ancestors(nephew.parent_id, MAX_UNCLE_GENERATIONS)
    if uncle_id in lineage:
        return False
    if uncle.header.parent_id not in lineage:
        return False
    for aid in lineage:
        if uncle_id in tree.blocks[aid].header.uncle_ids:
            return False
    return True


def probe_header(tree: BlockTree, parent_id: str) -> BlockHeader:
    """A prospective child header of ``parent_id``, for uncle checks."""
    parent = tree.block(parent_id)
    return BlockHeader(
        block_id="",
        number=parent.number + 1,
        parent_id=parent_id,
        miner=-1,
        difficulty=0,
        timestamp=parent.header.timestamp + 1,
        uncle_ids=(),
        gas_used=0,
    )


def eligible_uncles(tree: BlockTree, new_parent: str) -> list[str]:
    """Every block in the window, sorted by (number, id), checked one by one
    with ``validate_uncle``; the first two valid ones."""
    probe = probe_header(tree, new_parent)
    candidates: list[tuple[int, str]] = []
    lo = max(0, probe.number - MAX_UNCLE_GENERATIONS + 1)
    for number in range(lo, probe.number):
        for bid in tree.by_number.get(number, ()):
            candidates.append((number, bid))
    out: list[str] = []
    for _, bid in sorted(candidates):
        if validate_uncle(tree, probe, bid):
            out.append(bid)
            if len(out) == MAX_UNCLES_PER_BLOCK:
                break
    return out


def header_digest(
    number: int,
    parent_id: str,
    miner: int,
    difficulty: int,
    timestamp: int,
    uncle_ids: Sequence[str],
    tx_ids: Sequence[int],
) -> str:
    """Block id as the sha256 of the header tuple's ``repr``, every id
    formatted on its own."""
    return hashlib.sha256(repr(
        (number, parent_id, miner, difficulty, timestamp, tuple(uncle_ids), tuple(tx_ids))
    ).encode()).hexdigest()


def delivered(node: NodeState) -> np.ndarray:
    """Boolean mask over ids: delivered to ``node``."""
    mask = np.zeros(node.table.count, dtype=np.bool_)
    mask[: node.cut_all] = True
    lo, hi = node.cut_all, node.cut_own
    mask[lo:hi] = node.table.origins[lo:hi] == node.index
    return mask


def pending_ids(node: NodeState) -> set[int]:
    """Delivered, not on the canonical chain: the node's pool."""
    return set(np.flatnonzero(delivered(node) & ~node.in_chain).tolist())


def save_meter_stream(records: list[MeterRecord], path) -> None:
    """Write one ``device_id,unix_time,kwh`` line per record."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(f"{rec.device_id},{rec.collected_at},{rec.energy_kwh:.3f}\n")


class PerReceiverSimulation(Simulation):
    """The simulator with one delivery event per (block, receiver), pushed
    in receiver order, and a full header check at every receiver: against
    the run's tree, plus that the node holds the parent and every uncle. It
    takes no missing parent from the store, so a run that delivered a block
    before its parent would raise here."""

    def _broadcast(self, block: Block, sender: int, now: float) -> None:
        for dst in range(self.config.num_nodes):
            if dst != sender:
                self._push(now + self.config.propagation_delay, (dst,), block)

    def on_block_received(self, node_index: int, block: Block, now: float) -> None:
        node = self.nodes[node_index]
        known = node.known
        header = block.header
        if not (header.parent_id in known
                and validate_header(self.params, self.tree, header)
                and all(uid in known for uid in header.uncle_ids)):
            raise AssertionError(f"invalid header broadcast: {block.block_id}")
        known.add(block.block_id)
        if self.trace is not None:
            self._trace(now, "received", node.index, block)
        td = self.tree.total_difficulty
        if td[block.block_id] > td[node.head_block.block_id]:
            self._reorg(node, block, now)


class HeapMiningSimulation(Simulation):
    """The simulator with every mining draw pushed on the event heap beside
    the deliveries, as (time, sequence, receivers, block, epoch): a draw
    has the mining node as ``receivers``, no block and its epoch. A popped
    draw is dropped when a later draw has moved its node's epoch on, or
    when it lands after the end; ``late_draws`` counts the live ones
    dropped for the end. Every reorg walks both branches down to their
    common ancestor."""

    late_draws = 0

    def _push(self, time, receivers, block):
        heapq.heappush(self.events, (time, next(self._sequence), receivers, block, 0))

    def _push_draw(self, time, node_index, epoch):
        heapq.heappush(self.events, (time, next(self._sequence), node_index, None, epoch))

    def _schedule_mining(self, node: NodeState, now: float) -> None:
        if now >= self.config.sim_duration:
            return
        node.epoch += 1
        head = node.head_block.header
        difficulty = compute_difficulty(self.params, head, head.number + 1,
                                        max(head.timestamp + 1, int(now)))
        dt = self._solve_time(difficulty / self.hashrates[node.index])
        self._push_draw(now + dt, node.index, node.epoch)

    def _process_events(self) -> None:
        events = self.events
        while events:
            time, _, target, block, epoch = heapq.heappop(events)
            if block is None:
                if epoch != self.nodes[target].epoch:
                    continue
                if time > self.config.sim_duration:
                    self.late_draws += 1
                    continue
                self.on_block_mined(target, time)
            else:
                for index in target:
                    self.on_block_received(index, block, time)

    def _reorg(self, node: NodeState, new_head: Block, now: float) -> None:
        blocks = self.tree.blocks
        old, new = node.head_block.header, new_head.header
        removed, added = [], []
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
        for bid in removed:
            node.set_in_chain(blocks[bid].tx_ids, False)
        for bid in added:
            node.set_in_chain(blocks[bid].tx_ids, True)
        node.head_block = new_head
        self._schedule_mining(node, now)


def ctr_keystream_xor(data: bytes, key: SymmetricKey, counter0: bytes) -> bytes:
    """AES-256-CTR from ``counter0`` through the library's CTR mode, with a
    new cipher for every call."""
    enc = Cipher(algorithms.AES(key.bytes), modes.CTR(counter0)).encryptor()
    return enc.update(data) + enc.finalize()


def crypt_record_fieldwise(
    fields: tuple[bytes, bytes, bytes], key: SymmetricKey, nonce: bytes
) -> tuple[bytes, ...]:
    """Each field of a record through ``ctr_keystream_xor`` on its own, from
    its own field counter."""
    return tuple(
        ctr_keystream_xor(data, key, field_counter(nonce, index))
        for index, data in enumerate(fields)
    )
