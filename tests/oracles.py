"""Reference versions of the simulator's fast paths, kept as oracles for
differential tests: the object-level transaction stream and block filling
behind the id-level code in ``gridchain.netsim``, the per-candidate uncle
selection behind the lineage-based one in ``gridchain.consensus``, and the
per-receiver block delivery behind the simulator's one event per arrival
time and one header check per block, one ``rng.exponential`` call per solve
time behind the simulator's buffered stream, and the library's own AES-CTR
mode, one cipher per field, behind the meter's one AES call per record."""

from typing import Iterable, Iterator

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from gridchain.chain import TX_SIZE_KB, Address, Block, BlockHeader, BlockTree, Transaction
from gridchain.consensus import MAX_UNCLE_GENERATIONS, MAX_UNCLES_PER_BLOCK, validate_header
from gridchain.meter import SymmetricKey, field_counter
from gridchain.netsim import EventKind, SimConfig, Simulation, build_tx_table


def generate_tx_arrivals(
    config: SimConfig, rng: np.random.Generator
) -> Iterator[tuple[float, Transaction]]:
    """Poisson arrival stream over [0, sim_duration) as (time, transaction).

    Identical seeds yield identical streams; a zero rate yields nothing.
    """
    table = build_tx_table(config, rng)
    for i in range(table.count):
        tx = Transaction(tx_id=i, sender=node_address(int(table.origins[i])),
                         gas=int(table.gas[i]), size_kb=TX_SIZE_KB)
        yield float(table.times[i]), tx


def sample_mining_time(rng: np.random.Generator, difficulty: int, node_hashrate: float) -> float:
    """Exponential solve time with mean ``difficulty / node_hashrate``, one
    generator call per draw."""
    if node_hashrate <= 0:
        raise ValueError("node hashrate must be positive")
    return float(rng.exponential(difficulty / node_hashrate))


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


class PerReceiverSimulation(Simulation):
    """The simulator with one delivery event per (block, receiver), pushed
    in receiver order, and a full header check at every receiver."""

    def _broadcast(self, block: Block, sender: int, now: float) -> None:
        for dst in range(self.config.num_nodes):
            if dst != sender:
                self._push(now + self.config.delay(sender, dst), EventKind.BLOCK_RECEIVED,
                           (dst,), block)

    def on_block_received(self, node_index: int, block: Block, now: float) -> None:
        node = self.nodes[node_index]
        queue = [block]
        while queue:
            b = queue.pop(0)
            if b.block_id in node.tree:
                continue
            if b.header.parent_id not in node.tree:
                node.orphans.setdefault(b.header.parent_id, []).append(b)
                continue
            if not validate_header(self.params, node.tree, b.header):
                raise AssertionError(f"invalid header broadcast: {b.block_id}")
            node.tree.insert_block(b)
            if self.trace is not None:
                self._trace(now, "received", node.index, b)
            td = node.tree.total_difficulty
            if td[b.block_id] > td[node.head_block.block_id]:
                self._reorg(node, b, now)
            queue.extend(node.orphans.pop(b.block_id, ()))


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
