"""Hash-linked block/transaction data model and the block tree.

Everything here is pure bookkeeping: no consensus rules, no networking.
Header validation lives in :mod:`gridchain.consensus`; callers are expected
to validate before inserting (out-of-order arrivals are buffered by the
network simulator, not here).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

# Ancestors kept per block in ``BlockTree.lineage``: the uncle window of
# ``consensus.MAX_UNCLE_GENERATIONS`` generations.
LINEAGE_ANCESTORS = 7


class ChainError(Exception):
    pass


class UnknownParent(ChainError):
    """Block's parent is not in the tree; caller must buffer and retry."""


class UnknownBlock(ChainError):
    """Referenced block id is not in the tree."""


@dataclass(frozen=True, slots=True)
class Address:
    """20-byte account identifier. Equality is byte equality."""

    value: bytes

    def __post_init__(self) -> None:
        if len(self.value) != 20:
            raise ValueError(f"address must be 20 bytes, got {len(self.value)}")

    @classmethod
    def from_seed(cls, seed: bytes) -> "Address":
        return cls(hashlib.sha256(seed).digest()[:20])

    @classmethod
    def from_node(cls, node_index: int) -> "Address":
        return cls.from_seed(b"node:%d" % node_index)

    def hex(self) -> str:
        return self.value.hex()

    def __repr__(self) -> str:
        return f"Address({self.value.hex()[:12]}..)"


@dataclass(frozen=True, slots=True)
class Transaction:
    """A contract-call (or plain payload-less) transaction.

    ``tx_id`` is unique within a simulation run; for simulator-generated
    traffic it is simply the arrival index. ``size_kb`` is kept in kB because
    the configured average transaction size is fractional at byte level.
    """

    tx_id: int
    sender: Address
    gas: int
    size_kb: float
    payload: object | None = None  # ContractCall for contract traffic

    def __post_init__(self) -> None:
        if self.gas <= 0:
            raise ValueError("transaction gas must be positive")
        if self.size_kb <= 0:
            raise ValueError("transaction size must be positive")


@dataclass(frozen=True, slots=True)
class BlockHeader:
    block_id: str
    number: int
    parent_id: str
    miner: int
    difficulty: int
    timestamp: int
    uncle_ids: tuple[str, ...]
    gas_used: int


class _TxSlice(Sequence):
    """Lazy view of simulator transactions, materialised on access.

    The event loop works purely on integer transaction ids; analysis code
    that touches ``block.transactions`` pays the object cost only for the
    blocks it looks at.
    """

    __slots__ = ("_table", "_ids")

    def __init__(self, table, ids: tuple[int, ...]):
        self._table = table
        self._ids = ids

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._table.tx(j) for j in self._ids[i]]
        return self._table.tx(self._ids[i])

    def __iter__(self):
        return (self._table.tx(j) for j in self._ids)

    def injected(self) -> list[Transaction]:
        """The injected transactions of the slice, in block order: the only
        ones that can carry a payload."""
        injected = self._table.injected
        return [injected[j] for j in self._ids if j in injected]

    def __repr__(self) -> str:
        return f"<_TxSlice of {len(self._ids)} txs>"


@dataclass(frozen=True, slots=True)
class Block:
    header: BlockHeader
    transactions: Sequence[Transaction]
    tx_ids: tuple[int, ...]

    @property
    def block_id(self) -> str:
        return self.header.block_id

    @property
    def number(self) -> int:
        return self.header.number


def payload_transactions(block: Block) -> Iterable[Transaction]:
    """The block's transactions that may carry a payload, in block order.

    A simulator block answers from its injected ids without materialising
    its other transactions; any other block yields all of its own.
    """
    txs = block.transactions
    if isinstance(txs, _TxSlice):
        return txs.injected()
    return txs


def header_digest(
    number: int,
    parent_id: str,
    miner: int,
    difficulty: int,
    timestamp: int,
    uncle_ids: Sequence[str],
    tx_ids: Sequence[int],
) -> str:
    """Deterministic block id from header contents plus the tx id list."""
    h = hashlib.sha256()
    h.update(
        repr(
            (number, parent_id, miner, difficulty, timestamp, tuple(uncle_ids), tuple(tx_ids))
        ).encode()
    )
    return h.hexdigest()


def assemble_block(
    number: int,
    parent_id: str,
    miner: int,
    difficulty: int,
    timestamp: int,
    uncle_ids: Sequence[str],
    tx_ids: tuple[int, ...],
    gas_used: int,
    transactions: Sequence[Transaction],
) -> Block:
    """The block constructor: the header, whose id digests its contents and
    ``tx_ids``, over ``transactions`` (the transactions of ``tx_ids``)."""
    uncle_ids = tuple(uncle_ids)
    block_id = header_digest(number, parent_id, miner, difficulty, timestamp, uncle_ids, tx_ids)
    header = BlockHeader(block_id, number, parent_id, miner, difficulty, timestamp, uncle_ids,
                         gas_used)
    return Block(header=header, transactions=transactions, tx_ids=tx_ids)


def make_block(
    number: int,
    parent_id: str,
    miner: int,
    difficulty: int,
    timestamp: int,
    transactions: Sequence[Transaction] = (),
    uncle_ids: Sequence[str] = (),
) -> Block:
    """Assemble a block from explicit transactions (test/library path)."""
    txs = tuple(transactions)
    return assemble_block(number, parent_id, miner, difficulty, timestamp, uncle_ids,
                          tuple(t.tx_id for t in txs), sum(t.gas for t in txs), txs)


def make_genesis(difficulty: int, timestamp: int = 0) -> Block:
    return make_block(number=0, parent_id="", miner=-1, difficulty=difficulty, timestamp=timestamp)


class BlockTree:
    """Block store keyed by id with parent links and total difficulty.

    Single-writer: one simulation run mutates a tree; parallelism happens
    across runs, never within one tree.
    """

    def __init__(self, genesis: Block):
        self.genesis_id = genesis.block_id
        self.blocks: dict[str, Block] = {genesis.block_id: genesis}
        self.total_difficulty: dict[str, int] = {genesis.block_id: genesis.header.difficulty}
        # number -> list of block ids at that height, in insertion order
        self.by_number: dict[int, list[str]] = {genesis.number: [genesis.block_id]}
        # block id -> the block and its LINEAGE_ANCESTORS nearest ancestors,
        # nearest first, cut short at genesis
        self.lineage: dict[str, tuple[str, ...]] = {genesis.block_id: (genesis.block_id,)}

    def __contains__(self, block_id: str) -> bool:
        return block_id in self.blocks

    def __len__(self) -> int:
        return len(self.blocks)

    def insert_block(self, block: Block) -> bool:
        """Insert ``block``; returns False (no-op) for a duplicate block id.

        Raises UnknownParent if the parent is absent. Validation against the
        consensus rules is the caller's responsibility (see
        ``consensus.validate_header``).
        """
        bid = block.block_id
        if bid in self.blocks:
            return False
        parent_id = block.header.parent_id
        if parent_id not in self.blocks:
            raise UnknownParent(f"parent {parent_id!r} of block {bid!r} not in tree")
        self.blocks[bid] = block
        self.total_difficulty[bid] = self.total_difficulty[parent_id] + block.header.difficulty
        self.by_number.setdefault(block.number, []).append(bid)
        self.lineage[bid] = (bid,) + self.lineage[parent_id][:LINEAGE_ANCESTORS]
        return True

    def block(self, block_id: str) -> Block:
        try:
            return self.blocks[block_id]
        except KeyError:
            raise UnknownBlock(block_id) from None

    def canonical_chain(self, head: str) -> list[Block]:
        """Parent path from genesis to ``head`` (inclusive), height order."""
        chain: list[Block] = []
        cur = self.block(head)
        while True:
            chain.append(cur)
            if cur.block_id == self.genesis_id:
                break
            cur = self.blocks[cur.header.parent_id]
        chain.reverse()
        return chain

    def ancestors(self, block_id: str, depth: int) -> list[str]:
        """Up to ``depth`` ancestor ids, nearest first; stops at genesis."""
        out: list[str] = []
        cur = self.block(block_id)
        while len(out) < depth and cur.block_id != self.genesis_id:
            cur = self.blocks[cur.header.parent_id]
            out.append(cur.block_id)
        return out
