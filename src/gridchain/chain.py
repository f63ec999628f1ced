"""Hash-linked block/transaction data model and the block tree.

Everything here is pure bookkeeping: no consensus rules, no networking.
Header validation lives in :mod:`gridchain.consensus`; callers are expected
to validate before inserting. The network simulator inserts each block
once, when it is mined, so its parent is always in the tree.
"""

from __future__ import annotations

import hashlib
from bisect import insort
from dataclasses import dataclass
from typing import Sequence

# Ancestors kept per block in ``BlockTree.lineage``: the uncle window of
# ``consensus.MAX_UNCLE_GENERATIONS`` generations.
LINEAGE_ANCESTORS = 7


class ChainError(Exception):
    pass


class UnknownParent(ChainError):
    """Block's parent is not in the tree."""


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

    def hex(self) -> str:
        return self.value.hex()

    def __repr__(self) -> str:
        return f"Address({self.value.hex()[:12]}..)"


@dataclass(frozen=True, slots=True)
class Transaction:
    """A contract-call (or plain payload-less) transaction.

    ``tx_id`` is unique within a simulation run; for simulator-generated
    traffic it is simply the arrival index. It has no size: nothing in a
    run reads one.
    """

    tx_id: int
    sender: Address
    gas: int
    payload: object | None = None  # ContractCall for contract traffic

    def __post_init__(self) -> None:
        if self.gas <= 0:
            raise ValueError("transaction gas must be positive")


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


@dataclass(frozen=True, slots=True)
class Block:
    """A header over its transaction ids, stored once in ``tx_ids``: a
    ``range`` when assembled from one, a tuple otherwise. ``transactions``
    holds those of the ids that exist as objects, in block order: all of
    them for a ``make_block`` block, and only the injected ones for a
    simulator block, whose generated load is ids and gas alone."""

    header: BlockHeader
    transactions: tuple[Transaction, ...]
    tx_ids: range | tuple[int, ...]

    @property
    def block_id(self) -> str:
        return self.header.block_id

    @property
    def number(self) -> int:
        return self.header.number


# The text of the ids ``p000`` to ``p999`` in a tuple repr, for any
# thousands prefix ``p``: "#" stands for ``p``'s digits, six bytes per id.
_THOUSAND_IDS = b"".join(b"#%03d, " % i for i in range(1000))


def header_digest(
    number: int,
    parent_id: str,
    miner: int,
    difficulty: int,
    timestamp: int,
    uncle_ids: Sequence[str],
    tx_ids: Sequence[int],
) -> str:
    """Deterministic block id: the sha256 of
    ``repr((number, parent_id, miner, difficulty, timestamp, tuple(uncle_ids),
    tuple(tx_ids)))``.

    A non-empty ``range`` of step 1 from 1000 up writes the same bytes
    without formatting each id: every id there has its thousands prefix and
    three more digits, so the ids sharing a prefix are one slice of
    ``_THOUSAND_IDS`` with the prefix put in.
    """
    h = hashlib.sha256()
    uncle_ids = tuple(uncle_ids)
    if not (isinstance(tx_ids, range) and tx_ids and tx_ids.step == 1
            and tx_ids.start >= 1000):
        h.update(repr(
            (number, parent_id, miner, difficulty, timestamp, uncle_ids, tuple(tx_ids))
        ).encode())
        return h.hexdigest()
    head = repr((number, parent_id, miner, difficulty, timestamp, uncle_ids))
    h.update(head[:-1].encode() + b", (")
    first, last = tx_ids.start, tx_ids.stop - 1
    top = last // 1000
    for prefix in range(first // 1000, top + 1):
        base = prefix * 1000
        # Up to the next prefix, or to the last id's digits without ", ".
        stop = 6000 if prefix < top else (last - base) * 6 + 4
        ids = _THOUSAND_IDS[max(first - base, 0) * 6:stop]
        h.update(ids.replace(b"#", b"%d" % prefix))
    h.update(b",))" if len(tx_ids) == 1 else b"))")
    return h.hexdigest()


def assemble_block(
    number: int,
    parent_id: str,
    miner: int,
    difficulty: int,
    timestamp: int,
    uncle_ids: Sequence[str],
    tx_ids: Sequence[int],
    gas_used: int,
    transactions: tuple[Transaction, ...],
) -> Block:
    """The block constructor: the header, whose id digests its contents and
    ``tx_ids``, over ``transactions`` (those of ``tx_ids`` that exist as
    objects). A ``range`` is kept and digested without formatting each id;
    other ``tx_ids`` become a tuple. Either gives the same block id, but
    the two blocks are not ``==``: a range is not a tuple."""
    uncle_ids = tuple(uncle_ids)
    block_id = header_digest(number, parent_id, miner, difficulty, timestamp, uncle_ids, tx_ids)
    header = BlockHeader(block_id, number, parent_id, miner, difficulty, timestamp, uncle_ids,
                         gas_used)
    return Block(header=header, transactions=transactions,
                 tx_ids=tx_ids if type(tx_ids) is range else tuple(tx_ids))


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
        # number -> list of block ids at that height, in ascending id order
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
        insort(self.by_number.setdefault(block.number, []), bid)
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
