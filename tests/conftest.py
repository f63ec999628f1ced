import pytest

from gridchain.chain import Address, BlockTree, Transaction, make_block, make_genesis


@pytest.fixture
def genesis():
    return make_genesis(difficulty=131072)


@pytest.fixture
def tree(genesis):
    return BlockTree(genesis)


def addr(tag: str) -> Address:
    return Address.from_seed(tag.encode())


def tx(tx_id: int, gas: int = 45_000, sender: str = "a", payload=None) -> Transaction:
    return Transaction(tx_id=tx_id, sender=addr(sender), gas=gas, payload=payload)


def extend(tree: BlockTree, parent, difficulty: int, *, ts=None, miner=0,
           transactions=(), uncle_ids=()):
    """Append a child block without consensus validation (test plumbing)."""
    header = parent.header
    block = make_block(
        number=header.number + 1,
        parent_id=header.block_id,
        miner=miner,
        difficulty=difficulty,
        timestamp=ts if ts is not None else header.timestamp + 1,
        transactions=transactions,
        uncle_ids=uncle_ids,
    )
    tree.insert_block(block)
    return block

