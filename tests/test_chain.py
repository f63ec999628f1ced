import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridchain.chain import (
    Address,
    BlockTree,
    UnknownBlock,
    UnknownParent,
    assemble_block,
    header_digest,
    make_block,
    make_genesis,
)

import oracles
from conftest import extend, tx


def test_address_equality_is_byte_equality():
    a = Address(b"\x01" * 20)
    b = Address(b"\x01" * 20)
    c = Address(b"\x02" * 20)
    assert a == b
    assert a != c
    assert len({a, b, c}) == 2


def test_address_rejects_wrong_length():
    with pytest.raises(ValueError):
        Address(b"\x01" * 19)


def test_transaction_rejects_nonpositive_gas_and_size():
    with pytest.raises(ValueError):
        tx(1, gas=0)


def test_insert_genesis_child_total_difficulty(tree, genesis):
    child = extend(tree, genesis, difficulty=131072)
    assert tree.total_difficulty[child.block_id] == 2 * 131072


def test_insert_duplicate_is_noop(tree, genesis):
    child = extend(tree, genesis, difficulty=131072)
    before = dict(tree.total_difficulty)
    assert tree.insert_block(child) is False
    assert tree.total_difficulty == before
    assert len(tree) == 2


def test_insert_unknown_parent_raises(tree, genesis):
    stray = make_block(number=5, parent_id="no-such-id", miner=0,
                       difficulty=131072, timestamp=10)
    with pytest.raises(UnknownParent):
        tree.insert_block(stray)


def test_three_block_chain_total_difficulty(tree, genesis):
    # hand-summed: 131072 + 131136 + 131200 = 393408 at the tip
    b1 = extend(tree, genesis, difficulty=131136)
    b2 = extend(tree, b1, difficulty=131200)
    assert tree.total_difficulty[b2.block_id] == 393408


def test_canonical_chain_of_genesis(tree, genesis):
    assert [b.block_id for b in tree.canonical_chain(genesis.block_id)] == [genesis.block_id]


def test_canonical_chain_linear(tree, genesis):
    blocks = [genesis]
    for _ in range(4):
        blocks.append(extend(tree, blocks[-1], difficulty=131072))
    chain = tree.canonical_chain(blocks[-1].block_id)
    assert [b.block_id for b in chain] == [b.block_id for b in blocks]
    assert len(chain) == blocks[-1].number + 1


def test_canonical_chain_excludes_other_branch(tree, genesis):
    a1 = extend(tree, genesis, difficulty=131072, miner=0)
    a2 = extend(tree, a1, difficulty=131072, miner=0)
    b1 = extend(tree, genesis, difficulty=131073, miner=1)
    chain_ids = {b.block_id for b in tree.canonical_chain(a2.block_id)}
    assert b1.block_id not in chain_ids
    assert chain_ids == {genesis.block_id, a1.block_id, a2.block_id}


def test_canonical_chain_unknown_head(tree):
    with pytest.raises(UnknownBlock):
        tree.canonical_chain("missing")


def test_ancestors_of_genesis_empty(tree, genesis):
    assert tree.ancestors(genesis.block_id, 6) == []


def test_ancestors_nearest_first(tree, genesis):
    b1 = extend(tree, genesis, difficulty=131072)
    b2 = extend(tree, b1, difficulty=131072)
    b3 = extend(tree, b2, difficulty=131072)
    assert tree.ancestors(b3.block_id, 2) == [b2.block_id, b1.block_id]


def test_ancestors_truncate_at_genesis(tree, genesis):
    blocks = [genesis]
    for _ in range(4):
        blocks.append(extend(tree, blocks[-1], difficulty=131072))
    got = tree.ancestors(blocks[4].block_id, 6)
    assert got == [blocks[3].block_id, blocks[2].block_id, blocks[1].block_id,
                   genesis.block_id]


def test_block_ids_deterministic_and_content_sensitive():
    a = make_block(1, "p", 0, 131072, 5)
    b = make_block(1, "p", 0, 131072, 5)
    c = make_block(1, "p", 0, 131072, 6)
    d = make_block(1, "p", 1, 131072, 5)
    assert a.block_id == b.block_id
    assert len({a.block_id, c.block_id, d.block_id}) == 3


def test_gas_used_is_sum_of_transaction_gas():
    block = make_block(1, "p", 0, 131072, 5, transactions=[tx(1, gas=100), tx(2, gas=250)])
    assert block.header.gas_used == 350
    assert block.tx_ids == (1, 2)


@settings(max_examples=40, deadline=None)
@given(difficulties=st.lists(st.integers(min_value=1, max_value=10**9), min_size=1, max_size=30))
def test_total_difficulty_matches_chain_replay(difficulties):
    # Integer-exact: replaying the canonical chain and summing difficulties
    # must reproduce the maintained total, for any difficulty sequence.
    genesis = make_genesis(difficulty=131072)
    tree = BlockTree(genesis)
    cur = genesis
    for d in difficulties:
        cur = extend(tree, cur, difficulty=d)
    chain = tree.canonical_chain(cur.block_id)
    assert sum(b.header.difficulty for b in chain) == tree.total_difficulty[cur.block_id]
    numbers = [b.number for b in chain]
    timestamps = [b.header.timestamp for b in chain]
    assert numbers == list(range(len(chain)))
    assert all(t2 > t1 for t1, t2 in zip(timestamps, timestamps[1:]))


# Where the width of an id changes, and far beyond.
_RANGE_STARTS = st.one_of(
    st.sampled_from([0, 999, 1000, 9999, 10_000, 99_999, 100_000, 999_999, 1_000_000])
    .flatmap(lambda edge: st.integers(max(edge - 3, 0), edge + 3)),
    st.integers(0, 10**9),
)


@settings(max_examples=300, deadline=None)
@given(
    start=_RANGE_STARTS,
    length=st.one_of(st.sampled_from([0, 1, 2, 999, 1000, 1001]), st.integers(0, 2_500)),
    uncle_ids=st.lists(st.text("0123456789abcdef", min_size=1, max_size=64), max_size=2),
    number=st.integers(0, 10**7),
    miner=st.integers(-1, 5),
    difficulty=st.integers(1, 10**15),
    timestamp=st.integers(0, 10**7),
)
def test_range_digest_equals_the_tuple_repr_digest(start, length, uncle_ids, number, miner,
                                                   difficulty, timestamp):
    fields = (number, "ab" * 32, miner, difficulty, timestamp, tuple(uncle_ids))
    ids = range(start, start + length)
    expected = oracles.header_digest(*fields, tuple(ids))
    assert header_digest(*fields, ids) == expected
    assert header_digest(*fields, tuple(ids)) == expected


def test_non_range_ids_with_range_endpoints_digest_as_given():
    fields = (1, "p", 0, 131072, 5, ())
    assert header_digest(*fields, (1000, 1002, 1001, 1003)) == oracles.header_digest(
        *fields, (1000, 1002, 1001, 1003))
    assert header_digest(*fields, range(1000, 1010, 2)) == oracles.header_digest(
        *fields, tuple(range(1000, 1010, 2)))


def test_assemble_block_from_a_range_equals_one_from_the_tuple():
    ids = range(4_990, 5_310)
    args = (7, "p" * 64, 2, 131072, 40, ("u" * 64,))
    from_range = assemble_block(*args, ids, 12_345, ())
    from_tuple = assemble_block(*args, tuple(ids), 12_345, ())
    # The same header and ids; the blocks are not ``==``, as a range is not a tuple.
    assert from_range.header == from_tuple.header
    assert tuple(from_range.tx_ids) == from_tuple.tx_ids
    assert from_range.tx_ids is ids and type(from_tuple.tx_ids) is tuple
    assert from_range.block_id == oracles.header_digest(*args, tuple(ids))
