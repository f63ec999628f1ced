"""Difficulty adjustment, uncle validity and total-difficulty fork choice.

The difficulty update is the production Ethereum (Homestead-family) rule with
one change: the fixed divisor 9 applied to the block interval becomes a
tunable threshold ``lambda_``. The update keeps the interval between
``lambda_`` and ``2*lambda_`` seconds: shorter parents push difficulty up by
one step, intervals inside the window leave it unchanged, longer intervals
pull it down proportionally (clamped at -99 steps). Setting ``lambda_ = 9``
reproduces the unmodified public-network rule bit for bit.

All arithmetic is exact integer arithmetic with floor division.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass

from .chain import LINEAGE_ANCESTORS, BlockHeader, BlockTree, UnknownBlock, UnknownParent

MIN_DIFFICULTY = 131072
# The rest of the production rule, fixed: difficulty moves in steps of
# parent // DIFFICULTY_DIVISOR, by at most -ZETA_FLOOR steps down per block,
# and the exponential "bomb" term, dormant at private-network heights,
# doubles every BOMB_PERIOD blocks from BOMB_OFFSET on; it is 0 below BOMB_START.
DIFFICULTY_DIVISOR = 2048
ZETA_FLOOR = -99
BOMB_OFFSET = 5_000_000
BOMB_PERIOD = 100_000
BOMB_START = BOMB_OFFSET + 2 * BOMB_PERIOD

# A block may reference an uncle whose parent is its k-th generation
# ancestor for 2 <= k <= MAX_UNCLE_GENERATIONS (the standard protocol window).
# ``BlockTree.lineage`` keeps exactly the ancestors this window needs.
MAX_UNCLE_GENERATIONS = LINEAGE_ANCESTORS
MAX_UNCLES_PER_BLOCK = 2


class ConsensusError(Exception):
    pass


class NonMonotonicTimestamp(ConsensusError):
    """Child timestamp must be strictly greater than the parent's."""


@dataclass(frozen=True, slots=True)
class DifficultyParams:
    """The one tunable of the difficulty update rule: ``lambda_``, the
    interval threshold in seconds (9 on the public network). The rule's
    other constants are the public network's, fixed at module level.
    """

    lambda_: int = 9

    def __post_init__(self) -> None:
        if self.lambda_ < 1:
            raise ValueError("lambda_ must be >= 1 second")


def compute_difficulty(
    params: DifficultyParams,
    parent: BlockHeader | None,
    block_number: int,
    timestamp: int,
) -> int:
    """The difficulty of a block given its parent header.

    For ``block_number == 0`` the result is ``MIN_DIFFICULTY``. Otherwise,
    with D the parent's difficulty, t the block interval in seconds,
    x = D // DIFFICULTY_DIVISOR, y = 1 if the parent has no uncles else 2,
    zeta = max(y - t // lambda_, ZETA_FLOOR) and epsilon the bomb term
    2 ** ((block_number - BOMB_OFFSET) // BOMB_PERIOD - 2) (0 below
    ``BOMB_START``), it is max(MIN_DIFFICULTY, D + x * zeta + epsilon).

    The simulator evaluates this for every mining draw, mined block and
    header check, so both clamps are comparisons.
    """
    if block_number == 0:
        return MIN_DIFFICULTY
    if parent is None:
        raise ValueError("non-genesis difficulty needs the parent header")
    if timestamp <= parent.timestamp:
        raise NonMonotonicTimestamp(
            f"timestamp {timestamp} <= parent timestamp {parent.timestamp}"
        )
    zeta = (1 if not parent.uncle_ids else 2) - (timestamp - parent.timestamp) // params.lambda_
    if zeta < ZETA_FLOOR:
        zeta = ZETA_FLOOR
    result = parent.difficulty + parent.difficulty // DIFFICULTY_DIVISOR * zeta
    if block_number >= BOMB_START:
        result += 2 ** ((block_number - BOMB_OFFSET) // BOMB_PERIOD - 2)
    return result if result > MIN_DIFFICULTY else MIN_DIFFICULTY


def fork_choice_head(tree: BlockTree) -> str:
    """Block id with maximal total difficulty, ties broken by the
    lexicographically smaller block id.

    The result depends only on the tree contents, not on insertion order.
    (A live node breaks ties by first receipt instead: the simulator's
    ``NodeState.head_block`` moves only to a strictly heavier block.)
    """
    best_id = None
    best_key = None
    for bid, td in tree.total_difficulty.items():
        key = (-td, bid)
        if best_key is None or key < best_key:
            best_key = key
            best_id = bid
    assert best_id is not None
    return best_id


def validate_uncle(tree: BlockTree, nephew: BlockHeader, uncle_id: str) -> bool:
    """Check that ``uncle_id`` may be referenced by the block ``nephew``.

    Valid iff the uncle exists, is not an ancestor of the nephew, its parent
    is the nephew's k-th generation ancestor for 2 <= k <= 7, and no block on
    the nephew's ancestor path already includes it. Blocks already in the
    tree are assumed header-valid (they are validated on insertion).
    """
    uncle = tree.blocks.get(uncle_id)
    if uncle is None:
        return False
    # k = nephew.number - uncle.number + 1 is the generation of the uncle's
    # parent; restrict to the protocol window and forbid nephew's own height.
    k = nephew.number - uncle.number + 1
    if not (2 <= k <= MAX_UNCLE_GENERATIONS):
        return False
    lineage = tree.lineage.get(nephew.parent_id)
    if lineage is None:
        raise UnknownBlock(nephew.parent_id)
    if uncle_id in lineage:
        return False
    if uncle.header.parent_id not in lineage:
        return False
    # Reject double inclusion. Only ancestors close enough that the window
    # overlaps can have included this uncle, so the bounded scan is complete.
    for aid in lineage:
        if uncle_id in tree.blocks[aid].header.uncle_ids:
            return False
    return True


def eligible_uncles(tree: BlockTree, new_parent: str, known: Container[str]) -> list[str]:
    """Up to two uncle candidates for a child of ``new_parent``, among the
    blocks whose ids are in ``known`` (``tree.blocks`` for all of them).

    Deterministic: candidates are ordered by block number ascending, then by
    block id (the order ``tree.by_number`` keeps each height's ids in), and
    the first two valid ones are returned. The checks are
    those of ``validate_uncle``, made against one set of already-included
    uncles and, for ancestry, the parent's lineage tuple: it holds one block
    per height, so a candidate at height h is an ancestor iff it is the
    lineage's block at h, and its parent is one iff it is the block at h - 1.
    """
    nephew_number = tree.block(new_parent).number + 1
    lineage = tree.lineage[new_parent]
    blocks, by_number = tree.blocks, tree.by_number
    included: set[str] | None = None
    out: list[str] = []
    lo = max(0, nephew_number - MAX_UNCLE_GENERATIONS + 1)
    for number in range(lo, nephew_number):
        ids = by_number[number]
        # A height below the nephew always holds its ancestor; alone, that
        # block is no candidate.
        if len(ids) == 1:
            continue
        if included is None:  # built at the first height with a candidate
            included = {uid for aid in lineage for uid in blocks[aid].header.uncle_ids}
        ancestor = lineage[nephew_number - 1 - number]
        uncle_parent = lineage[nephew_number - number]
        for bid in ids:
            if (bid not in included and bid != ancestor and bid in known
                    and blocks[bid].header.parent_id == uncle_parent):
                out.append(bid)
                if len(out) == MAX_UNCLES_PER_BLOCK:
                    return out
    return out


def validate_header(params: DifficultyParams, tree: BlockTree, header: BlockHeader) -> bool:
    """Full header check against the parent already in ``tree``.

    True iff the difficulty matches the update rule exactly, the timestamp is
    strictly increasing, and the uncle list is within bounds and valid.
    """
    if header.parent_id not in tree:
        raise UnknownParent(header.parent_id)
    parent = tree.blocks[header.parent_id].header
    if header.number != parent.number + 1:
        return False
    if header.timestamp <= parent.timestamp:
        return False
    if header.difficulty != compute_difficulty(params, parent, header.number, header.timestamp):
        return False
    if len(header.uncle_ids) > MAX_UNCLES_PER_BLOCK:
        return False
    if len(set(header.uncle_ids)) != len(header.uncle_ids):
        return False
    for uid in header.uncle_ids:
        if not validate_uncle(tree, header, uid):
            return False
    return True
