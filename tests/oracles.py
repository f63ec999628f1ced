"""Object-level reference versions of the simulator's transaction stream and
block filling, kept as oracles for differential tests of the id-level code
in ``gridchain.netsim``."""

from typing import Iterable, Iterator

import numpy as np

from gridchain.chain import Transaction
from gridchain.netsim import SimConfig, build_tx_table


def generate_tx_arrivals(
    config: SimConfig, rng: np.random.Generator
) -> Iterator[tuple[float, Transaction]]:
    """Poisson arrival stream over [0, sim_duration) as (time, transaction).

    Identical seeds yield identical streams; a zero rate yields nothing.
    """
    table = build_tx_table(config, rng)
    for i in range(table.count):
        yield float(table.times[i]), table.tx(i)


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
