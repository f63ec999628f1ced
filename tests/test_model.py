"""The simulator against its own equilibrium model.

``estimate_equilibrium_interval`` sets each run's starting difficulty, and
full-run statistics assume runs start at that equilibrium. This pins how
far a small simulated sample settles from the model: seed 7, 4 runs of
3000 s per threshold, the default network (3 equal miners, 0.25 s delay).

Tolerances on the mean block interval: 8% for λ >= 2, and 20% at λ = 1,
where the model clamps the interval at 1 s (the timestamp rule forces
intervals of at least one second) while runs settle near 1.15 s. That gap
is pinned here, not explained.
"""

import pytest

from gridchain.metrics import aggregate_runs
from gridchain.netsim import SimConfig, estimate_equilibrium_interval, run_many


@pytest.mark.parametrize("lambda_, tolerance", [
    (1, 0.20),
    (2, 0.08),
    (3, 0.08),
    (6, 0.08),
    (12, 0.08),
])
def test_mean_interval_settles_near_the_model(lambda_, tolerance):
    config = SimConfig(lambda_=lambda_, sim_duration=3000.0, num_runs=4, seed=7)
    model = estimate_equilibrium_interval(lambda_, config.propagation_delay, config.shares())
    simulated = aggregate_runs(run_many(config), lambda_).mean("mean_block_interval")
    gap = simulated / model - 1.0
    print(f"lambda={lambda_}: model {model:.3f} s, simulated {simulated:.3f} s, "
          f"gap {gap:+.1%}")
    assert abs(gap) <= tolerance
