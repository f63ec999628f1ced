import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridchain.chain import make_genesis, BlockTree
from gridchain.contract import (
    AlreadyDeployed,
    CallKind,
    ContractCall,
    ContractState,
    MalformedCall,
    NotOwner,
    OwnerIrremovable,
    Untrusted,
    apply_call,
    dump_state,
    replay_chain,
)

from conftest import addr, extend, tx

OWNER = addr("owner")
ALICE = addr("alice")
BOB = addr("bob")
CARL = addr("carl")


def test_deploy_sets_owner_and_trust():
    state = ContractState.deploy(OWNER)
    assert state.init_addr == OWNER
    assert state.is_trusted(OWNER) is True
    assert state.total_of_reco == 0


def test_deploy_twice_gives_independent_states():
    s1 = ContractState.deploy(OWNER)
    s2 = ContractState.deploy(ALICE)
    assert s1.init_addr == OWNER and s2.init_addr == ALICE
    s1.new_reco(OWNER, b"a", b"b", b"c")
    assert s2.total_of_reco == 0


def test_add_acc_owner_only():
    state = ContractState.deploy(OWNER)
    state.add_acc(OWNER, BOB)
    assert state.is_trusted(BOB)
    with pytest.raises(NotOwner):
        state.add_acc(BOB, CARL)
    assert not state.is_trusted(CARL)


def test_add_acc_idempotent_for_owner():
    state = ContractState.deploy(OWNER)
    state.add_acc(OWNER, OWNER)
    assert state.is_trusted(OWNER)


def test_rm_acc_guards():
    state = ContractState.deploy(OWNER)
    state.add_acc(OWNER, BOB)
    with pytest.raises(NotOwner):
        state.rm_acc(BOB, OWNER)
    with pytest.raises(OwnerIrremovable):
        state.rm_acc(OWNER, OWNER)
    state.rm_acc(OWNER, BOB)
    assert not state.is_trusted(BOB)
    with pytest.raises(Untrusted):
        state.new_reco(BOB, b"1", b"2", b"3")


def test_new_reco_appends_densely_and_emits():
    state = ContractState.deploy(OWNER)
    event = state.new_reco(OWNER, b"i1", b"t1", b"v1")
    assert event.record_index == 1 and state.total_of_reco == 1
    state.new_reco(OWNER, b"i2", b"t2", b"v2")
    state.new_reco(OWNER, b"i3", b"t3", b"v3")
    assert sorted(state.reco) == [1, 2, 3]
    assert [e.record_index for e in state.event_log] == [1, 2, 3]
    assert state.reco[2].time == b"t2"


def test_new_reco_untrusted_rejected():
    state = ContractState.deploy(OWNER)
    with pytest.raises(Untrusted):
        state.new_reco(ALICE, b"a", b"b", b"c")
    assert state.total_of_reco == 0


def test_records_stored_verbatim_and_immutable():
    state = ContractState.deploy(OWNER)
    blob = bytes(range(256))
    state.new_reco(OWNER, blob, b"\x00", b"\xff" * 3)
    first = state.reco[1]
    state.new_reco(OWNER, b"x", b"y", b"z")
    assert state.reco[1] is first
    assert state.reco[1].id == blob


def _call_tx(tx_id, sender, call):
    return tx(tx_id, sender="ignored", payload=call).__class__(
        tx_id=tx_id, sender=sender, gas=45_000, payload=call
    )


def _chain_with_calls(calls):
    """One block per call on a linear chain, in order."""
    genesis = make_genesis(131072)
    tree = BlockTree(genesis)
    cur = genesis
    blocks = [genesis]
    for i, (sender, call) in enumerate(calls):
        cur = extend(tree, cur, difficulty=131072,
                     transactions=[_call_tx(i + 1, sender, call)])
        blocks.append(cur)
    return blocks


def test_replay_applies_calls_in_order():
    calls = [(OWNER, ContractCall(CallKind.DEPLOY))]
    calls += [(OWNER, ContractCall(CallKind.NEW_RECO, record_id=b"i%d" % k,
                                   record_time=b"t", record_value=b"v"))
              for k in range(5)]
    state = replay_chain(_chain_with_calls(calls))
    assert state.total_of_reco == 5
    assert state.applied_calls == 6
    assert state.failed_calls == 0


def test_replay_counts_failures_without_state_change():
    calls = [
        (OWNER, ContractCall(CallKind.DEPLOY)),
        (OWNER, ContractCall(CallKind.ADD_ACC, addr=BOB)),
        (OWNER, ContractCall(CallKind.RM_ACC, addr=BOB)),
        (BOB, ContractCall(CallKind.NEW_RECO, record_id=b"i", record_time=b"t",
                           record_value=b"v")),
        (OWNER, ContractCall(CallKind.NEW_RECO, record_id=b"j", record_time=b"u",
                             record_value=b"w")),
    ]
    state = replay_chain(_chain_with_calls(calls))
    assert state.total_of_reco == 1
    assert state.reco[1].id == b"j"
    assert state.failed_calls == 1
    assert state.failures_by_sender[BOB] == 1


def test_replay_calls_before_deploy_fail():
    calls = [
        (OWNER, ContractCall(CallKind.NEW_RECO, record_id=b"i", record_time=b"t",
                             record_value=b"v")),
        (OWNER, ContractCall(CallKind.DEPLOY)),
        (OWNER, ContractCall(CallKind.DEPLOY)),
    ]
    state = replay_chain(_chain_with_calls(calls))
    assert state.total_of_reco == 0
    assert state.failed_calls == 2  # pre-deploy call and the second deploy
    assert state.init_addr == OWNER


def malformed_replay_summary():
    """Replay DEPLOY, an ADD_ACC without ``addr`` and a NEW_RECO with only
    ``record_id``, all from the owner: (applied, failed, failures by sender
    as hex, records, state dump)."""
    calls = [
        (OWNER, ContractCall(CallKind.DEPLOY)),
        (OWNER, ContractCall(CallKind.ADD_ACC)),
        (OWNER, ContractCall(CallKind.NEW_RECO, record_id=b"i")),
    ]
    state = replay_chain(_chain_with_calls(calls))
    return (state.applied_calls, state.failed_calls,
            {a.hex(): n for a, n in state.failures_by_sender.items()},
            state.total_of_reco, dump_state(state))


def test_malformed_calls_are_counted_not_raised():
    applied, failed, by_sender, records, _ = malformed_replay_summary()
    assert (applied, failed, records) == (1, 2, 0)
    assert by_sender == {OWNER.hex(): 2}


def test_malformed_calls_raise_malformed_call():
    state = ContractState.deploy(OWNER)
    for call in (ContractCall(CallKind.ADD_ACC), ContractCall(CallKind.RM_ACC),
                 ContractCall(CallKind.NEW_RECO, record_id=b"i", record_time=b"t")):
        with pytest.raises(MalformedCall):
            apply_call(state, OWNER, call)
    assert state.total_of_reco == 0
    assert state.trusted_acc == {OWNER: True}


def test_malformed_calls_counted_under_optimize_flag():
    """``python -O`` strips asserts, so the field checks must not be asserts:
    the replay must read the same there as here."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    code = ("import sys, test_contract as t; "
            "print(sys.flags.optimize); print(repr(t.malformed_replay_summary()))")
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, env=env, check=True).stdout
    optimize, summary = out.splitlines()
    assert optimize == "1"
    assert summary == repr(malformed_replay_summary())


def test_second_deploy_raises_via_apply_call():
    state = ContractState.deploy(OWNER)
    with pytest.raises(AlreadyDeployed):
        apply_call(state, ALICE, ContractCall(CallKind.DEPLOY))
    assert state.init_addr == OWNER


def test_replay_ignores_plain_transactions():
    genesis = make_genesis(131072)
    tree = BlockTree(genesis)
    blk = extend(tree, genesis, difficulty=131072, transactions=[tx(1), tx(2)])
    state = replay_chain([genesis, blk])
    assert state.init_addr is None
    assert state.applied_calls == 0 and state.failed_calls == 0


def test_dump_state_format():
    state = ContractState.deploy(OWNER)
    state.add_acc(OWNER, BOB)
    state.new_reco(OWNER, b"i", b"t", b"v")
    text = dump_state(state)
    lines = text.splitlines()
    assert lines[0] == f"owner {OWNER.hex()}"
    assert lines[1] == "records 1"
    trusted = {line.split()[1] for line in lines if line.startswith("trusted ")}
    assert trusted == {OWNER.hex(), BOB.hex()}
    assert lines[-1].startswith("reco 1 ")
    assert text.endswith("\n")


def test_dump_state_is_replay_fingerprint():
    calls = [
        (OWNER, ContractCall(CallKind.DEPLOY)),
        (OWNER, ContractCall(CallKind.ADD_ACC, addr=ALICE)),
        (ALICE, ContractCall(CallKind.NEW_RECO, record_id=b"a", record_time=b"b",
                             record_value=b"c")),
    ]
    chain = _chain_with_calls(calls)
    assert dump_state(replay_chain(chain)) == dump_state(replay_chain(chain))
