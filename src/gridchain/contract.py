"""On-chain record registry: owner-managed trust list, append-only store.

The registry is a deterministic state machine executed against canonical
chain transactions. The deploying account becomes the owner; only the owner
may add or remove trusted accounts, the owner itself can never be removed,
and only trusted accounts may append records. Record fields are opaque
ciphertext bytes: the contract never inspects plaintext.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .chain import Address, Block


class ContractError(Exception):
    pass


class NotDeployed(ContractError):
    pass


class AlreadyDeployed(ContractError):
    pass


class NotOwner(ContractError):
    """Caller is not the deploying account."""


class OwnerIrremovable(ContractError):
    """The deploying account cannot be removed from the trust list."""


class Untrusted(ContractError):
    """Caller is not on the trust list."""


class MalformedCall(ContractError):
    """A call lacks a field its kind needs."""


class CallKind(Enum):
    DEPLOY = "deploy"
    ADD_ACC = "add_acc"
    RM_ACC = "rm_acc"
    NEW_RECO = "new_reco"


@dataclass(frozen=True, slots=True)
class ContractCall:
    """Payload of a contract transaction.

    ``add_acc``/``rm_acc`` use ``addr``; ``new_reco`` carries the three
    encrypted field byte strings verbatim.
    """

    kind: CallKind
    addr: Address | None = None
    record_id: bytes | None = None
    record_time: bytes | None = None
    record_value: bytes | None = None


@dataclass(frozen=True, slots=True)
class Reco:
    """One stored record: three opaque ciphertext fields."""

    id: bytes
    time: bytes
    value: bytes


@dataclass(frozen=True, slots=True)
class RecoEvent:
    """Emitted on every successful record append."""

    addr: Address
    id: bytes
    time: bytes
    value: bytes
    record_index: int


@dataclass
class ContractState:
    """Registry state. Fresh instances start undeployed (no owner)."""

    init_addr: Address | None = None
    total_of_reco: int = 0
    reco: dict[int, Reco] = field(default_factory=dict)
    trusted_acc: dict[Address, bool] = field(default_factory=dict)
    event_log: list[RecoEvent] = field(default_factory=list)

    @classmethod
    def deploy(cls, sender: Address) -> "ContractState":
        """A fresh registry deployed by ``sender``, through the DEPLOY call."""
        state = cls()
        apply_call(state, sender, ContractCall(CallKind.DEPLOY))
        return state

    @property
    def deployed(self) -> bool:
        return self.init_addr is not None

    def is_trusted(self, addr: Address) -> bool:
        return self.trusted_acc.get(addr, False)

    def _require_owner(self, sender: Address) -> None:
        if not self.deployed:
            raise NotDeployed("contract has not been deployed")
        if sender != self.init_addr:
            raise NotOwner(f"{sender!r} is not the owner")

    def add_acc(self, sender: Address, addr: Address) -> "ContractState":
        """Owner-only: mark ``addr`` trusted. Idempotent."""
        self._require_owner(sender)
        self.trusted_acc[addr] = True
        return self

    def rm_acc(self, sender: Address, addr: Address) -> "ContractState":
        """Owner-only: remove ``addr`` from the trust list (never the owner)."""
        self._require_owner(sender)
        if addr == self.init_addr:
            raise OwnerIrremovable("the deploying account cannot be removed")
        self.trusted_acc.pop(addr, None)
        return self

    def new_reco(self, sender: Address, id: bytes, time: bytes, value: bytes) -> RecoEvent:
        """Append a record if ``sender`` is trusted; emits the append event.

        Record indices are dense: keys are exactly 1..total_of_reco.
        """
        if not self.deployed:
            raise NotDeployed("contract has not been deployed")
        if not self.is_trusted(sender):
            raise Untrusted(f"{sender!r} is not trusted")
        self.total_of_reco += 1
        self.reco[self.total_of_reco] = Reco(id=id, time=time, value=value)
        event = RecoEvent(
            addr=sender, id=id, time=time, value=value, record_index=self.total_of_reco
        )
        self.event_log.append(event)
        return event


# Per-call failure bookkeeping produced by replay_chain.
@dataclass
class ReplayedState(ContractState):
    applied_calls: int = 0
    failed_calls: int = 0
    failures_by_sender: dict[Address, int] = field(default_factory=dict)


def apply_call(state: ContractState, sender: Address, call: ContractCall) -> None:
    """Apply one call to ``state``; raises the matching ContractError,
    ``MalformedCall`` for a call that lacks a field its kind needs."""
    if call.kind is CallKind.DEPLOY:
        if state.deployed:
            raise AlreadyDeployed("contract already deployed")
        state.trusted_acc[sender] = True
        state.init_addr = sender
    elif call.kind is CallKind.ADD_ACC:
        if call.addr is None:
            raise MalformedCall("add_acc needs addr")
        state.add_acc(sender, call.addr)
    elif call.kind is CallKind.RM_ACC:
        if call.addr is None:
            raise MalformedCall("rm_acc needs addr")
        state.rm_acc(sender, call.addr)
    elif call.kind is CallKind.NEW_RECO:
        if call.record_id is None or call.record_time is None or call.record_value is None:
            raise MalformedCall("new_reco needs record_id, record_time and record_value")
        state.new_reco(sender, call.record_id, call.record_time, call.record_value)
    else:  # pragma: no cover
        raise ContractError(f"unknown call kind {call.kind}")


def replay_chain(chain: Iterable[Block]) -> ReplayedState:
    """Execute every contract call on the canonical chain, in chain order.

    Failed calls consume their slot in the block (as on a real chain) but
    leave the state untouched; they are counted, not raised. The final state
    is a pure function of the canonical transaction sequence.
    """
    state = ReplayedState()
    for block in chain:
        for tx in block.transactions:
            call = tx.payload
            if not isinstance(call, ContractCall):
                continue
            try:
                apply_call(state, tx.sender, call)
                state.applied_calls += 1
            except ContractError:
                state.failed_calls += 1
                state.failures_by_sender[tx.sender] = (
                    state.failures_by_sender.get(tx.sender, 0) + 1
                )
    return state


def dump_state(state: ContractState) -> str:
    """Line-oriented state dump for conformance checks.

    Format (one item per line):
        owner <hex-address-or-dash>
        records <total_of_reco>
        trusted <hex-address>          (one line per account, sorted)
        reco <index> <sha256 hex of id/time/value joined with 0x1f>
    """
    lines = [
        f"owner {state.init_addr.hex() if state.init_addr else '-'}",
        f"records {state.total_of_reco}",
    ]
    for addr in sorted(state.trusted_acc, key=lambda a: a.value):
        if state.trusted_acc[addr]:
            lines.append(f"trusted {addr.hex()}")
    for idx in range(1, state.total_of_reco + 1):
        r = state.reco[idx]
        digest = hashlib.sha256(b"\x1f".join((r.id, r.time, r.value))).hexdigest()
        lines.append(f"reco {idx} {digest}")
    return "\n".join(lines) + "\n"
