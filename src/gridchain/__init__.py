"""Private proof-of-work chain simulator with a tunable difficulty threshold,
an owner-managed encrypted record registry, and a smart-meter data pipeline."""

from .chain import (
    Address,
    Block,
    BlockHeader,
    BlockTree,
    Transaction,
    make_block,
    make_genesis,
)
from .consensus import (
    DifficultyParams,
    DifficultyTrace,
    compute_difficulty,
    eligible_uncles,
    fork_choice_head,
    validate_header,
    validate_uncle,
)
from .contract import ContractCall, ContractState, Reco, RecoEvent, replay_chain
from .meter import (
    EncryptedRecord,
    MeterAccount,
    MeterRecord,
    SymmetricKey,
    build_record_tx,
    decrypt_record,
    encode_record,
    encrypt_field,
    encrypt_record,
    simulate_meter_stream,
)
from .metrics import RunStats, SweepPoint, aggregate_runs, compute_run_stats
from .netsim import (
    NodeState,
    RunResult,
    SimConfig,
    Simulation,
    run_many,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "Address",
    "Block",
    "BlockHeader",
    "BlockTree",
    "Transaction",
    "make_block",
    "make_genesis",
    "DifficultyParams",
    "DifficultyTrace",
    "compute_difficulty",
    "eligible_uncles",
    "fork_choice_head",
    "validate_header",
    "validate_uncle",
    "ContractCall",
    "ContractState",
    "Reco",
    "RecoEvent",
    "replay_chain",
    "EncryptedRecord",
    "MeterAccount",
    "MeterRecord",
    "SymmetricKey",
    "build_record_tx",
    "decrypt_record",
    "encode_record",
    "encrypt_field",
    "encrypt_record",
    "simulate_meter_stream",
    "RunStats",
    "SweepPoint",
    "aggregate_runs",
    "compute_run_stats",
    "NodeState",
    "RunResult",
    "SimConfig",
    "Simulation",
    "run_many",
    "run_simulation",
    "__version__",
]
