"""Per-layer timing of gridchain, taken from outside the package.

``Tracer.install`` replaces the public functions and methods of each layer
with timing wrappers, at the place where their callers look them up (a name
imported into another module is wrapped there too, e.g. ``compute_difficulty``
in both ``gridchain.netsim`` and ``gridchain.consensus``). ``uninstall`` puts
the originals back, so untraced rounds run the unmodified code.

Every wrapper records calls, total host seconds and self seconds (its
duration minus the time covered by wrapped callees). A few wrappers also
count outcomes, for the ratios of useful work to attempts.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import gridchain.chain as chain
import gridchain.cli as cli
import gridchain.consensus as consensus
import gridchain.netsim as netsim

_clock = time.perf_counter


def _reorg_depth(args) -> int:
    """Blocks the node abandons when ``_reorg(node, new_head, ...)`` runs."""
    _sim, node, new_head = args[:3]
    blocks = node.tree.blocks
    old, new = node.head_block, new_head
    depth = 0
    while old.number > new.number:
        old = blocks[old.header.parent_id]
        depth += 1
    while new.number > old.number:
        new = blocks[new.header.parent_id]
    while old.block_id != new.block_id:
        old = blocks[old.header.parent_id]
        new = blocks[new.header.parent_id]
        depth += 1
    return depth


def _observe_fill(tracer, args, result, _pre):
    tracer.counts["netsim.pool.fill.tx"] += len(result[0])


def _observe_uncles(tracer, args, result, _pre):
    tracer.counts["consensus.uncles.found"] += len(result)


def _observe_validate_uncle(tracer, args, result, _pre):
    tracer.counts["consensus.validate_uncle.valid"] += bool(result)


def _observe_reorg(tracer, args, result, depth):
    key = "netsim.reorg.depth_max"
    tracer.counts[key] = max(tracer.counts[key], depth)


def _observe_schedule(tracer, args, result, epoch_before):
    # A mining draw happened iff the node's epoch moved; calls after the
    # end of the run return without drawing.
    tracer.counts["netsim.schedule.draws"] += args[1].epoch != epoch_before


def _observe_replay(tracer, args, result, _pre):
    # Counted from the chain after the call, not by wrapping TxTable.tx.
    tracer.counts["contract.replay.tx_scanned"] += sum(len(b.tx_ids) for b in args[0])
    tracer.counts["contract.replay.calls_applied"] += result.applied_calls


# (owner, attribute, span name, pre-call probe, post-call observer)
SITES = [
    (netsim, "build_tx_table", "netsim.arrivals", None, None),
    (netsim.NodeState, "catch_up", "netsim.pool.catch_up", None, None),
    (netsim.NodeState, "fill", "netsim.pool.fill", None, _observe_fill),
    (netsim.Simulation, "on_block_mined", "netsim.mine", None, None),
    (netsim.Simulation, "on_block_received", "netsim.receive", None, None),
    (netsim.Simulation, "_reorg", "netsim.reorg", _reorg_depth, _observe_reorg),
    (netsim.Simulation, "_schedule_mining", "netsim.schedule",
     lambda args: args[1].epoch, _observe_schedule),
    (netsim.Simulation, "run", "netsim.events", None, None),
    (netsim.Simulation, "_settle", "netsim.settle", None, None),
    (netsim, "compute_difficulty", "consensus.difficulty", None, None),
    (consensus, "compute_difficulty", "consensus.difficulty", None, None),
    (netsim, "eligible_uncles", "consensus.uncles", None, _observe_uncles),
    (consensus, "validate_uncle", "consensus.validate_uncle", None, _observe_validate_uncle),
    (netsim, "validate_header", "consensus.validate_header", None, None),
    (netsim, "fork_choice_head", "consensus.fork_choice", None, None),
    (chain.BlockTree, "insert_block", "chain.insert", None, None),
    (chain.BlockTree, "ancestors", "chain.ancestors", None, None),
    (chain.BlockTree, "canonical_chain", "chain.canonical_chain", None, None),
    (netsim, "header_digest", "chain.digest", None, None),
    (chain, "header_digest", "chain.digest", None, None),
    (netsim, "compute_run_stats", "metrics.run_stats", None, None),
    (cli, "encrypt_record", "meter.encrypt", None, None),
    (cli, "decrypt_record", "meter.decrypt", None, None),
    (cli, "simulate_meter_stream", "meter.stream", None, None),
    (cli, "build_record_tx", "meter.stream", None, None),
    (cli, "replay_chain", "contract.replay", None, _observe_replay),
    (cli, "run_e2e_demo", "cli.demo", None, None),
]

# name -> (unit, better); the order is the order of the report.
PER_LAYER = {
    "netsim.arrivals.s": ("s", "lower"),
    "netsim.arrivals.calls": ("count", "lower"),
    "netsim.pool.catch_up.s": ("s", "lower"),
    "netsim.pool.catch_up.calls": ("count", "lower"),
    "netsim.pool.fill.s": ("s", "lower"),
    "netsim.pool.fill.calls": ("count", "lower"),
    "netsim.pool.fill.tx": ("tx", "higher"),
    "netsim.mine.s": ("s", "lower"),
    "netsim.mine.calls": ("count", "lower"),
    "netsim.mine.self_s": ("s", "lower"),
    "netsim.receive.s": ("s", "lower"),
    "netsim.receive.calls": ("count", "lower"),
    "netsim.reorg.s": ("s", "lower"),
    "netsim.reorg.calls": ("count", "lower"),
    "netsim.reorg.depth_max": ("blocks", "lower"),
    "netsim.schedule.calls": ("count", "lower"),
    "netsim.schedule.useful_ratio": ("ratio", "higher"),
    "netsim.events.self_s": ("s", "lower"),
    "netsim.settle.s": ("s", "lower"),
    "consensus.difficulty.s": ("s", "lower"),
    "consensus.difficulty.calls": ("count", "lower"),
    "consensus.difficulty.per_block": ("calls/block", "lower"),
    "consensus.uncles.s": ("s", "lower"),
    "consensus.uncles.calls": ("count", "lower"),
    "consensus.uncles.found": ("count", "higher"),
    "consensus.validate_uncle.s": ("s", "lower"),
    "consensus.validate_uncle.calls": ("count", "lower"),
    "consensus.validate_uncle.valid_ratio": ("ratio", "higher"),
    "consensus.validate_header.s": ("s", "lower"),
    "consensus.validate_header.calls": ("count", "lower"),
    "consensus.fork_choice.s": ("s", "lower"),
    "consensus.fork_choice.calls": ("count", "lower"),
    "chain.insert.s": ("s", "lower"),
    "chain.insert.calls": ("count", "lower"),
    "chain.ancestors.s": ("s", "lower"),
    "chain.ancestors.calls": ("count", "lower"),
    "chain.digest.s": ("s", "lower"),
    "chain.digest.calls": ("count", "lower"),
    "chain.canonical_chain.s": ("s", "lower"),
    "chain.canonical_chain.calls": ("count", "lower"),
    "metrics.run_stats.s": ("s", "lower"),
    "metrics.run_stats.calls": ("count", "lower"),
    "metrics.aggregate.s": ("s", "lower"),
    "meter.encrypt.s": ("s", "lower"),
    "meter.encrypt.calls": ("count", "lower"),
    "meter.decrypt.s": ("s", "lower"),
    "meter.decrypt.calls": ("count", "lower"),
    "meter.stream.s": ("s", "lower"),
    "contract.replay.s": ("s", "lower"),
    "contract.replay.calls": ("count", "lower"),
    "contract.replay.tx_scanned": ("tx", "lower"),
    "contract.replay.calls_applied": ("count", "higher"),
    "cli.demo.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Wraps the layers while installed and accumulates their figures."""

    def __init__(self) -> None:
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        # One accumulator of wrapped-callee time per open span; the bottom
        # entry collects time of top-level spans and is never read.
        self._stack: list[float] = [0.0]
        self._originals: list[tuple[object, str, object]] = []

    def _close(self, name: str, t0: float) -> None:
        elapsed = _clock() - t0
        child = self._stack.pop()
        self._stack[-1] += elapsed
        self.seconds[name] += elapsed
        self.self_seconds[name] += elapsed - child
        self.counts[name + ".calls"] += 1

    def _wrap(self, fn, name, pre, observe):
        def wrapper(*args, **kwargs):
            before = pre(args) if pre is not None else None
            self._stack.append(0.0)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, t0)
            if observe is not None:
                observe(self, args, result, before)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, pre, observe in SITES:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, pre, observe))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as a layer span."""
        self._stack.append(0.0)
        t0 = _clock()
        try:
            yield
        finally:
            self._close(name, t0)

    def report(self, rounds: int, overhead_s: float, speed: float) -> dict[str, float]:
        """Per-layer figures per round (one pass of the workload's body);
        ratios, the maximum reorg depth and the overhead are not summed.
        Seconds are multiplied by ``speed``, the ratio of the nominal to the
        measured host speed, as the end-to-end times are."""
        s, own, c = self.seconds, self.self_seconds, self.counts
        mined = c["netsim.mine.calls"]
        fixed = {
            "netsim.schedule.useful_ratio": _ratio(mined, c["netsim.schedule.draws"]),
            "netsim.reorg.depth_max": float(c["netsim.reorg.depth_max"]),
            "consensus.difficulty.per_block": _ratio(c["consensus.difficulty.calls"], mined),
            "consensus.validate_uncle.valid_ratio": _ratio(
                c["consensus.validate_uncle.valid"], c["consensus.validate_uncle.calls"]
            ),
            "trace.overhead_s": overhead_s,
        }
        out = {}
        for name in PER_LAYER:
            if name in fixed:
                out[name] = fixed[name]
            elif name.endswith(".self_s"):
                out[name] = own[name[: -len(".self_s")]] * speed / rounds
            elif name.endswith(".s"):
                out[name] = s[name[: -len(".s")]] * speed / rounds
            else:
                out[name] = c[name] / rounds
        return out
