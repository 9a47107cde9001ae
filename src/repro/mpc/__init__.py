"""The Massively Parallel Computation (MPC) simulator.

This package is the substitute for the cluster hardware the paper assumes:
a single-process, cycle-accurate simulator of the MPC model.

* :class:`MPCConfig` fixes the regime — ``k`` machines with ``S`` words of
  memory each (``sublinear`` ``S = n^α``, ``near-linear``, or explicit).
* :class:`Simulator` executes supersteps: a *local* step runs per-machine
  computation; a *communicate* step routes messages and advances the round
  counter.  Both enforce the model's budgets — exceeding per-machine memory
  or per-round I/O raises :class:`repro.errors.MPCViolationError` rather
  than silently continuing, so a completed run certifies model compliance.
* A message is a plain ``(dst, payload)`` pair: destination machine id
  and a flat tuple of int words, priced by its length.  The router
  (:class:`~repro.mpc.backends.Router`) is the one place it is checked.
* :class:`RunMetrics` records rounds, words, message counts, and peak
  memory — the paper's quantities — plus total and per-phase
  wall-clock so simulator performance work is measurable.
* :mod:`repro.mpc.backends` supplies pluggable superstep execution:
  :class:`SerialBackend` (in-memory, what a simulator built without a
  backend runs) and the out-of-core
  :class:`~repro.mpc.shard.ShardBackend` (one shard of machines
  resident at a time), with bit-identical results.
* :class:`TraceRecorder` (opt-in: hand one to the simulator) captures
  per-superstep, per-machine observability events — words, memory
  high-water, budget headroom vs ``S`` — with JSONL and Chrome-trace
  export plus a budget auditor that warns before the hard fault.
"""

from repro.mpc.backends import SerialBackend, SuperstepBackend, resolve_backend
from repro.mpc.config import MPCConfig
from repro.mpc.graph_store import DistributedGraph
from repro.mpc.machine import Machine, words_of
from repro.mpc.metrics import RunMetrics
from repro.mpc.simulator import Simulator
from repro.mpc.trace import TraceRecorder

__all__ = [
    "MPCConfig",
    "Machine",
    "words_of",
    "RunMetrics",
    "Simulator",
    "TraceRecorder",
    "DistributedGraph",
    "SuperstepBackend",
    "SerialBackend",
    "resolve_backend",
]
