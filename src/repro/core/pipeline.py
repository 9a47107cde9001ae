"""One-call drivers: graph in, verified ruling set + metrics out.

:func:`solve_ruling_set` is validate → session → verify: it looks the
requested algorithm up with :func:`repro.core.registry.solver_spec`,
checks its parameters, runs a :class:`repro.core.session.SolverSession`
(which owns the whole MPC lifecycle — regime sizing, backend/trace
wiring, simulator entry/exit, collection, and the result itself), and
verifies the output against the sequential ground truth.  This is the
function the examples and benchmarks call; using it guarantees that
every number a benchmark reports comes from a budget-enforced, verified
run.
:func:`solve_ruling_set_stream` is the same call with an edge-list file
as the session's source.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core import registry
from repro.core.registry import MPC_FAMILY, RULING_SET
from repro.core.session import (
    EdgeListSource,
    SolverSession,
    make_config,
    make_config_from_stats,
)
from repro.core.spec import RulingSetResult
from repro.core.verify import verify_ruling_set
from repro.errors import AlgorithmError
from repro.graph.graph import Graph
from repro.mpc.config import MPCConfig

__all__ = [
    "make_config",
    "make_config_from_stats",
    "verify_ruling_set",
    "solve_ruling_set",
    "solve_ruling_set_stream",
]

def solve_ruling_set(
    graph: Graph,
    algorithm: Optional[str] = None,
    beta: int = 2,
    alpha: int = 2,
    regime: str = "sublinear",
    alpha_mem: Tuple[int, int] = (2, 3),
    config: Optional[MPCConfig] = None,
    seed: int = 0,
    verify: bool = True,
    backend: Optional[str] = None,
    num_shards: int = 0,
    kernel: Optional[str] = None,
    trace: bool = False,
) -> RulingSetResult:
    """Compute and verify a ruling set of ``graph``.

    Parameters
    ----------
    algorithm:
        Any registered ruling-set algorithm name (defaults to the
        paper's headline, :data:`repro.core.registry.DET_RULING`); ask
        :func:`repro.core.registry.algorithm_names` for the list, or
        pass a wrong name — the error enumerates the registry.
    beta:
        Domination radius for the ruling-set algorithms (≥ 2).
    alpha:
        Independence radius (default 2 = plain independence).  ``alpha
        > 2`` is supported exactly by the algorithms whose registry spec
        sets ``supports_alpha_gt2`` (power-graph reduction for the MPC
        engines — the claimed domination becomes ``beta * (alpha - 1)``
        — native for the greedy oracle, claimed ``alpha - 1``).
    regime / alpha_mem / config:
        MPC regime selection for the MPC algorithms; ``config`` overrides
        the named regime.
    seed:
        PRG seed for the randomized algorithms (``uses_seed`` in the
        registry; the deterministic ones ignore it, pinned by test).
    verify:
        Check the output against the sequential oracle (recommended; all
        benchmarks keep it on).
    backend / num_shards:
        Superstep execution backend override (``"serial"`` or
        ``"shard"``; see :mod:`repro.mpc.backends`) and, for the shard
        backend, its shard count (0 = default).  Execution strategy
        only: every backend produces bit-identical members, rounds, and
        communication metrics.
    kernel:
        Seed-search scoring kernel override (``"python"`` reference or
        ``"numpy"`` batched arrays; see :mod:`repro.mpc.state_layout`).
        ``None`` defers to ``REPRO_KERNEL``, then the reference kernel.
        Like ``backend``, execution strategy only — both kernels are
        bit-identical by contract.
    trace:
        Enable the structured superstep trace (MPC algorithms only;
        ignored by the sequential/LOCAL baselines, which never touch
        the simulator).  The recorder lands on ``result.trace`` with
        JSONL / Chrome-trace export and budget-headroom warnings at
        90% of ``S``.  Pure observer: traced runs are bit-identical to
        untraced ones.

    Each call builds a fresh :class:`~repro.core.session.SolverSession`:
    sizing and the α > 2 power graph are derived from ``graph`` every
    time, never reused from an earlier solve.

    Returns a :class:`RulingSetResult` whose ``rounds`` / ``metrics``
    reflect the enforced MPC execution (0 rounds for sequential/LOCAL
    algorithms, whose round counts appear under ``metrics``).
    """
    if algorithm is None:
        algorithm = registry.DET_RULING
    if alpha < 2:
        raise AlgorithmError(f"alpha must be >= 2, got {alpha}")
    spec = registry.solver_spec(algorithm, RULING_SET)
    if alpha > 2 and not spec.supports_alpha_gt2:
        raise AlgorithmError(f"alpha > 2 is not supported by {algorithm!r}")

    result = SolverSession(
        graph, spec, beta=beta, alpha=alpha, regime=regime,
        alpha_mem=alpha_mem, config=config, seed=seed,
        backend=backend, num_shards=num_shards, kernel=kernel,
        trace=trace,
    ).run()
    if verify:
        verify_ruling_set(
            graph, result.members, alpha=result.alpha, beta=result.beta
        )
    return result


def solve_ruling_set_stream(
    path,
    algorithm: Optional[str] = None,
    beta: int = 2,
    regime: str = "sublinear",
    alpha_mem: Tuple[int, int] = (2, 3),
    seed: int = 0,
    verify: bool = False,
    num_shards: int = 0,
    spill_dir: Optional[str] = None,
    kernel: Optional[str] = None,
) -> RulingSetResult:
    """Solve a ruling set on an edge-list *file*, out-of-core end to end.

    Runs a :class:`~repro.core.session.SolverSession` in stream mode
    (:class:`~repro.core.session.EdgeListSource`): a pass-1 scan sizes
    the regime from ``(n, m, Δ)`` alone, pass-2 ingest shards the edges
    per machine while reading, and the run executes on the
    :class:`~repro.mpc.shard.ShardBackend`, so *no process ever holds
    the whole graph*: peak driver memory is O(one machine shard + spool
    chunk).  Members and all model metrics are bit-identical to
    :func:`solve_ruling_set` on the materialized graph under the same
    ``ModOwnerMap`` — pinned by the ingest-parity tests.

    ``algorithm`` must be an MPC-family ruling-set algorithm (the LOCAL
    and sequential baselines need the whole graph by definition); α is
    fixed at 2 — α > 2 sizes on a driver-materialized power graph, which
    contradicts streaming.  ``verify=True`` is a debug aid that re-reads
    the file *in memory* to run the sequential oracle, deliberately
    defaulting off: it reintroduces exactly the O(n + m) footprint this
    path exists to avoid.

    ``num_shards`` (the session's shard count) / ``spill_dir`` are the
    :class:`~repro.mpc.shard.ShardBackend` knobs (its spool chunk size
    is the module constant :data:`~repro.mpc.shard.CHUNK_MESSAGES`);
    ingest stats
    (``ingest_edges``, ``ingest_max_degree``, ``ingest_checksum``) and
    the backend's residency stats (``shard_max_resident_words`` …) land
    in ``result.metrics``; ``shard_shard_loads`` / ``shard_shard_spills``
    count state-file reads and writes, and the last shard visited is
    written only when another shard loads.
    """
    if algorithm is None:
        algorithm = registry.DET_RULING
    spec = registry.solver_spec(algorithm, RULING_SET, MPC_FAMILY)
    result = SolverSession(
        EdgeListSource(path, spill_dir), spec, beta=beta, regime=regime,
        alpha_mem=alpha_mem, seed=seed, num_shards=num_shards, kernel=kernel,
    ).run()
    if verify:
        from repro.graph.io import read_edge_list

        # Debug aid only: materializes the graph, defeating O(shard).
        verify_ruling_set(
            read_edge_list(path), result.members,
            alpha=result.alpha, beta=result.beta,
        )
    return result
