"""The one true MPC lifecycle: :class:`SolverSession`.

Before this module existed, every one-call driver re-implemented the
same lifecycle by hand — ``solve_ruling_set`` had regime sizing,
backend/trace wiring, simulator entry/exit, collection, and metrics
assembly inline, while ``solve_matching`` carried its own (drifted) copy
that silently lacked backend, trace, and regime support.  The session
owns that lifecycle once, for every registered algorithm and problem:

1. **Regime sizing** — resolve the :class:`MPCConfig` from a named
   regime (or take the caller's explicit config), via the spec's
   ``config_factory`` when it has one.  For α > 2 the power graph
   ``G^{α-1}`` that the machines must hold is built **once** here, used
   for sizing, and handed to the program factory through the
   :class:`~repro.core.registry.RunContext` — execution does not
   rebuild it.
2. **Backend / trace wiring** — the session builds the execution
   backend once, from ``backend`` / ``num_shards`` (``"serial"`` or
   ``"shard"``, and the shard backend's shard count), and the
   :class:`~repro.mpc.trace.TraceRecorder` when ``trace`` is set, and
   hands both to the simulator; the :class:`MPCConfig` holds only the
   regime.  Every algorithm (matching included) gets execution backends
   and the superstep trace for free.
3. **Simulator lifecycle** — the simulator is always entered as a
   context manager: a solve that raises still releases backend
   resources such as shard spill directories (the contract
   ``tests/core/test_pipeline.py`` pins).
4. **Execution** — the spec's ``program_factory`` builds the phase
   program, run by :func:`~repro.core.program.run_program` (the only
   MPC dispatch).
5. **Collection & assembly** — members are collected from the
   distributed graph under one key, and :meth:`SolverSession.run`
   returns the problem's result type
   (:class:`~repro.core.spec.RulingSetResult` with the spec's claimed
   α / β, or :class:`~repro.core.spec.MatchingResult`), its
   :class:`~repro.core.spec.RunResult` tail (rounds / metrics / phase
   attribution / wall-clock / trace) filled from the simulator.

The input is a *source*: an in-memory :class:`Graph`, or an
:class:`EdgeListSource` naming an edge-list file.  Stream mode differs
only in how the input reaches the machines — sized from a pass-1 scan,
sharded by a pass-2 ingest, run on the out-of-core shard backend with
the session's ``num_shards`` — and
adds ``ingest_*`` / ``shard_*`` metrics; members and model metrics are
bit-identical to an in-memory run under the same ``ModOwnerMap``.

``local`` / ``sequential`` algorithms never touch the simulator: the
session runs their runner directly and returns an empty MPC tail (0
rounds; LOCAL round counts travel in ``metrics["local_rounds"]``).
An empty input returns an empty result the same way, for every
algorithm, so the drivers validate their parameters first.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.core.program import run_program
from repro.core.registry import (
    AlgorithmSpec,
    LOCAL_FAMILY,
    MATCHING,
    MPC_FAMILY,
    RULING_SET,
    RunContext,
)
from repro.core.spec import MatchingResult, RulingSetResult, RunResult
from repro.errors import AlgorithmError, MPCConfigError
from repro.graph.graph import Graph
from repro.mpc.backends import SerialBackend, resolve_backend
from repro.mpc.config import MPCConfig
from repro.mpc.graph_store import DistributedGraph
from repro.mpc.simulator import Simulator
from repro.mpc.trace import TraceRecorder


def make_config_from_stats(
    num_vertices: int,
    num_edges: int,
    max_degree: int,
    regime: str = "sublinear",
    alpha: Tuple[int, int] = (2, 3),
) -> MPCConfig:
    """Build the :class:`MPCConfig` for a named regime from counts alone.

    Sizing needs only ``(n, m, Δ)``, never the adjacency itself — which
    is what lets a session in stream mode (:class:`EdgeListSource`) size
    a run from a pass-1 file scan without materializing the graph.
    ``regime`` is ``"sublinear"`` (``S ≈ n^alpha``), ``"near-linear"``,
    or ``"single"``.
    """
    if regime == "sublinear":
        return MPCConfig.sublinear(
            num_vertices, num_edges, alpha[0], alpha[1], max_degree=max_degree
        )
    if regime == "near-linear":
        return MPCConfig.near_linear(
            num_vertices, num_edges, max_degree=max_degree
        )
    if regime == "single":
        return MPCConfig.single_machine(num_vertices, num_edges)
    raise AlgorithmError(f"unknown regime {regime!r}")


def make_config(
    graph, regime: str = "sublinear", alpha: Tuple[int, int] = (2, 3)
) -> MPCConfig:
    """Build the :class:`MPCConfig` for a named regime.

    ``graph`` is an in-memory :class:`Graph` or a streamed file's pass-1
    :class:`~repro.graph.stream.EdgeListStats`; either way only its
    ``(n, m, Δ)`` reaches :func:`make_config_from_stats`.  Pass an
    explicit :class:`MPCConfig` to the session (or to
    :func:`repro.core.pipeline.solve_ruling_set`) for anything else.
    """
    if isinstance(graph, Graph):
        counts = (graph.num_vertices, graph.num_edges, graph.max_degree())
    else:
        counts = (graph.num_vertices, graph.declared_edges, graph.max_degree)
    return make_config_from_stats(*counts, regime, alpha)


@dataclass(frozen=True)
class EdgeListSource:
    """An edge-list file to solve out of core: the session's stream mode.

    A session over this source never materializes the graph.  Pass 1
    (:func:`~repro.graph.stream.scan_edge_list_stats`) yields the
    ``(n, m, Δ)`` that size the regime; pass 2
    (:func:`~repro.graph.stream.shard_edge_list`) shards the edges per
    machine under a :class:`~repro.mpc.ownermap.ModOwnerMap`, and the
    run executes on the :class:`~repro.mpc.shard.ShardBackend`.
    ``spill_dir`` roots that backend's spill files and the ingest
    shards; the shard count is the session's ``num_shards``.
    """

    path: object
    spill_dir: Optional[str] = None


class SolverSession:
    """One solver run, lifecycle included, for any registered algorithm.

    Construct with the input, the :class:`AlgorithmSpec`, and the run
    parameters, then call :meth:`run`.  The input is an in-memory
    :class:`Graph` or, for MPC algorithms at α = 2, an
    :class:`EdgeListSource` (out-of-core stream mode).  The session is
    single-use.

    ``backend`` is ``"serial"`` (the default, ``None``) or ``"shard"``,
    and ``num_shards`` is the shard backend's shard count (0 = its
    default; negative is refused on every backend).  Stream mode always
    runs on a :class:`~repro.mpc.shard.ShardBackend` with ``num_shards``
    shards under the source's ``spill_dir``, and refuses any other
    ``backend`` with :class:`~repro.errors.MPCConfigError`.  ``trace`` records the
    superstep trace onto the result's ``trace``.  The
    :class:`MPCConfig` carries none of these three.
    """

    def __init__(
        self,
        source: Union[Graph, EdgeListSource],
        spec: AlgorithmSpec,
        *,
        beta: int = 2,
        alpha: int = 2,
        regime: str = "sublinear",
        alpha_mem: Tuple[int, int] = (2, 3),
        config: Optional[MPCConfig] = None,
        seed: int = 0,
        backend: Optional[str] = None,
        num_shards: int = 0,
        kernel: Optional[str] = None,
        trace: bool = False,
    ) -> None:
        self.spec = spec
        self.beta = beta
        self.alpha = alpha
        self.regime = regime
        self.alpha_mem = tuple(alpha_mem)
        self.explicit_config = config
        self.seed = seed
        self.backend = backend
        self.num_shards = num_shards
        self.kernel = kernel
        self.trace = trace
        if isinstance(source, EdgeListSource):
            if backend not in (None, "shard"):
                raise MPCConfigError(
                    f"stream mode runs on the shard backend; backend "
                    f"{backend!r} cannot apply (pass None or 'shard')"
                )
            # Resolved at call time, like the pass-2 ingest below, so
            # wrappers installed on the stream module see both passes.
            from repro.graph.stream import scan_edge_list_stats

            self.graph: Optional[Graph] = None
            self.stream: Optional[EdgeListSource] = source
            self.stream_stats = scan_edge_list_stats(source.path)
            self.num_vertices = self.stream_stats.num_vertices
        else:
            self.graph = source
            self.stream = None
            self.stream_stats = None
            self.num_vertices = source.num_vertices
        # The α > 2 power graph, built exactly once per session: it
        # sizes the regime AND is handed to the program for execution.
        self._power: Optional[Graph] = None
        if self.graph is not None and spec.family == MPC_FAMILY and alpha > 2:
            from repro.graph.ops import power_graph

            self._power = power_graph(self.graph, alpha - 1)

    # -- regime sizing ---------------------------------------------------

    @property
    def sizing_graph(self) -> Optional[Graph]:
        """The graph the machines must hold (``G^{α-1}`` when α > 2).

        ``None`` in stream mode, which sizes from the pass-1 counts.
        """
        return self._power if self._power is not None else self.graph

    def power_adjacency(self) -> Optional[Dict[int, Tuple[int, ...]]]:
        """``G^{α-1}`` adjacency from the session's single build."""
        if self._power is None:
            return None
        return {
            v: tuple(self._power.neighbors(v))
            for v in self._power.vertices()
        }

    def base_config(self) -> MPCConfig:
        """The regime config before the kernel override.

        The spec's ``config_factory`` (when present) owns
        problem-specific sizing (e.g. the matching line-graph
        footprint); otherwise :func:`make_config` sizes the graph the
        machines must hold, or the stream's pass-1 counts.
        """
        if self.spec.config_factory is not None:
            return self.spec.config_factory(
                self.sizing_graph, self.regime, self.alpha_mem
            )
        sized = self.sizing_graph if self.stream is None else self.stream_stats
        return make_config(sized, self.regime, self.alpha_mem)

    def resolve_config(self) -> MPCConfig:
        """The fully wired :class:`MPCConfig` for this run.

        Explicit config wins over the named regime; the kernel
        override is applied here so every MPC algorithm shares it.
        """
        if self.explicit_config is not None:
            cfg = self.explicit_config
        else:
            cfg = self.base_config()
        if self.kernel is not None:
            cfg = cfg.with_kernel(self.kernel)
        if self.stream is None:
            sized = self.sizing_graph
            counts = (sized.num_vertices, sized.num_edges)
        else:
            counts = (self.num_vertices, self.stream_stats.declared_edges)
        cfg.validate_input_size(MPCConfig.input_words(*counts))
        return cfg

    # -- execution -------------------------------------------------------

    def run(self) -> RunResult:
        """Execute the algorithm and return the problem's result.

        An empty input yields an empty result (no members, 0 rounds)
        without sizing a regime or touching the simulator.
        """
        if self.num_vertices == 0:
            return self._result([], [])
        if self.spec.family != MPC_FAMILY:
            return self._run_direct()
        return self._run_mpc()

    def _result(
        self,
        members: Optional[List[int]],
        matching: Optional[List[Tuple[int, int]]],
        **tail: object,
    ) -> RunResult:
        """The spec's result type: its problem fields, then the run tail."""
        spec = self.spec
        if spec.problem == MATCHING:
            return MatchingResult(matching, spec.name, **tail)
        # The LOCAL baselines only ever claim plain independence.
        alpha = 2 if spec.family == LOCAL_FAMILY else self.alpha
        beta = spec.claimed_beta(self.graph, self.alpha, self.beta)
        return RulingSetResult(members, alpha, beta, spec.name, **tail)

    def _context(self) -> RunContext:
        return RunContext(
            graph=self.graph, alpha=self.alpha, beta=self.beta,
            seed=self.seed, power_adjacency=self.power_adjacency(),
        )

    def _run_direct(self) -> RunResult:
        """LOCAL / sequential run: no simulator, 0 MPC rounds."""
        payload = self.spec.runner(self._context())
        metrics: Dict[str, object] = {}
        if self.spec.family == LOCAL_FAMILY:
            metrics["local_rounds"] = payload.local_rounds
        metrics.update(payload.extra_metrics)
        return self._result(payload.members, payload.matching, metrics=metrics)
    @contextmanager
    def _loaded(
        self, cfg: MPCConfig
    ) -> Iterator[Tuple[Simulator, DistributedGraph, Dict[str, object]]]:
        """Enter the simulator with the input loaded onto the machines.

        Yields ``(sim, dg, source_metrics)``; stream mode fills
        ``source_metrics`` with its ingest and shard-residency stats
        once the run body completes.  The simulator is a context
        manager, not a trailing ``shutdown()`` call: a solve that raises
        (e.g. ``MPCViolationError``) must still release the backend's
        resources, or every failed shard run leaks its spill directory.
        """
        trace = TraceRecorder(cfg) if self.trace else None
        if self.stream is None:
            backend = resolve_backend(
                self.backend or SerialBackend.name, self.num_shards
            )
            with Simulator(cfg, backend, trace) as sim:
                yield sim, DistributedGraph.load(sim, self.graph), {}
            return
        from repro.graph.stream import shard_edge_list
        from repro.mpc.ownermap import ModOwnerMap
        from repro.mpc.shard import ShardBackend

        spill_dir = self.stream.spill_dir
        backend = ShardBackend(self.num_shards, spill_dir)
        owner_map = ModOwnerMap(self.num_vertices, cfg.num_machines)
        with shard_edge_list(
            self.stream.path, owner_map, spill_dir=spill_dir
        ) as sharded:
            with Simulator(cfg, backend, trace) as sim:
                source_metrics: Dict[str, object] = {}
                yield (
                    sim, DistributedGraph.load_sharded(sim, sharded),
                    source_metrics,
                )
                # Trailing local steps replay (while the ingest shards
                # still exist) before metrics and counters are read.
                sim.settle()
                source_metrics["ingest_edges"] = sharded.num_edges
                source_metrics["ingest_max_degree"] = sharded.max_degree
                source_metrics["ingest_checksum"] = sharded.checksum
                source_metrics.update(
                    {
                        f"shard_{key}": value
                        for key, value in backend.stats().items()
                    }
                )

    def _run_mpc(self) -> RunResult:
        cfg = self.resolve_config()
        with self._loaded(cfg) as (sim, dg, source_metrics):
            ctx = self._context()
            pctx = run_program(dg, self.spec.program_factory(ctx))
            members = pctx.members
            if members is None and self.spec.problem == RULING_SET:
                members = dg.collect_marked(ctx.in_set_key)
        metrics: Dict[str, object] = dict(sim.metrics.summary())
        metrics.update(
            {f"alg_{key}": value for key, value in pctx.counters.items()}
        )
        metrics["num_machines"] = cfg.num_machines
        metrics["memory_words"] = cfg.memory_words
        metrics.update(source_metrics)
        if self._power is not None:
            # Price the α > 2 densification without rebuilding G^{α-1}
            # downstream (E9 reads this instead of its own power_graph).
            metrics["power_edges"] = self._power.num_edges
        metrics.update(pctx.extra_metrics)
        return self._result(
            members,
            pctx.matching,
            rounds=sim.metrics.rounds,
            metrics=metrics,
            phase_rounds=sim.metrics.phase_rounds(),
            wall_time_s=round(sim.metrics.wall_time_s, 6),
            time_per_phase={
                phase: round(seconds, 6)
                for phase, seconds in sim.metrics.time_per_phase.items()
            },
            trace=sim.trace,
        )
