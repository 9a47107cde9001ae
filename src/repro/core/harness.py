"""Fuzzing verifier harness: every registered solver × hostile graphs.

The harness closes the loop the unit tests cannot: unit tests pin each
algorithm on the graphs its author thought of, while the harness replays
*every* registry solver (:func:`repro.core.registry.algorithm_specs` —
never a hand-maintained name list, so new algorithms are covered the day
they are registered) over the adversarial families in
:func:`repro.graph.generators.hostile_suite`, and checks every output
against the **independent** sequential validators in
:mod:`repro.core.verify` — never against another distributed solver.

Three checks per (graph, algorithm) cell:

1. **Validity** — ruling-set outputs must pass
   :func:`~repro.core.verify.verify_ruling_set` at the radius the spec
   *claims* (``spec.claimed_beta``); matchings must pass
   :func:`~repro.core.verify.verify_maximal_matching`.
2. **Determinism and backend parity** — replays with identical
   parameters must return bit-identical members/matching, rounds and
   ``metrics`` (every solver here is deterministic given its seed;
   seedless solvers must not vary at all).  An MPC-family cell replays
   once on every backend in :data:`~repro.mpc.backends.BACKENDS` (the
   serial replay is the determinism check); other cells replay once.
   Each run sizes its regime and builds its session from scratch, so
   no replay shares state with the first run.
3. **No faults** — any :class:`~repro.errors.ReproError` escaping the
   solve is recorded as a failure cell rather than aborting the sweep,
   so one bad cell cannot mask others.

The harness is the CI ``fuzz-verify`` job's engine (``repro fuzz`` in
the CLI).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core import registry
from repro.core.det_matching import solve_matching
from repro.core.pipeline import solve_ruling_set
from repro.core.verify import verify_maximal_matching, verify_ruling_set
from repro.errors import ReproError
from repro.graph.generators import hostile_suite
from repro.graph.graph import Graph
from repro.mpc.backends import BACKENDS

#: Cell outcomes.
OK = "ok"
FAIL = "fail"


@dataclass(frozen=True)
class FuzzCell:
    """One (graph, algorithm, seed) trial and its outcome.

    ``detail`` carries the failing check's message verbatim (the
    validator's reason, the fault's error text, or the determinism
    mismatch) — empty for passing cells.
    """

    graph_name: str
    algorithm: str
    problem: str
    seed: int
    status: str
    detail: str = ""
    output_size: int = 0
    rounds: int = 0


@dataclass
class FuzzReport:
    """Structured outcome of one :func:`fuzz_verify` sweep."""

    cells: List[FuzzCell] = field(default_factory=list)

    @property
    def failures(self) -> List[FuzzCell]:
        """Cells whose check failed, in sweep order."""
        return [cell for cell in self.cells if cell.status != OK]

    @property
    def ok(self) -> bool:
        """Whether every cell passed (an empty sweep is vacuously ok)."""
        return not self.failures

    def format(self) -> str:
        """Human-readable summary: one line per failure, then a tally."""
        lines = []
        for cell in self.failures:
            lines.append(
                f"FAIL {cell.graph_name} × {cell.algorithm} "
                f"(seed={cell.seed}): {cell.detail}"
            )
        lines.append(
            f"fuzz-verify: {len(self.cells)} cells, "
            f"{len(self.failures)} failures"
        )
        return "\n".join(lines)


def _check_cell(
    graph: Graph, spec: "registry.AlgorithmSpec", seed: int
) -> Tuple[str, str, int, int]:
    """Run one cell and its replays; return (status, detail, size, rounds)."""
    if spec.problem == registry.MATCHING:
        output = "matching"

        def solve(backend: Optional[str]):
            return solve_matching(
                graph, algorithm=spec.name, seed=seed, verify=False,
                backend=backend,
            )

        result = solve(None)
        verify_maximal_matching(graph, result.matching)
    else:
        output = "members"
        alpha, beta = 2, 2

        def solve(backend: Optional[str]):
            return solve_ruling_set(
                graph, algorithm=spec.name, alpha=alpha, beta=beta,
                seed=seed, verify=False, backend=backend,
            )

        result = solve(None)
        claimed = (
            spec.claimed_beta(graph, alpha, beta)
            if spec.claimed_beta is not None else beta
        )
        verify_ruling_set(graph, result.members, alpha=alpha, beta=claimed)
    backends = (
        sorted(BACKENDS) if spec.family == registry.MPC_FAMILY else [None]
    )
    for backend in backends:
        replay = solve(backend)
        differ = [
            name
            for name in (output, "rounds", "metrics")
            if getattr(replay, name) != getattr(result, name)
        ]
        if differ:
            where = "replay" if backend is None else f"{backend} replay"
            return (
                FAIL,
                f"nondeterministic: {where} differs in "
                f"{', '.join(differ)} ({replay.size} / {replay.rounds} "
                f"rounds vs {result.size} / {result.rounds})",
                result.size,
                result.rounds,
            )
    return OK, "", result.size, result.rounds


def fuzz_verify(
    scale: int = 1,
    seed: int = 0,
    solver_seeds: Sequence[int] = (0,),
    families: Optional[Iterable[str]] = None,
    algorithms: Optional[Iterable[str]] = None,
    graphs: Optional[Sequence[Tuple[str, Graph]]] = None,
) -> FuzzReport:
    """Sweep hostile graphs × registered solvers against the validators.

    Parameters
    ----------
    scale / seed:
        Forwarded to :func:`~repro.graph.generators.hostile_suite`
        (ignored when ``graphs`` supplies the suite explicitly).
    solver_seeds:
        Seeds tried per cell.  Seedless algorithms run only the first
        seed (their output is seed-independent by contract — pinned
        elsewhere — so extra seeds would only re-measure the same run).
    families / algorithms:
        Optional filters over the registry sweep (family names,
        canonical algorithm names).  ``None`` = all.
    graphs:
        Explicit ``(name, graph)`` cells to sweep instead of the
        hostile suite — the unit tests' hook for planted-failure cases.

    Returns a :class:`FuzzReport`; the sweep never raises on a failing
    cell — faults are captured as ``FAIL`` cells with the error text.
    """
    family_filter = set(families) if families is not None else None
    name_filter = set(algorithms) if algorithms is not None else None
    suite = (
        list(graphs) if graphs is not None
        else hostile_suite(scale=scale, seed=seed)
    )
    specs = [
        spec
        for spec in registry.algorithm_specs()
        if (family_filter is None or spec.family in family_filter)
        and (name_filter is None or spec.name in name_filter)
    ]
    report = FuzzReport()
    for graph_name, graph in suite:
        for spec in specs:
            seeds = tuple(solver_seeds) if spec.uses_seed else (
                tuple(solver_seeds)[:1] or (0,)
            )
            for solver_seed in seeds:
                try:
                    status, detail, size, rounds = _check_cell(
                        graph, spec, solver_seed
                    )
                except ReproError as exc:
                    status, detail, size, rounds = (
                        FAIL, f"{type(exc).__name__}: {exc}", 0, 0
                    )
                report.cells.append(FuzzCell(
                    graph_name=graph_name,
                    algorithm=spec.name,
                    problem=spec.problem,
                    seed=solver_seed,
                    status=status,
                    detail=detail,
                    output_size=size,
                    rounds=rounds,
                ))
    return report
