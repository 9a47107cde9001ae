"""The algorithm registry: one :class:`AlgorithmSpec` per algorithm.

This module is the **single source of truth** for algorithm names.  Every
other layer — the one-call drivers (:mod:`repro.core.pipeline`,
:func:`repro.core.det_matching.solve_matching`), the CLI, the sweep
engine's algorithm axis, and the benchmark drivers — derives its name
lists, capability checks, and dispatch from here.  A drift-guard test
(``tests/core/test_registry_drift.py``) enforces that no module under
``src/`` or ``benchmarks/`` spells an algorithm name as a string literal;
code refers to the exported constants (:data:`DET_RULING`, …) or asks
the registry.

Adding an algorithm is a one-registration change::

    register(AlgorithmSpec(
        name="my-alg",                      # canonical CLI/sweep name
        family=MPC_FAMILY,                  # mpc | local | sequential
        problem=RULING_SET,                 # ruling-set | matching
        description="what it computes",
        program_factory=_program_my_alg,    # see dispatch contract below
        claimed_beta=lambda graph, alpha, beta: beta,
        supports_alpha_gt2=False,
        uses_seed=False,
    ))

and it appears everywhere automatically: ``solve_ruling_set`` dispatches
to it, the CLI ``--algorithm`` help lists it, sweeps validate it, and the
drift guard starts protecting its name.

Dispatch contract
-----------------
Each family has exactly one dispatch, and :func:`register` enforces it:

* ``mpc`` specs carry a ``program_factory(ctx) -> SuperstepProgram`` and
  no ``runner``.  ``ctx`` is a :class:`RunContext` with the run
  parameters plus the regime artifacts the session built once (notably
  ``ctx.power_adjacency`` for α > 2).  The session runs the program on
  the loaded distributed graph with
  :func:`~repro.core.program.run_program`; ruling-set programs mark
  members under ``ctx.in_set_key``, matching programs fill the context's
  ``matching`` slot.
* ``local`` / ``sequential`` specs carry a ``runner(ctx) -> RunPayload``
  that consumes only ``ctx.graph`` / ``ctx.alpha`` / ``ctx.beta`` /
  ``ctx.seed`` and returns members (plus LOCAL rounds) in the payload.

Factories and runners import their algorithm modules lazily so the
registry stays import-cycle-free.  The *lifecycle* (regime sizing,
backend/trace wiring, simulator entry/exit, collection, metrics
assembly) is owned by :class:`repro.core.session.SolverSession`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro.errors import AlgorithmError
from repro.util.mathx import ilog2_ceil

if TYPE_CHECKING:  # type-only: the registry imports no heavy modules
    from repro.core.program import SuperstepProgram
    from repro.graph.graph import Graph
    from repro.mpc.config import MPCConfig

# ---------------------------------------------------------------------------
# Canonical names — the ONLY place these strings are spelled in src/ or
# benchmarks/ (enforced by the drift-guard test).
# ---------------------------------------------------------------------------

DET_RULING = "det-ruling"
RAND_RULING = "rand-ruling"
DET_LUBY = "det-luby"
RAND_LUBY = "rand-luby"
GP_RULING = "gp-2ruling"
GREEDY_MIS = "greedy-mis"
GREEDY_RULING = "greedy-ruling"
LOCAL_LUBY = "local-luby"
LOCAL_BITWISE = "local-bitwise"
LOCAL_COLORING_MIS = "local-coloring-mis"
DET_MATCHING = "det-matching"
RAND_MATCHING = "rand-matching"

#: Model families an algorithm can execute in.
MPC_FAMILY = "mpc"
LOCAL_FAMILY = "local"
SEQUENTIAL_FAMILY = "sequential"
FAMILIES = (MPC_FAMILY, LOCAL_FAMILY, SEQUENTIAL_FAMILY)

#: Problem kinds the registry knows about.
RULING_SET = "ruling-set"
MATCHING = "matching"
PROBLEMS = (RULING_SET, MATCHING)


# ---------------------------------------------------------------------------
# Dispatch plumbing types
# ---------------------------------------------------------------------------


@dataclass
class RunContext:
    """Everything a factory or runner may consume, prepared by the session.

    ``graph`` is ``None`` for a streamed MPC run (the graph exists only
    as machine shards).  ``power_adjacency`` is the ``G^{α-1}``
    adjacency the session materialised **once** for α > 2 — regime
    sizing and execution share the same build instead of each
    recomputing it.
    """

    graph: Optional["Graph"]
    alpha: int = 2
    beta: int = 2
    seed: int = 0
    power_adjacency: Optional[Dict[int, Tuple[int, ...]]] = None
    in_set_key: str = "result_set"


@dataclass
class RunPayload:
    """What one run hands back to the session.

    ``members`` is left ``None`` by MPC ruling-set programs — the session
    collects marked vertices from the distributed graph itself, so every
    algorithm shares one collection path.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    members: Optional[List[int]] = None
    matching: Optional[List[Tuple[int, int]]] = None
    local_rounds: Optional[int] = None
    extra_metrics: Dict[str, object] = field(default_factory=dict)


#: ``claimed_beta(graph, alpha, beta) -> int`` — the domination radius
#: the algorithm *claims* for a run with those parameters (verification
#: measures the actual radius against this claim).
ClaimedBeta = Callable[["Graph", int, int], int]

#: ``config_factory(sizing_graph, regime, alpha_mem) -> MPCConfig`` —
#: how an MPC-family algorithm sizes its regime.  ``sizing_graph`` is
#: the graph the machines must actually hold (``G^{α-1}`` for α > 2,
#: built once by the session).
ConfigFactory = Callable[["Graph", str, Tuple[int, int]], "MPCConfig"]

#: ``program_factory(run_context) -> SuperstepProgram`` — how an
#: MPC-family algorithm builds its phase program for one run.
ProgramFactory = Callable[[RunContext], "SuperstepProgram"]

#: ``claimed_rounds(graph, alpha, beta) -> int`` — a concrete ceiling on
#: the MPC round count the algorithm *claims* for a run with those
#: parameters (tests hold the measured ``rounds`` to it, the same way
#: verification holds the measured radius to ``claimed_beta``).
ClaimedRounds = Callable[["Graph", int, int], int]


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered algorithm: identity, capabilities, and dispatch.

    Attributes
    ----------
    name:
        Canonical name (CLI ``--algorithm`` value, sweep axis entry,
        record label).
    family:
        Execution model: ``mpc`` (runs on the enforcing simulator),
        ``local`` (LOCAL-model simulator), or ``sequential`` (oracle).
    problem:
        ``ruling-set`` or ``matching``.
    description:
        One line for generated help / docs tables.
    runner:
        The ``local`` / ``sequential`` dispatch (see the module docstring
        contract); ``None`` for ``mpc`` specs.
    claimed_beta:
        Claimed domination radius as a function of the run parameters
        (``None`` for problems where β is meaningless, e.g. matching).
    supports_alpha_gt2:
        Whether the algorithm accepts an independence radius α > 2
        (via power-graph reduction or native support).
    uses_seed:
        Whether the ``seed`` parameter influences the output.  Seedless
        algorithms must produce bit-identical results for every seed
        (pinned by test).
    config_factory:
        Regime sizing for ``mpc``-family algorithms; ``None`` selects
        the session's default (:func:`repro.core.session.make_config`
        over the sizing graph).
    program_factory:
        The ``mpc`` dispatch: phase-program construction, executed by
        the session; ``None`` for ``local`` / ``sequential`` specs.
    round_complexity:
        Asymptotic MPC round complexity as a display string for the
        generated help / README table (``—`` when not meaningful, e.g.
        sequential oracles).
    claimed_rounds:
        Concrete claimed round ceiling as a function of the run
        parameters; ``None`` when the algorithm makes no such claim.
    """

    name: str
    family: str
    problem: str
    description: str
    runner: Optional[Callable[[RunContext], RunPayload]] = None
    claimed_beta: Optional[ClaimedBeta] = None
    supports_alpha_gt2: bool = False
    uses_seed: bool = False
    config_factory: Optional[ConfigFactory] = None
    program_factory: Optional[ProgramFactory] = None
    round_complexity: str = "—"
    claimed_rounds: Optional[ClaimedRounds] = None


# ---------------------------------------------------------------------------
# Registry storage and lookup
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, AlgorithmSpec] = {}


def register(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Add ``spec`` to the registry.

    Rejects bad enums, duplicates, and a dispatch that does not match
    the family: one ``program_factory`` for ``mpc``, one ``runner`` for
    ``local`` / ``sequential``.
    """
    if spec.family not in FAMILIES:
        raise AlgorithmError(
            f"unknown family {spec.family!r} for {spec.name!r}; "
            f"expected one of {FAMILIES}"
        )
    if spec.problem not in PROBLEMS:
        raise AlgorithmError(
            f"unknown problem {spec.problem!r} for {spec.name!r}; "
            f"expected one of {PROBLEMS}"
        )
    if spec.family == MPC_FAMILY:
        if spec.program_factory is None or spec.runner is not None:
            raise AlgorithmError(
                f"MPC algorithm {spec.name!r} must dispatch through a "
                "program_factory and carry no runner"
            )
    elif spec.runner is None or spec.program_factory is not None:
        raise AlgorithmError(
            f"{spec.family} algorithm {spec.name!r} must dispatch through "
            "a runner and carry no program_factory"
        )
    if spec.name in _REGISTRY:
        raise AlgorithmError(f"algorithm {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up a spec by canonical name.

    Unknown names raise :class:`AlgorithmError` enumerating the real
    registry contents, so the error is self-documenting.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise AlgorithmError(
            f"unknown algorithm {name!r}; registered algorithms: "
            + ", ".join(_REGISTRY)
        ) from None


def is_registered(name: str) -> bool:
    """Whether ``name`` is a registered algorithm."""
    return name in _REGISTRY


def algorithm_specs(
    family: Optional[str] = None, problem: Optional[str] = None
) -> Tuple[AlgorithmSpec, ...]:
    """All specs, optionally filtered, in registration order."""
    return tuple(
        spec
        for spec in _REGISTRY.values()
        if (family is None or spec.family == family)
        and (problem is None or spec.problem == problem)
    )


def algorithm_names(
    family: Optional[str] = None, problem: Optional[str] = None
) -> Tuple[str, ...]:
    """All canonical names, optionally filtered, in registration order."""
    return tuple(
        spec.name for spec in algorithm_specs(family=family, problem=problem)
    )


def help_text(problem: Optional[str] = None, rounds: bool = False) -> str:
    """``name | name | …`` for generated CLI help (cannot drift).

    With ``rounds=True`` each entry carries its round complexity, e.g.
    ``name [O(log n)]`` — the CLI help surfaces the same column the
    README table is generated from.
    """
    if not rounds:
        return " | ".join(algorithm_names(problem=problem))
    return " | ".join(
        f"{spec.name} [{spec.round_complexity}]"
        for spec in algorithm_specs(problem=problem)
    )


def canonical_cache_params(
    spec: AlgorithmSpec,
    *,
    beta: int = 2,
    alpha: int = 2,
    regime: str = "sublinear",
    alpha_mem: Tuple[int, int] = (2, 3),
    seed: int = 0,
) -> Dict[str, object]:
    """The *semantic* solve parameters, canonicalized for cache keying.

    Two parameterizations that provably produce bit-identical results
    must map to the same dict; parameterizations that can differ in any
    model quantity must not.  The registry owns this because the spec's
    capability flags decide what is semantic:

    * ``seed`` is included only when ``spec.uses_seed`` — the seedless
      (deterministic) algorithms produce identical output for every
      seed (pinned by test), so seeds must not fragment their cache;
    * ``beta`` / ``alpha`` are dropped for problems where they are
      meaningless (matching);
    * the named ``regime`` plus the memory exponent ``alpha_mem``
      determine the derived config.  Execution strategy and
      observability (backend, shard count, trace) are not
      parameters here: those layers are bit-identity-preserving.
    """
    params: Dict[str, object] = {
        "algorithm": spec.name,
        "problem": spec.problem,
    }
    if spec.problem == RULING_SET:
        params["beta"] = int(beta)
        params["alpha"] = int(alpha)
    if spec.uses_seed:
        params["seed"] = int(seed)
    params["regime"] = regime
    params["alpha_mem"] = [int(x) for x in alpha_mem]
    return params


def markdown_table(problem: Optional[str] = None) -> str:
    """The algorithm table for README/docs, regenerated from the registry."""
    lines = [
        "| Algorithm | Model | Problem | Rounds | α>2 | Seeded "
        "| What it computes |",
        "|---|---|---|---|---|---|---|",
    ]
    for spec in algorithm_specs(problem=problem):
        lines.append(
            f"| `{spec.name}` | {spec.family.upper()} | {spec.problem} "
            f"| {spec.round_complexity} "
            f"| {'yes' if spec.supports_alpha_gt2 else '—'} "
            f"| {'yes' if spec.uses_seed else '—'} "
            f"| {spec.description} |"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Program factories — the only MPC dispatch.  Lazy imports keep the
# registry cycle-free and cheap to load.
# ---------------------------------------------------------------------------


def _program_det_ruling(ctx: RunContext) -> "SuperstepProgram":
    from repro.core.alpha_ruling import alpha_program

    return alpha_program(
        ctx.alpha, beta=ctx.beta, in_set_key=ctx.in_set_key,
        power_adjacency=ctx.power_adjacency,
    )


def _program_rand_ruling(ctx: RunContext) -> "SuperstepProgram":
    from repro.core.alpha_ruling import alpha_program
    from repro.core.rand_baselines import ruling_options

    return alpha_program(
        ctx.alpha, beta=ctx.beta, in_set_key=ctx.in_set_key,
        power_adjacency=ctx.power_adjacency, **ruling_options(ctx.seed),
    )


def _program_det_luby(ctx: RunContext) -> "SuperstepProgram":
    from repro.core.det_luby import luby_program

    return luby_program(in_set_key=ctx.in_set_key)


def _program_rand_luby(ctx: RunContext) -> "SuperstepProgram":
    from repro.core.det_luby import luby_program
    from repro.core.rand_baselines import luby_options

    return luby_program(in_set_key=ctx.in_set_key, **luby_options(ctx.seed))


def _program_gp_ruling(ctx: RunContext) -> "SuperstepProgram":
    from repro.core.gp_ruling import gp_program

    return gp_program(in_set_key=ctx.in_set_key)


def _program_det_matching(ctx: RunContext) -> "SuperstepProgram":
    from repro.core.det_matching import matching_program

    return matching_program()


def _program_rand_matching(ctx: RunContext) -> "SuperstepProgram":
    from repro.core.det_matching import matching_program
    from repro.core.rand_baselines import luby_options

    return matching_program(**luby_options(ctx.seed))


# ---------------------------------------------------------------------------
# Runners — LOCAL / sequential algorithms, which never touch the simulator.
# ---------------------------------------------------------------------------


def _run_greedy_mis(ctx: RunContext) -> RunPayload:
    from repro.core.greedy import greedy_mis

    return RunPayload(members=greedy_mis(ctx.graph))


def _run_greedy_ruling(ctx: RunContext) -> RunPayload:
    from repro.core.greedy import greedy_ruling_set

    return RunPayload(members=greedy_ruling_set(ctx.graph, alpha=ctx.alpha))


def _run_local_luby(ctx: RunContext) -> RunPayload:
    from repro.local.algorithms.luby_mis import run_luby_mis

    members, rounds = run_luby_mis(ctx.graph, seed=ctx.seed)
    return RunPayload(members=members, local_rounds=rounds)


def _run_local_bitwise(ctx: RunContext) -> RunPayload:
    from repro.local.algorithms.agl_ruling import run_bitwise_ruling_set

    members, rounds = run_bitwise_ruling_set(ctx.graph)
    return RunPayload(members=members, local_rounds=rounds)


def _run_local_coloring_mis(ctx: RunContext) -> RunPayload:
    from repro.local.algorithms.linial_coloring import run_coloring_mis

    members, rounds, palette = run_coloring_mis(ctx.graph)
    return RunPayload(
        members=members, local_rounds=rounds,
        extra_metrics={"palette": palette},
    )


# ---------------------------------------------------------------------------
# Claimed-β functions and config factories
# ---------------------------------------------------------------------------


def _ruling_beta(graph: "Graph", alpha: int, beta: int) -> int:
    # α > 2 runs on G^{α-1}: β-domination there is β(α-1)-domination in G.
    return beta if alpha == 2 else beta * (alpha - 1)


def _mis_beta(graph: "Graph", alpha: int, beta: int) -> int:
    return 1


def _greedy_ruling_beta(graph: "Graph", alpha: int, beta: int) -> int:
    return alpha - 1


def _bitwise_beta(graph: "Graph", alpha: int, beta: int) -> int:
    return max(1, ilog2_ceil(max(2, graph.num_vertices)))


def _gp_beta(graph: "Graph", alpha: int, beta: int) -> int:
    # The degree-class decomposition always yields a (2, 2)-ruling set,
    # regardless of the requested β.  Must tolerate graph=None (the
    # streaming entry point prices the claim before the graph exists).
    return 2


def _gp_rounds(graph: "Graph", alpha: int, beta: int) -> int:
    from repro.core.gp_ruling import claimed_round_bound

    return claimed_round_bound(graph.num_vertices, graph.max_degree())


def _matching_config_factory(
    graph: "Graph", regime: str, alpha_mem: Tuple[int, int]
) -> "MPCConfig":
    from repro.core.det_matching import matching_config

    return matching_config(graph, alpha=alpha_mem, regime=regime)


# ---------------------------------------------------------------------------
# Registrations — registration order is presentation order everywhere
# (CLI help, sweeps' default grids, README table).
# ---------------------------------------------------------------------------

register(AlgorithmSpec(
    name=DET_RULING,
    family=MPC_FAMILY,
    problem=RULING_SET,
    description="deterministic (2, β)-ruling set (derandomized "
    "sparsify-and-gather; the paper's headline)",
    claimed_beta=_ruling_beta,
    supports_alpha_gt2=True,
    program_factory=_program_det_ruling,
    round_complexity="O(β log Δ)",
))

register(AlgorithmSpec(
    name=RAND_RULING,
    family=MPC_FAMILY,
    problem=RULING_SET,
    description="randomized (2, β)-ruling set baseline (same engine, "
    "sampled seeds)",
    claimed_beta=_ruling_beta,
    supports_alpha_gt2=True,
    uses_seed=True,
    program_factory=_program_rand_ruling,
    round_complexity="O(β log Δ)",
))

register(AlgorithmSpec(
    name=DET_LUBY,
    family=MPC_FAMILY,
    problem=RULING_SET,
    description="deterministic MIS (derandomized Luby via conditional "
    "expectations)",
    claimed_beta=_mis_beta,
    program_factory=_program_det_luby,
    round_complexity="O(log n)",
))

register(AlgorithmSpec(
    name=RAND_LUBY,
    family=MPC_FAMILY,
    problem=RULING_SET,
    description="randomized Luby MIS baseline",
    claimed_beta=_mis_beta,
    uses_seed=True,
    program_factory=_program_rand_luby,
    round_complexity="O(log n)",
))

register(AlgorithmSpec(
    name=GP_RULING,
    family=MPC_FAMILY,
    problem=RULING_SET,
    description="deterministic (2, 2)-ruling set via degree-class "
    "decomposition (the follow-up paper's O(log log Δ) route)",
    claimed_beta=_gp_beta,
    program_factory=_program_gp_ruling,
    round_complexity="O(log log Δ)",
    claimed_rounds=_gp_rounds,
))

register(AlgorithmSpec(
    name=GREEDY_MIS,
    family=SEQUENTIAL_FAMILY,
    problem=RULING_SET,
    description="sequential greedy MIS oracle",
    runner=_run_greedy_mis,
    claimed_beta=_mis_beta,
))

register(AlgorithmSpec(
    name=GREEDY_RULING,
    family=SEQUENTIAL_FAMILY,
    problem=RULING_SET,
    description="sequential greedy (α, α-1)-ruling set oracle",
    runner=_run_greedy_ruling,
    claimed_beta=_greedy_ruling_beta,
    supports_alpha_gt2=True,
))

register(AlgorithmSpec(
    name=LOCAL_LUBY,
    family=LOCAL_FAMILY,
    problem=RULING_SET,
    description="LOCAL-model randomized Luby MIS baseline",
    runner=_run_local_luby,
    claimed_beta=_mis_beta,
    uses_seed=True,
    round_complexity="O(log n)",
))

register(AlgorithmSpec(
    name=LOCAL_BITWISE,
    family=LOCAL_FAMILY,
    problem=RULING_SET,
    description="LOCAL-model deterministic bitwise (AGLP) ruling set",
    runner=_run_local_bitwise,
    claimed_beta=_bitwise_beta,
    round_complexity="O(log n)",
))

register(AlgorithmSpec(
    name=LOCAL_COLORING_MIS,
    family=LOCAL_FAMILY,
    problem=RULING_SET,
    description="LOCAL-model MIS via Linial coloring reduction",
    runner=_run_local_coloring_mis,
    claimed_beta=_mis_beta,
    round_complexity="O(Δ² + log* n)",
))

register(AlgorithmSpec(
    name=DET_MATCHING,
    family=MPC_FAMILY,
    problem=MATCHING,
    description="deterministic maximal matching (Luby engine on the "
    "distributed line graph)",
    config_factory=_matching_config_factory,
    program_factory=_program_det_matching,
    round_complexity="O(log m)",
))

register(AlgorithmSpec(
    name=RAND_MATCHING,
    family=MPC_FAMILY,
    problem=MATCHING,
    description="randomized maximal matching baseline (sampled Luby "
    "on the line graph)",
    config_factory=_matching_config_factory,
    uses_seed=True,
    program_factory=_program_rand_matching,
    round_complexity="O(log m)",
))
