"""The paper's contribution: deterministic MPC ruling-set algorithms.

Public surface:

* :mod:`~repro.core.registry` — the algorithm registry: one
  :class:`~repro.core.registry.AlgorithmSpec` per algorithm (canonical
  name, model family, problem, capability flags, dispatch).  The single
  source of algorithm names for the drivers, CLI, sweeps, and benches.
* :class:`~repro.core.session.SolverSession` — the one MPC lifecycle
  (regime sizing, backend/trace wiring, simulator context, collection,
  metrics assembly) every registered algorithm runs through.
* :func:`repro.core.pipeline.solve_ruling_set` /
  :func:`repro.core.det_matching.solve_matching` — one-call drivers:
  thin registry lookups over the session, plus ground-truth
  verification, returning :class:`~repro.core.spec.RulingSetResult` /
  :class:`~repro.core.spec.MatchingResult` with full MPC metrics.
* :mod:`~repro.core.program` — the phase-program framework every MPC
  solver is written in; :func:`~repro.core.program.run_program` runs a
  program on a distributed graph.
* :mod:`~repro.core.det_ruling` — deterministic ``(2, β)``-ruling sets via
  derandomized sparsify-and-gather (the headline algorithm).
* :mod:`~repro.core.det_luby` — deterministic MIS via the derandomized
  Luby step (method of conditional expectations each phase).
* :mod:`~repro.core.rand_baselines` — the randomized counterparts, sharing
  the same code paths so the measured difference is exactly the seed
  search.
* :mod:`~repro.core.greedy` / :mod:`~repro.core.verify` — sequential
  oracle and ground-truth verification.
"""

from repro.core import registry
from repro.core.spec import MatchingResult, RulingSetResult
from repro.core.verify import verify_ruling_set, check_ruling_set
from repro.core.greedy import greedy_mis, greedy_ruling_set
from repro.core.det_matching import solve_matching, verify_maximal_matching
from repro.core.registry import AlgorithmSpec, algorithm_names, get_algorithm
from repro.core.session import SolverSession
from repro.core.pipeline import solve_ruling_set

__all__ = [
    "registry",
    "AlgorithmSpec",
    "algorithm_names",
    "get_algorithm",
    "SolverSession",
    "RulingSetResult",
    "MatchingResult",
    "verify_ruling_set",
    "check_ruling_set",
    "greedy_mis",
    "greedy_ruling_set",
    "solve_matching",
    "verify_maximal_matching",
    "solve_ruling_set",
]
