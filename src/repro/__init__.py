"""mpc-ruling-sets: deterministic massively parallel ruling-set algorithms.

A reproduction of *"Brief Announcement: Deterministic Massively Parallel
Algorithms for Ruling Sets"* (Pai & Pemmaraju, PODC 2022): deterministic
``(2, β)``-ruling set and MIS algorithms in the MPC model, their
randomized baselines, the derandomization machinery (pairwise-independent
families + exact method of conditional expectations), a budget-enforcing
MPC simulator, a LOCAL-model simulator with classic baselines, and the
workload generators and verification oracles needed to benchmark it all.

Quickstart::

    from repro import algorithm_names, generators, solve_ruling_set

    graph = generators.gnp_random_graph(300, 1, 10, seed=7)
    result = solve_ruling_set(graph, beta=2)   # the headline algorithm
    print(result.size, result.rounds, result.metrics["peak_memory_words"])
    print(algorithm_names())                   # everything registered

Every algorithm is an entry in :mod:`repro.core.registry` — the CLI,
sweeps, and benchmark drivers all derive their algorithm lists from it.
See DESIGN.md for the system inventory and EXPERIMENTS.md for the
experiment index.
"""

from repro.core import (
    AlgorithmSpec,
    MatchingResult,
    RulingSetResult,
    SolverSession,
    algorithm_names,
    check_ruling_set,
    get_algorithm,
    greedy_mis,
    greedy_ruling_set,
    registry,
    solve_matching,
    solve_ruling_set,
    verify_maximal_matching,
    verify_ruling_set,
)
from repro.graph import Graph, GraphBuilder, generators
from repro.mpc import DistributedGraph, MPCConfig, Simulator

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "GraphBuilder",
    "generators",
    "MPCConfig",
    "Simulator",
    "DistributedGraph",
    "registry",
    "AlgorithmSpec",
    "algorithm_names",
    "get_algorithm",
    "SolverSession",
    "RulingSetResult",
    "MatchingResult",
    "solve_ruling_set",
    "verify_ruling_set",
    "check_ruling_set",
    "greedy_mis",
    "greedy_ruling_set",
    "solve_matching",
    "verify_maximal_matching",
    "__version__",
]
