"""Shared fixtures: canonical small graphs, MPC configurations, and the
memory-audit oracle every test runs under."""

from __future__ import annotations

import pytest

from repro.graph import generators
from repro.graph.graph import Graph
from repro.mpc.config import MPCConfig
from repro.mpc.machine import Machine, words_of
from repro.mpc.simulator import Simulator


@pytest.fixture(autouse=True)
def audit_oracle(monkeypatch):
    """Check the incremental memory audit against the full walk.

    Every ``Machine.memory_words`` call in every test — each superstep's
    audit and each shard spill — must equal pricing the whole store and
    inbox from scratch.  A stale cached price fails the test that made it.
    """
    incremental = Machine.memory_words

    def checked(machine: Machine) -> int:
        words = incremental(machine)
        full = words_of(dict(machine.store)) + words_of(machine.inbox)
        assert words == full, (
            f"machine {machine.mid}: incremental audit {words} words, "
            f"full walk {full}"
        )
        return words

    monkeypatch.setattr(Machine, "memory_words", checked)


@pytest.fixture
def path4() -> Graph:
    """The path 0-1-2-3."""
    return generators.path_graph(4)


@pytest.fixture
def triangle() -> Graph:
    """The 3-cycle."""
    return generators.cycle_graph(3)


@pytest.fixture
def small_er() -> Graph:
    """A fixed 60-vertex Erdős–Rényi graph (same in every test run)."""
    return generators.gnp_random_graph(60, 1, 6, seed=99)


@pytest.fixture
def medium_er() -> Graph:
    """A fixed 150-vertex Erdős–Rényi graph."""
    return generators.gnp_random_graph(150, 1, 12, seed=42)


@pytest.fixture
def sim8() -> Simulator:
    """A generic 8-machine simulator with comfortable memory."""
    return Simulator(MPCConfig(num_machines=8, memory_words=4096))


def make_sim_for(graph: Graph, regime: str = "near-linear") -> Simulator:
    """Simulator configured for a specific graph (helper, not a fixture)."""
    if regime == "near-linear":
        cfg = MPCConfig.near_linear(
            graph.num_vertices, graph.num_edges, max_degree=graph.max_degree()
        )
    else:
        cfg = MPCConfig.sublinear(
            graph.num_vertices, graph.num_edges,
            max_degree=graph.max_degree(),
        )
    return Simulator(cfg)
