"""Before/after oracle for the registry/session refactor.

``tests/data/refactor_parity.json`` was captured by running the
*pre-refactor* drivers (hand-rolled dispatch in ``core/pipeline.py``, the
standalone simulator session in ``det_matching.solve_matching``) over the
E1 and E4 benchmark workloads and the matching smoke graphs.  These tests
replay every cell through the refactored registry/session path and
require bit-identical members, rounds, claimed (α, β), full
``metrics.summary()`` (plus counters), and per-phase round attribution.

Every cell runs on each execution leg: every backend in
:data:`~repro.mpc.backends.BACKENDS`, plus the shard backend at one
message per spool chunk (a flush per message).  The serial leg keeps the
cells' original test ids.

If an intentional model-level change ever invalidates the oracle,
regenerate it from a commit whose behaviour is the new baseline — never
edit the JSON by hand.
"""

import json
from pathlib import Path

import pytest

from repro.core import registry
from repro.core.det_matching import solve_matching
from repro.core.pipeline import solve_ruling_set
from repro.graph import generators as gen
from repro.mpc import shard as shard_module
from repro.mpc.backends import BACKENDS

ORACLE_PATH = Path(__file__).parent.parent / "data" / "refactor_parity.json"
ORACLE = json.loads(ORACLE_PATH.read_text())

# The exact workload constructions the oracle was captured with.
E1_WORKLOADS = {
    "er-0128": lambda: gen.gnp_random_graph(128, 16, 128, seed=128),
    "pl-0128": lambda: gen.chung_lu_power_law(128, seed=128),
}
E4_WORKLOADS = {
    "er-256": lambda: gen.gnp_random_graph(256, 16, 256, seed=4),
    "power-law-256": lambda: gen.chung_lu_power_law(256, seed=4),
    "tree-256": lambda: gen.random_tree(256, seed=4),
    "grid-16x16": lambda: gen.grid_graph(16, 16),
    "caterpillar": lambda: gen.caterpillar_graph(40, 5),
    "regular-24": lambda: gen.regular_graph(256, 24),
}
MATCHING_WORKLOADS = {
    "er-60": lambda: gen.gnp_random_graph(60, 1, 6, seed=99),
    "grid-8x8": lambda: gen.grid_graph(8, 8),
}
MATCHING_VARIANTS = {
    "det": dict(algorithm=registry.DET_MATCHING),
    "rand": dict(algorithm=registry.RAND_MATCHING, seed=2),
}

_GRAPH_CACHE = {}

#: The shard backend with ``CHUNK_MESSAGES`` patched to 1.
SHARD_CHUNK1 = "shard-chunk1"
LEGS = sorted(BACKENDS) + [SHARD_CHUNK1]


def _legs(cells):
    return [
        pytest.param(cell, leg, id=cell if leg == "serial" else f"{cell}@{leg}")
        for leg in LEGS
        for cell in sorted(cells)
    ]


def _backend(leg, monkeypatch):
    """The backend name a leg runs on (patching the chunk size if asked)."""
    if leg == SHARD_CHUNK1:
        monkeypatch.setattr(shard_module, "CHUNK_MESSAGES", 1)
        return "shard"
    return leg


def _workload(experiment: str, name: str):
    key = (experiment, name)
    if key not in _GRAPH_CACHE:
        table = E1_WORKLOADS if experiment == "e1" else E4_WORKLOADS
        _GRAPH_CACHE[key] = table[name]()
    return _GRAPH_CACHE[key]


@pytest.mark.parametrize("cell,leg", _legs(ORACLE["ruling"]))
def test_ruling_cell_bit_identical(cell, leg, monkeypatch):
    experiment, workload, algorithm = cell.split("/")
    graph = _workload(experiment, workload)
    result = solve_ruling_set(
        graph, algorithm=algorithm, beta=2, regime="sublinear",
        backend=_backend(leg, monkeypatch),
    )
    expected = ORACLE["ruling"][cell]
    assert result.members == expected["members"]
    assert result.rounds == expected["rounds"]
    assert result.alpha == expected["alpha"]
    assert result.beta == expected["beta"]
    assert result.metrics == expected["metrics"]
    assert result.phase_rounds == expected["phase_rounds"]


@pytest.mark.parametrize("cell,leg", _legs(ORACLE["matching"]))
def test_matching_cell_bit_identical(cell, leg, monkeypatch):
    workload, variant = cell.split("/")
    graph = MATCHING_WORKLOADS[workload]()
    matching, metrics = solve_matching(
        graph, backend=_backend(leg, monkeypatch),
        **MATCHING_VARIANTS[variant],
    )
    expected = ORACLE["matching"][cell]
    assert [list(edge) for edge in matching] == expected["matching"]
    assert metrics == expected["metrics"]


def test_oracle_covers_every_preexisting_mpc_algorithm():
    # The oracle pins every algorithm name that existed before the
    # refactor on at least one workload (sequential/LOCAL baselines are
    # exercised by their own deterministic unit tests).
    pinned = {cell.split("/")[2] for cell in ORACLE["ruling"]}
    assert {"det-ruling", "rand-ruling", "det-luby", "rand-luby",
            "greedy-mis"} <= pinned
    assert len(ORACLE["ruling"]) == 32
    assert len(ORACLE["matching"]) == 4
