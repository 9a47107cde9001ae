"""Before/after oracle for the shared sparsify–solve–remove loop.

The refactor-parity oracle (``tests/core/test_refactor_parity.py``)
pins det-ruling and rand-ruling at β = 2 only, and gp-2ruling not at
all.  ``tests/data/engine_parity.json`` adds the cells it does not
reach on the same eight E1/E4 workloads: gp-2ruling at β = 2, and
det-ruling and rand-ruling at β = 3 (a two-level sampling chain).
Together these cells take every arm of the loop — class and level
gathers, class and level Luby solves, gather-finish and endgame (pinned
by :func:`test_oracle_reaches_every_arm`).

Each cell replays on the same three legs as the refactor-parity oracle
and must match members, rounds, claimed (α, β), ``metrics`` and
``phase_rounds`` exactly.  Regenerate the JSON only from a commit whose
behaviour is the new baseline, with
``PYTHONPATH=src:. python tests/data/capture_engine_parity.py``.
"""

import json
from pathlib import Path

import pytest

from repro.core.pipeline import solve_ruling_set
from tests.core.test_refactor_parity import (
    E1_WORKLOADS,
    E4_WORKLOADS,
    _backend,
    _legs,
    _workload,
)

ORACLE_PATH = Path(__file__).parent.parent / "data" / "engine_parity.json"

#: Algorithm name -> the β its cells run at.
ENGINE_BETAS = {"gp-2ruling": 2, "det-ruling": 3, "rand-ruling": 3}

CELLS = sorted(
    f"{experiment}/{workload}/{algorithm}"
    for experiment, table in (("e1", E1_WORKLOADS), ("e4", E4_WORKLOADS))
    for workload in table
    for algorithm in ENGINE_BETAS
)

_ORACLE = {}


def _oracle():
    if not _ORACLE:
        _ORACLE.update(json.loads(ORACLE_PATH.read_text()))
    return _ORACLE


def solve_cell(cell: str, backend: str = "serial") -> dict:
    """One cell's pinned fields, as the oracle records them."""
    experiment, workload, algorithm = cell.split("/")
    result = solve_ruling_set(
        _workload(experiment, workload), algorithm=algorithm,
        beta=ENGINE_BETAS[algorithm], regime="sublinear", backend=backend,
    )
    return {
        "members": result.members,
        "rounds": result.rounds,
        "alpha": result.alpha,
        "beta": result.beta,
        "metrics": result.metrics,
        "phase_rounds": result.phase_rounds,
    }


@pytest.mark.parametrize("cell,leg", _legs(CELLS))
def test_engine_cell_bit_identical(cell, leg, monkeypatch):
    assert solve_cell(cell, _backend(leg, monkeypatch)) == _oracle()[cell]


def test_oracle_reaches_every_arm():
    assert sorted(_oracle()) == CELLS
    assert len(CELLS) == 24
    totals = {}
    for record in _oracle().values():
        for key, value in record["metrics"].items():
            if key.startswith("alg_"):
                totals[key] = totals.get(key, 0) + value
    for counter in (
        "class_gathers", "class_luby_solves", "level_gathers",
        "level_luby_solves", "gather_finishes", "endgame_luby",
    ):
        assert totals[f"alg_{counter}"] > 0, counter
