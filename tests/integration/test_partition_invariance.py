"""Algorithms must be *correct* under any vertex partition.

The output may legitimately differ between owner maps (iteration order of
machine-local solvers changes tie-breaks in greedy MIS), but every output
must verify, and the deterministic algorithms must be reproducible per
owner map.
"""

import pytest

from repro.core.det_luby import luby_program
from repro.core.det_ruling import ruling_program
from repro.core.program import run_program
from repro.core.verify import verify_ruling_set
from repro.graph import generators as gen
from repro.mpc.config import MPCConfig
from repro.mpc.graph_store import DistributedGraph
from repro.mpc.ownermap import (
    HashOwnerMap,
    ModOwnerMap,
    balanced_range_map,
)
from repro.mpc.simulator import Simulator


def graph_under_test():
    return gen.gnp_random_graph(90, 1, 9, seed=31)


def config_for(graph):
    return MPCConfig.near_linear(
        graph.num_vertices, graph.num_edges, max_degree=graph.max_degree()
    )


def make_owner_map(name, graph, k):
    if name == "range":
        return balanced_range_map(graph, k)
    if name == "mod":
        return ModOwnerMap(graph.num_vertices, k)
    return HashOwnerMap(graph.num_vertices, k, seed=17)


def run_with_map(graph, map_name, make_program):
    cfg = config_for(graph)
    sim = Simulator(cfg)
    owner_map = make_owner_map(map_name, graph, cfg.num_machines)
    dg = DistributedGraph.load(sim, graph, owner_map=owner_map)
    run_program(dg, make_program())
    return dg.collect_marked("out")


@pytest.mark.parametrize("map_name", ["range", "mod", "hash"])
def test_det_luby_valid_under_any_partition(map_name):
    graph = graph_under_test()
    members = run_with_map(
        graph, map_name, lambda: luby_program(in_set_key="out")
    )
    verify_ruling_set(graph, members, alpha=2, beta=1)


@pytest.mark.parametrize("map_name", ["range", "mod", "hash"])
def test_det_ruling_valid_under_any_partition(map_name):
    graph = graph_under_test()
    members = run_with_map(
        graph, map_name,
        lambda: ruling_program(beta=2, in_set_key="out"),
    )
    verify_ruling_set(graph, members, alpha=2, beta=2)


def test_reproducible_per_owner_map():
    graph = graph_under_test()
    for name in ("range", "mod", "hash"):
        first = run_with_map(
            graph, name, lambda: luby_program(in_set_key="out")
        )
        second = run_with_map(
            graph, name, lambda: luby_program(in_set_key="out")
        )
        assert first == second, name
