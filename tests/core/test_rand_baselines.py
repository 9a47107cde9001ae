"""Tests for the randomized baselines (same engines, drawn seeds)."""

import pytest

from repro.core.det_luby import luby_program
from repro.core.det_ruling import ruling_program
from repro.core.program import run_program
from repro.core.rand_baselines import luby_options, ruling_options
from repro.core.verify import verify_ruling_set
from repro.graph import generators as gen
from repro.mpc.config import MPCConfig
from repro.mpc.graph_store import DistributedGraph
from repro.mpc.simulator import Simulator


def load(graph):
    cfg = MPCConfig.near_linear(
        graph.num_vertices, graph.num_edges, max_degree=graph.max_degree()
    )
    sim = Simulator(cfg)
    return DistributedGraph.load(sim, graph), sim


def run_rand_luby(dg, seed):
    program = luby_program(in_set_key="mis", **luby_options(seed))
    return run_program(dg, program).counters


def run_rand_ruling(dg, beta, seed):
    program = ruling_program(beta=beta, in_set_key="rs", **ruling_options(seed))
    return run_program(dg, program).counters


class TestRandLuby:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_verified_mis(self, small_er, seed):
        dg, _ = load(small_er)
        run_rand_luby(dg, seed=seed)
        members = dg.collect_marked("mis")
        verify_ruling_set(small_er, members, alpha=2, beta=1)

    def test_reproducible_given_seed(self, small_er):
        results = []
        for _ in range(2):
            dg, _ = load(small_er)
            run_rand_luby(dg, seed=7)
            results.append(dg.collect_marked("mis"))
        assert results[0] == results[1]

    def test_seed_sensitivity(self, medium_er):
        outs = []
        for seed in (1, 2):
            dg, _ = load(medium_er)
            run_rand_luby(dg, seed=seed)
            outs.append(dg.collect_marked("mis"))
        assert outs[0] != outs[1]

    def test_star(self):
        g = gen.star_graph(30)
        dg, _ = load(g)
        run_rand_luby(dg, seed=0)
        verify_ruling_set(g, dg.collect_marked("mis"), alpha=2, beta=1)


class TestRandRuling:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_verified_two_ruling(self, medium_er, seed):
        dg, _ = load(medium_er)
        run_rand_ruling(dg, beta=2, seed=seed)
        members = dg.collect_marked("rs")
        verify_ruling_set(medium_er, members, alpha=2, beta=2)

    def test_beta_three(self, medium_er):
        dg, _ = load(medium_er)
        run_rand_ruling(dg, beta=3, seed=3)
        verify_ruling_set(
            medium_er, dg.collect_marked("rs"), alpha=2, beta=3
        )

    def test_fewer_seed_candidates_than_det(self, medium_er):
        # The randomized chooser draws instead of scanning: its candidate
        # count equals the number of choices made, far below the scan's.
        dg_rand, _ = load(medium_er)
        rand_counters = run_rand_ruling(dg_rand, beta=2, seed=1)
        dg_det, _ = load(medium_er)
        det_counters = run_program(
            dg_det, ruling_program(beta=2, in_set_key="rs")
        ).counters
        assert (
            rand_counters["seed_candidates"]
            <= det_counters["seed_candidates"]
        )
