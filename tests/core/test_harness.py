"""Fuzzing harness: full-registry coverage, failure capture, filters."""

import dataclasses

import pytest

from repro.core import registry
from repro.core.harness import FAIL, OK, fuzz_verify
from repro.graph.generators import path_graph
from repro.graph.graph import Graph
from repro.mpc.shard import ShardBackend


def small_cells():
    return [
        ("path-6", path_graph(6)),
        ("triangle", Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])),
    ]


class TestCoverage:
    def test_every_registered_algorithm_is_swept(self):
        report = fuzz_verify(graphs=small_cells())
        swept = {cell.algorithm for cell in report.cells}
        assert swept == set(registry.algorithm_names())
        assert report.ok, report.format()

    def test_seeded_algorithms_run_every_seed(self):
        report = fuzz_verify(graphs=small_cells()[:1], solver_seeds=(0, 7))
        by_algorithm = {}
        for cell in report.cells:
            by_algorithm.setdefault(cell.algorithm, []).append(cell.seed)
        for spec in registry.algorithm_specs():
            expected = [0, 7] if spec.uses_seed else [0]
            assert by_algorithm[spec.name] == expected

    def test_filters_restrict_the_sweep(self):
        report = fuzz_verify(
            graphs=small_cells()[:1],
            families=[registry.SEQUENTIAL_FAMILY],
        )
        assert {cell.algorithm for cell in report.cells} == set(
            registry.algorithm_names(family=registry.SEQUENTIAL_FAMILY)
        )
        named = fuzz_verify(
            graphs=small_cells()[:1], algorithms=[registry.GREEDY_MIS]
        )
        assert {cell.algorithm for cell in named.cells} == {
            registry.GREEDY_MIS
        }

    def test_hostile_suite_all_green(self):
        report = fuzz_verify(scale=1)
        assert report.ok, report.format()
        assert len(report.cells) >= len(registry.algorithm_names()) * 8


class TestFailureCapture:
    def test_planted_invalid_output_is_caught(self, monkeypatch):
        # Replace the sequential MIS oracle's runner with one returning
        # two adjacent vertices — the independent validator must flag
        # the cell, and the sweep must keep going rather than raise.
        from repro.core.registry import RunPayload

        spec = registry.get_algorithm(registry.GREEDY_MIS)
        bad = dataclasses.replace(
            spec, runner=lambda ctx: RunPayload(members=[0, 1])
        )
        monkeypatch.setitem(registry._REGISTRY, registry.GREEDY_MIS, bad)
        report = fuzz_verify(
            graphs=small_cells(), algorithms=[registry.GREEDY_MIS]
        )
        assert [cell.status for cell in report.cells] == [FAIL, FAIL]
        assert all("independent" in cell.detail for cell in report.cells)
        assert not report.ok
        assert "FAIL" in report.format()

    def test_planted_overclaimed_beta_is_caught(self, monkeypatch):
        # A claimed_beta of 0 means "every vertex is a member" — the
        # real solver dominates at radius 1, so the validator refuses.
        spec = registry.get_algorithm(registry.DET_LUBY)
        bad = dataclasses.replace(spec, claimed_beta=lambda g, a, b: 0)
        monkeypatch.setitem(registry._REGISTRY, registry.DET_LUBY, bad)
        report = fuzz_verify(
            graphs=[("path-6", path_graph(6))],
            algorithms=[registry.DET_LUBY],
        )
        assert not report.ok
        assert "exceeds claimed" in report.failures[0].detail

    @pytest.mark.parametrize(
        "algorithm", [registry.DET_LUBY, registry.DET_MATCHING]
    )
    def test_planted_shard_divergence_is_caught(self, monkeypatch, algorithm):
        # The shard backend over-reports one word per exchange: members,
        # matching and rounds still agree, so only the cross-backend
        # comparison of ``metrics`` can see it.
        real = ShardBackend.run_exchange

        def skewed(self, *args, **kwargs):
            stats = real(self, *args, **kwargs)
            stats.total_words += 1
            return stats

        monkeypatch.setattr(ShardBackend, "run_exchange", skewed)
        report = fuzz_verify(
            graphs=small_cells()[:1], algorithms=[algorithm]
        )
        (cell,) = report.cells
        assert cell.status == FAIL
        assert "shard replay differs in metrics" in cell.detail

    def test_passing_report_shape(self):
        report = fuzz_verify(
            graphs=[("path-6", path_graph(6))],
            algorithms=[registry.GREEDY_MIS],
        )
        (cell,) = report.cells
        assert cell.status == OK
        assert cell.detail == ""
        assert cell.output_size > 0
        assert "0 failures" in report.format()
