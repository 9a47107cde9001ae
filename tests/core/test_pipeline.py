"""Tests for the one-call driver."""

import dataclasses

import pytest

from repro.core.det_matching import solve_matching
from repro.core.pipeline import make_config, solve_ruling_set
from repro.core.spec import RunResult
from repro.errors import AlgorithmError
from repro.graph.graph import Graph


class TestMakeConfig:
    def test_regimes(self, small_er):
        assert "sublinear" in make_config(small_er, "sublinear").label
        assert make_config(small_er, "near-linear").label == "near-linear"
        assert make_config(small_er, "single").num_machines == 1

    def test_unknown_regime(self, small_er):
        with pytest.raises(AlgorithmError):
            make_config(small_er, "galactic")


class TestSolve:
    @pytest.mark.parametrize("algorithm,beta", [
        ("det-ruling", 2),
        ("rand-ruling", 2),
        ("det-luby", 1),
        ("rand-luby", 1),
        ("greedy-mis", 1),
        ("greedy-ruling", 1),
        ("local-luby", 1),
        ("local-bitwise", 7),
        ("local-coloring-mis", 1),
    ])
    def test_all_algorithms_verified(self, small_er, algorithm, beta):
        result = solve_ruling_set(small_er, algorithm=algorithm)
        assert result.size >= 1
        assert result.algorithm == algorithm
        # verify=True already ran; re-check the claim shape.
        assert result.beta >= 1

    def test_unknown_algorithm(self, small_er):
        with pytest.raises(AlgorithmError):
            solve_ruling_set(small_er, algorithm="quantum")

    def test_empty_graph(self):
        result = solve_ruling_set(Graph.empty(0))
        assert result.members == []

    @pytest.mark.parametrize("kwargs", [
        {"algorithm": "det-matching"},
        {"alpha": 1},
        {"alpha": 3, "algorithm": "det-luby"},
    ])
    def test_empty_graph_still_validates(self, kwargs):
        # Regression: the empty-graph early return used to skip every
        # parameter check, so these calls returned a result.
        with pytest.raises(AlgorithmError):
            solve_ruling_set(Graph.from_edges(0, []), **kwargs)

    def test_empty_graph_reports_claimed_beta(self, small_er):
        empty = solve_ruling_set(
            Graph.from_edges(0, []), algorithm="det-luby", beta=5
        )
        full = solve_ruling_set(small_er, algorithm="det-luby", beta=5)
        assert empty.beta == full.beta == 1

    def test_empty_graph_tails_match_across_problems(self):
        # One empty path in the session: an empty ruling set and an
        # empty matching carry the same run tail.
        def tail(result):
            return {
                field.name: getattr(result, field.name)
                for field in dataclasses.fields(RunResult)
            }

        ruling = tail(solve_ruling_set(Graph.empty(0)))
        assert ruling == tail(solve_matching(Graph.empty(0)))
        assert ruling == tail(RunResult())

    def test_mpc_metrics_present(self, small_er):
        result = solve_ruling_set(
            small_er, algorithm="det-ruling", regime="near-linear"
        )
        assert result.rounds > 0
        assert result.metrics["num_machines"] >= 2
        assert result.metrics["peak_memory_words"] <= result.metrics[
            "memory_words"
        ]
        assert result.phase_rounds  # phases recorded

    def test_sequential_has_zero_rounds(self, small_er):
        assert solve_ruling_set(small_er, algorithm="greedy-mis").rounds == 0

    def test_local_records_rounds_in_metrics(self, small_er):
        result = solve_ruling_set(small_er, algorithm="local-luby")
        assert result.metrics["local_rounds"] >= 1

    def test_beta_parameter_respected(self, medium_er):
        result = solve_ruling_set(medium_er, algorithm="det-ruling", beta=3)
        assert result.beta == 3

    def test_summary_row(self, small_er):
        row = solve_ruling_set(small_er, algorithm="greedy-mis").summary_row()
        assert row["algorithm"] == "greedy-mis"
        assert row["size"] >= 1

    def test_verification_can_be_disabled(self, small_er):
        result = solve_ruling_set(
            small_er, algorithm="det-luby", regime="near-linear",
            verify=False,
        )
        assert result.size >= 1


class TestSimulatorLifecycle:
    """The session must release backend resources on every path."""

    def _recording_simulator(self, monkeypatch):
        import repro.core.session as session

        sims = []
        real_simulator = session.Simulator

        class RecordingSimulator(real_simulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.shutdown_calls = 0
                sims.append(self)

            def shutdown(self):
                self.shutdown_calls += 1
                super().shutdown()

        monkeypatch.setattr(session, "Simulator", RecordingSimulator)
        return sims

    def test_shutdown_on_success(self, small_er, monkeypatch):
        sims = self._recording_simulator(monkeypatch)
        solve_ruling_set(small_er, algorithm="det-luby")
        assert sims and all(s.shutdown_calls >= 1 for s in sims)

    def test_shutdown_when_solve_raises(self, small_er, monkeypatch):
        # Regression: a raising solve (e.g. MPCViolationError) used to
        # skip the trailing shutdown() and leak backend resources.
        # The registry program factory imports luby_program lazily, so
        # patching the algorithm module's attribute intercepts the call.
        import repro.core.det_luby as det_luby_mod

        from repro.errors import MPCViolationError

        sims = self._recording_simulator(monkeypatch)

        def blow_budget(*args, **kwargs):
            raise MPCViolationError("synthetic budget blowout")

        monkeypatch.setattr(det_luby_mod, "luby_program", blow_budget)
        with pytest.raises(MPCViolationError):
            solve_ruling_set(small_er, algorithm="det-luby")
        assert sims and all(s.shutdown_calls >= 1 for s in sims)


class TestTraceThreading:
    def test_trace_disabled_by_default(self, small_er):
        result = solve_ruling_set(small_er, algorithm="det-ruling")
        assert result.trace is None

    def test_trace_rides_on_result(self, small_er):
        plain = solve_ruling_set(small_er, algorithm="det-ruling")
        traced = solve_ruling_set(
            small_er, algorithm="det-ruling", trace=True
        )
        assert traced.trace is not None
        # Pure observer: members and model metrics are bit-identical.
        assert traced.members == plain.members
        assert traced.metrics == plain.metrics
        assert traced.trace.total_words() == traced.metrics["total_words"]

    def test_trace_ignored_for_sequential(self, small_er):
        result = solve_ruling_set(
            small_er, algorithm="greedy-mis", trace=True
        )
        assert result.trace is None
