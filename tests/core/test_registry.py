"""Registry coverage: every name solves, flags match behavior, errors teach.

The registry is the single source of truth for algorithm names and
capabilities, so these tests sweep *the registry itself*: every
registered algorithm must solve a small graph through its public entry
point, unknown names must raise an error that enumerates the registry,
and the capability flags (``uses_seed``, ``supports_alpha_gt2``) must
describe what the algorithms actually do — a flag that drifts from
behavior is a registry bug even if every solver still works.
"""

import dataclasses

import pytest

from repro.core import registry
from repro.core.det_matching import solve_matching, verify_maximal_matching
from repro.core.pipeline import solve_ruling_set
from repro.core.registry import (
    FAMILIES,
    LOCAL_FAMILY,
    MATCHING,
    MPC_FAMILY,
    PROBLEMS,
    RULING_SET,
    SEQUENTIAL_FAMILY,
    AlgorithmSpec,
)
from repro.core.verify import check_ruling_set
from repro.errors import AlgorithmError
from repro.graph import generators as gen

RULING_NAMES = registry.algorithm_names(problem=RULING_SET)
MATCHING_NAMES = registry.algorithm_names(problem=MATCHING)


def small_graph():
    return gen.gnp_random_graph(64, 8, 64, seed=5)


class TestEveryNameSolves:
    @pytest.mark.parametrize("name", RULING_NAMES)
    def test_ruling_set_names(self, name):
        graph = small_graph()
        result = solve_ruling_set(graph, algorithm=name, seed=1)
        assert result.algorithm == name
        assert result.members
        measured = check_ruling_set(graph, result.members)
        assert measured.independent_at >= 2

    @pytest.mark.parametrize("name", MATCHING_NAMES)
    def test_matching_names(self, name):
        graph = small_graph()
        result = solve_matching(graph, algorithm=name, seed=1)
        assert result.algorithm == name
        verify_maximal_matching(graph, result.matching)

    def test_registry_covers_both_problems(self):
        assert RULING_NAMES and MATCHING_NAMES
        assert set(RULING_NAMES + MATCHING_NAMES) == set(
            registry.algorithm_names()
        )


class TestUnknownNames:
    def test_get_algorithm_enumerates_registry(self):
        with pytest.raises(AlgorithmError) as excinfo:
            registry.get_algorithm("no-such-algorithm")
        message = str(excinfo.value)
        for name in registry.algorithm_names():
            assert name in message

    def test_solve_ruling_set_unknown(self):
        with pytest.raises(AlgorithmError, match="no-such-algorithm"):
            solve_ruling_set(small_graph(), algorithm="no-such-algorithm")

    def test_solve_matching_unknown(self):
        with pytest.raises(AlgorithmError, match="no-such-algorithm"):
            solve_matching(small_graph(), algorithm="no-such-algorithm")

    def test_problem_mismatch_rejected_both_ways(self):
        graph = small_graph()
        with pytest.raises(AlgorithmError):
            solve_ruling_set(graph, algorithm=MATCHING_NAMES[0])
        with pytest.raises(AlgorithmError):
            solve_matching(graph, algorithm=RULING_NAMES[0])

    def test_is_registered(self):
        assert registry.is_registered(registry.DET_RULING)
        assert not registry.is_registered("no-such-algorithm")


class TestSeedFlagMatchesBehavior:
    """``uses_seed`` must describe the output, not just the signature.

    Seeds 1 and 9 are pinned: every seeded algorithm demonstrably
    diverges between them on this workload (all algorithms are
    deterministic functions of the seed, so this never flakes).
    """

    @pytest.mark.parametrize("name", RULING_NAMES)
    def test_ruling_set_seed_sensitivity(self, name):
        graph = small_graph()
        first = solve_ruling_set(graph, algorithm=name, seed=1).members
        second = solve_ruling_set(graph, algorithm=name, seed=9).members
        if registry.get_algorithm(name).uses_seed:
            assert first != second
        else:
            assert first == second

    @pytest.mark.parametrize("name", MATCHING_NAMES)
    def test_matching_seed_sensitivity(self, name):
        graph = small_graph()
        first = solve_matching(graph, algorithm=name, seed=1).matching
        second = solve_matching(graph, algorithm=name, seed=9).matching
        if registry.get_algorithm(name).uses_seed:
            assert first != second
        else:
            assert first == second


class TestAlphaFlagMatchesBehavior:
    """``supports_alpha_gt2`` must gate α > 2 exactly."""

    @pytest.mark.parametrize("name", RULING_NAMES)
    def test_alpha3_gated_by_flag(self, name):
        graph = gen.random_tree(48, seed=3)
        if registry.get_algorithm(name).supports_alpha_gt2:
            result = solve_ruling_set(
                graph, algorithm=name, alpha=3, seed=1,
                regime="near-linear",
            )
            measured = check_ruling_set(graph, result.members, alpha=3)
            assert measured.independent_at == 3
        else:
            with pytest.raises(AlgorithmError):
                solve_ruling_set(
                    graph, algorithm=name, alpha=3, seed=1,
                    regime="near-linear",
                )


class TestRegistration:
    def test_duplicate_name_rejected(self):
        spec = registry.get_algorithm(registry.DET_RULING)
        with pytest.raises(AlgorithmError, match="already registered"):
            registry.register(spec)

    def test_bad_family_rejected(self):
        with pytest.raises(AlgorithmError, match="family"):
            registry.register(AlgorithmSpec(
                name="bogus-family-alg", family="quantum",
                problem=RULING_SET, description="", runner=lambda ctx: None,
            ))
        assert not registry.is_registered("bogus-family-alg")

    def test_mpc_spec_with_runner_rejected(self):
        spec = registry.get_algorithm(registry.DET_RULING)
        with pytest.raises(AlgorithmError, match="program_factory"):
            registry.register(dataclasses.replace(
                spec, name="bogus-mpc-runner", runner=lambda ctx: None,
            ))
        assert not registry.is_registered("bogus-mpc-runner")

    def test_mpc_spec_without_program_factory_rejected(self):
        spec = registry.get_algorithm(registry.DET_RULING)
        with pytest.raises(AlgorithmError, match="program_factory"):
            registry.register(dataclasses.replace(
                spec, name="bogus-mpc-bare", program_factory=None,
            ))
        assert not registry.is_registered("bogus-mpc-bare")

    @pytest.mark.parametrize("family", [LOCAL_FAMILY, SEQUENTIAL_FAMILY])
    def test_direct_spec_without_runner_rejected(self, family):
        with pytest.raises(AlgorithmError, match="runner"):
            registry.register(AlgorithmSpec(
                name="bogus-direct-alg", family=family,
                problem=RULING_SET, description="",
            ))
        assert not registry.is_registered("bogus-direct-alg")

    def test_ruling_set_spec_without_claimed_beta_rejected(self):
        # Without a claim the driver would have no beta to report or
        # verify against.
        spec = registry.get_algorithm(registry.GREEDY_MIS)
        with pytest.raises(AlgorithmError, match="claimed_beta"):
            registry.register(dataclasses.replace(
                spec, name="bogus-unclaimed", claimed_beta=None,
            ))
        assert not registry.is_registered("bogus-unclaimed")

    def test_bad_problem_rejected(self):
        with pytest.raises(AlgorithmError, match="problem"):
            registry.register(AlgorithmSpec(
                name="bogus-problem-alg", family=MPC_FAMILY,
                problem="sorting", description="",
                program_factory=lambda ctx: None,
            ))
        assert not registry.is_registered("bogus-problem-alg")

    def test_specs_well_formed(self):
        for spec in registry.algorithm_specs():
            assert spec.family in FAMILIES
            assert spec.problem in PROBLEMS
            assert spec.description
            if spec.family == MPC_FAMILY:
                assert callable(spec.program_factory)
                assert spec.runner is None
            else:
                assert callable(spec.runner)
                assert spec.program_factory is None

    def test_family_filters_partition_registry(self):
        by_family = [
            registry.algorithm_names(family=family)
            for family in (MPC_FAMILY, LOCAL_FAMILY, SEQUENTIAL_FAMILY)
        ]
        flattened = [name for names in by_family for name in names]
        assert sorted(flattened) == sorted(registry.algorithm_names())


class TestGeneratedText:
    def test_help_text_lists_every_name(self):
        text = registry.help_text()
        for name in registry.algorithm_names():
            assert name in text

    def test_markdown_table_row_per_algorithm(self):
        table = registry.markdown_table()
        rows = [line for line in table.splitlines() if line.startswith("| `")]
        assert len(rows) == len(registry.algorithm_names())
        for spec in registry.algorithm_specs():
            assert f"`{spec.name}`" in table
            assert spec.description.split("(")[0].strip()[:20] in table

    def test_markdown_table_has_rounds_column(self):
        table = registry.markdown_table()
        header = table.splitlines()[0]
        assert "| Rounds |" in header
        for spec in registry.algorithm_specs():
            row = next(
                line for line in table.splitlines()
                if line.startswith(f"| `{spec.name}`")
            )
            assert f"| {spec.round_complexity} |" in row

    def test_help_text_rounds_variant(self):
        text = registry.help_text(rounds=True)
        for spec in registry.algorithm_specs():
            assert f"{spec.name} [{spec.round_complexity}]" in text

    def test_readme_table_matches_generator(self):
        # The README algorithm table is generated, never hand-edited;
        # this pins the committed block to the current generator output.
        import pathlib

        readme = pathlib.Path(__file__).resolve().parents[2] / "README.md"
        source = readme.read_text(encoding="utf-8")
        table = registry.markdown_table()
        assert table in source, (
            "README algorithm table is stale — regenerate it with "
            "registry.markdown_table()"
        )
