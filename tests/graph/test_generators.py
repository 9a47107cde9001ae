"""Tests for the workload generators: shapes, determinism, validity."""

import pytest

from repro.errors import GraphError
from repro.graph import generators as gen
from repro.graph.properties import (
    connected_components,
    domination_radius,
    is_independent_set,
)


class TestStructured:
    def test_path(self):
        g = gen.path_graph(5)
        assert g.num_edges == 4
        assert g.degrees() == [1, 2, 2, 2, 1]

    def test_path_trivial(self):
        assert gen.path_graph(1).num_edges == 0
        assert gen.path_graph(0).num_vertices == 0

    def test_cycle(self):
        g = gen.cycle_graph(6)
        assert g.num_edges == 6
        assert all(d == 2 for d in g.degrees())

    def test_cycle_too_small(self):
        with pytest.raises(GraphError):
            gen.cycle_graph(2)

    def test_complete(self):
        g = gen.complete_graph(6)
        assert g.num_edges == 15
        assert all(d == 5 for d in g.degrees())

    def test_star(self):
        g = gen.star_graph(7)
        assert g.degree(0) == 6
        assert all(g.degree(v) == 1 for v in range(1, 7))

    def test_grid(self):
        g = gen.grid_graph(3, 4)
        assert g.num_vertices == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical

    def test_binary_tree(self):
        g = gen.complete_binary_tree(7)
        assert g.num_edges == 6
        assert g.degree(0) == 2
        assert len(connected_components(g)) == 1

    def test_caterpillar(self):
        g = gen.caterpillar_graph(4, 2)
        assert g.num_vertices == 4 + 8
        assert g.num_edges == 3 + 8

    def test_circulant_is_cycle(self):
        assert gen.circulant_graph(6, [1]) == gen.cycle_graph(6)

    def test_circulant_bad_offset(self):
        with pytest.raises(GraphError):
            gen.circulant_graph(6, [4])

    def test_regular_degrees(self):
        for n, d in [(10, 4), (12, 5), (9, 2)]:
            g = gen.regular_graph(n, d)
            assert all(deg == d for deg in g.degrees())

    def test_regular_odd_parity_rejected(self):
        with pytest.raises(GraphError):
            gen.regular_graph(9, 3)

    def test_regular_zero(self):
        assert gen.regular_graph(5, 0).num_edges == 0


class TestSeededFamilies:
    def test_gnp_deterministic(self):
        a = gen.gnp_random_graph(50, 1, 10, seed=3)
        b = gen.gnp_random_graph(50, 1, 10, seed=3)
        assert a == b

    def test_gnp_seed_sensitivity(self):
        a = gen.gnp_random_graph(50, 1, 10, seed=3)
        b = gen.gnp_random_graph(50, 1, 10, seed=4)
        assert a != b

    def test_gnp_density_rough(self):
        g = gen.gnp_random_graph(100, 1, 10, seed=1)
        expected = 100 * 99 / 2 / 10
        assert 0.6 * expected <= g.num_edges <= 1.4 * expected

    def test_gnp_zero_denominator_names_the_bad_value(self):
        with pytest.raises(GraphError, match=r"got p_den=0"):
            gen.gnp_random_graph(10, 1, 0)
        with pytest.raises(GraphError, match=r"got p_den=-2"):
            gen.gnp_random_graph(10, 1, -2)

    def test_gnp_negative_numerator_names_the_bad_value(self):
        with pytest.raises(GraphError, match=r"got p_num=-1"):
            gen.gnp_random_graph(10, -1, 2)

    def test_gnp_probability_above_one_names_the_fraction(self):
        with pytest.raises(
            GraphError, match=r"must be <= 1, got 3/2"
        ):
            gen.gnp_random_graph(10, 3, 2)

    def test_random_tree_is_tree(self):
        g = gen.random_tree(60, seed=5)
        assert g.num_edges == 59
        assert len(connected_components(g)) == 1

    def test_power_law_deterministic(self):
        a = gen.chung_lu_power_law(60, seed=1)
        b = gen.chung_lu_power_law(60, seed=1)
        assert a == b

    def test_power_law_skew(self):
        g = gen.chung_lu_power_law(120, seed=1)
        degrees = sorted(g.degrees(), reverse=True)
        # Head should be much heavier than the tail.
        assert degrees[0] >= 4 * max(1, degrees[len(degrees) // 2])

    def test_power_law_rejects_flat_exponent(self):
        with pytest.raises(GraphError):
            gen.chung_lu_power_law(10, exponent_tenths=10)


class TestPlanted:
    def test_plant_is_ruling_set(self):
        g, centers = gen.planted_ruling_set_graph(6, 3, 2, seed=9)
        assert is_independent_set(g, centers)
        assert domination_radius(g, centers) <= 2

    def test_plant_shape(self):
        g, centers = gen.planted_ruling_set_graph(4, 2, 3, seed=0)
        assert len(centers) == 4
        assert g.num_vertices == 4 * (1 + 2 * 3)

    def test_plant_rejects_bad_args(self):
        with pytest.raises(GraphError):
            gen.planted_ruling_set_graph(0, 1, 1)


class TestRmatAndBarbell:
    def test_rmat_shape(self):
        g = gen.rmat_graph(7, edge_factor=6, seed=2)
        assert g.num_vertices == 128
        assert g.num_edges <= 6 * 128

    def test_rmat_deterministic(self):
        assert gen.rmat_graph(6, seed=4) == gen.rmat_graph(6, seed=4)

    def test_rmat_skew(self):
        g = gen.rmat_graph(8, edge_factor=8, seed=1)
        degrees = sorted(g.degrees(), reverse=True)
        # The head is far heavier than the median: R-MAT's signature.
        assert degrees[0] >= 5 * max(1, degrees[len(degrees) // 2])

    def test_rmat_validation(self):
        with pytest.raises(GraphError):
            gen.rmat_graph(0)
        with pytest.raises(GraphError):
            gen.rmat_graph(4, quadrants=(50, 20, 20, 20))

    def test_barbell_structure(self):
        g = gen.barbell_graph(4, 2)
        assert g.num_vertices == 10
        # Two K4s (6 edges each) + path of 3 edges.
        assert g.num_edges == 6 + 6 + 3
        from repro.graph.properties import connected_components

        assert len(connected_components(g)) == 1

    def test_barbell_no_path(self):
        g = gen.barbell_graph(3, 0)
        assert g.num_vertices == 6
        assert g.num_edges == 3 + 3 + 1

    def test_barbell_validation(self):
        with pytest.raises(GraphError):
            gen.barbell_graph(1, 2)
