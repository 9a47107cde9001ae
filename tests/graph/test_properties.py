"""Tests for graph analysis routines (the verification ground truth)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import GraphError, VertexError
from repro.graph import generators as gen
from repro.graph.graph import Graph
from repro.graph.properties import (
    UNREACHED,
    connected_components,
    domination_radius,
    is_independent_set,
    multi_source_distances,
)


class TestDistances:
    def test_single_source_path(self, path4):
        assert multi_source_distances(path4, [0]) == [0, 1, 2, 3]

    def test_multi_source(self, path4):
        assert multi_source_distances(path4, [0, 3]) == [0, 1, 1, 0]

    def test_unreached(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert multi_source_distances(g, [0]) == [0, 1, UNREACHED]

    def test_bad_source(self, path4):
        with pytest.raises(VertexError):
            multi_source_distances(path4, [5])


class TestIndependence:
    def test_independent(self, path4):
        assert is_independent_set(path4, [0, 2])
        assert is_independent_set(path4, [0, 3])
        assert is_independent_set(path4, [])

    def test_not_independent(self, path4):
        assert not is_independent_set(path4, [0, 1])

    def test_out_of_range(self, path4):
        with pytest.raises(VertexError):
            is_independent_set(path4, [7])


class TestDomination:
    def test_radius(self, path4):
        assert domination_radius(path4, [1]) == 2
        assert domination_radius(path4, [0, 3]) == 1
        assert domination_radius(path4, [0, 1, 2, 3]) == 0

    def test_empty_dominators(self, path4):
        with pytest.raises(GraphError):
            domination_radius(path4, [])

    def test_unreachable(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            domination_radius(g, [0])

    def test_empty_graph(self):
        assert domination_radius(Graph.empty(0), []) == 0


class TestComponents:
    def test_two_components(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        assert connected_components(g) == [[0, 1], [2, 3], [4]]

    def test_connected(self, small_er):
        # The fixture graph is dense enough to be connected.
        assert len(connected_components(small_er)) == 1

    @given(st.integers(1, 30))
    def test_component_partition(self, n):
        g = gen.random_tree(n, seed=n)
        comps = connected_components(g)
        flattened = sorted(v for comp in comps for v in comp)
        assert flattened == list(range(n))

