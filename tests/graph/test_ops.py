"""Tests for graph transformations (the power graph)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import GraphError
from repro.graph import generators as gen
from repro.graph.ops import power_graph
from repro.graph.properties import multi_source_distances


class TestPowerGraph:
    def test_square_of_path(self, path4):
        g2 = power_graph(path4, 2)
        assert set(g2.edges()) == {
            (0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
        }

    def test_first_power_is_identity(self, small_er):
        assert power_graph(small_er, 1) == small_er

    def test_rejects_zero(self, path4):
        with pytest.raises(GraphError):
            power_graph(path4, 0)

    @given(st.integers(4, 12), st.integers(1, 3))
    def test_matches_bfs_distances(self, n, k):
        g = gen.cycle_graph(n)
        gk = power_graph(g, k)
        for v in g.vertices():
            dist = multi_source_distances(g, [v])
            expected = {u for u in g.vertices() if u != v and 0 < dist[u] <= k}
            assert set(gk.neighbors(v)) == expected
