"""Streaming edge-list ingest: pass-1 stats, sharding, hostile inputs.

The load-bearing claim is ingest parity: ``shard_edge_list`` followed by
``DistributedGraph.load_sharded`` must plant *bit-identical* machine
state to reading the whole file in memory and loading it under the same
owner map — streamed and in-memory runs are interchangeable.
"""

import pytest

from repro.errors import GraphError
from repro.graph import stream as stream_module
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list, stream_edge_list, write_edge_list
from repro.graph.stream import scan_edge_list_stats, shard_edge_list
from repro.mpc.config import MPCConfig
from repro.mpc.graph_store import ADJ, OWNER, DistributedGraph
from repro.mpc.ownermap import HashOwnerMap, ModOwnerMap, edge_id
from repro.mpc.simulator import Simulator


def _write(tmp_path, text, name="g.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return path


class TestStreamEdgeList:
    def test_yields_header_then_edges(self, tmp_path):
        path = _write(tmp_path, "3 2\n0 1\n1 2\n")
        assert list(stream_edge_list(path)) == [(3, 2), (0, 1), (1, 2)]

    def test_comment_only_file_raises_no_header(self, tmp_path):
        path = _write(tmp_path, "# nothing\n# but comments\n")
        with pytest.raises(GraphError, match="no header"):
            list(stream_edge_list(path))

    def test_torn_final_line(self, tmp_path):
        # A partial write (no trailing newline, one token) must fail
        # loudly as a malformed edge line, not be silently dropped.
        path = _write(tmp_path, "3 2\n0 1\n1")
        with pytest.raises(GraphError, match="bad edge line"):
            list(stream_edge_list(path))

    def test_torn_final_token(self, tmp_path):
        path = _write(tmp_path, "3 2\n0 1\n1 2x")
        with pytest.raises(GraphError, match="bad edge token"):
            list(stream_edge_list(path))

    def test_negative_vertex_rejected(self, tmp_path):
        path = _write(tmp_path, "3 1\n0 -1\n")
        with pytest.raises(GraphError, match="non-negative"):
            list(stream_edge_list(path))

    def test_out_of_range_vertex_rejected(self, tmp_path):
        path = _write(tmp_path, "3 1\n0 5\n")
        with pytest.raises(GraphError, match="exceed declared"):
            list(stream_edge_list(path))


class TestScanStats:
    def test_counts_match_graph(self, tmp_path, small_er):
        path = tmp_path / "g.txt"
        write_edge_list(small_er, path)
        stats = scan_edge_list_stats(path)
        assert stats.num_vertices == small_er.num_vertices
        assert stats.declared_edges == small_er.num_edges
        assert stats.max_degree == small_er.max_degree()

    def test_duplicate_lines_overcount_degree(self, tmp_path):
        # Dedup needs memory pass 1 doesn't have: the degree estimate on
        # duplicated lines is an upper bound (never an undercount).
        path = _write(tmp_path, "3 2\n0 1\n1 0\n0 2\n")
        stats = scan_edge_list_stats(path)
        assert stats.max_degree >= 2

    def test_empty_graph(self, tmp_path):
        path = _write(tmp_path, "0 0\n")
        stats = scan_edge_list_stats(path)
        assert stats.num_vertices == 0
        assert stats.max_degree == 0


class TestShardEdgeList:
    def _parity_state(self, sim, dg):
        return [
            (dict(m.store[ADJ]), m.store[OWNER]) for m in sim.machines
        ]

    @pytest.mark.parametrize(
        "owner_factory",
        [
            lambda n, k: ModOwnerMap(n, k),
            lambda n, k: HashOwnerMap(n, k, seed=7),
        ],
    )
    def test_planted_state_bit_identical_to_in_memory_load(
        self, tmp_path, small_er, owner_factory
    ):
        path = tmp_path / "g.txt"
        write_edge_list(small_er, path)
        k = 6
        owner_map = owner_factory(small_er.num_vertices, k)
        cfg = MPCConfig(num_machines=k, memory_words=65536)

        with Simulator(cfg) as sim:
            DistributedGraph.load(sim, small_er, owner_map)
            expected = self._parity_state(sim, None)

        with shard_edge_list(path, owner_map) as sharded:
            assert sharded.num_edges == small_er.num_edges
            assert sharded.max_degree == small_er.max_degree()
            with Simulator(cfg) as sim:
                DistributedGraph.load_sharded(sim, sharded)
                streamed = self._parity_state(sim, None)

        assert streamed == expected

    def test_isolated_vertices_planted_as_empty_rows(self, tmp_path):
        path = _write(tmp_path, "5 1\n0 1\n")
        owner_map = ModOwnerMap(5, 2)
        with shard_edge_list(path, owner_map) as sharded:
            cfg = MPCConfig(num_machines=2, memory_words=1024)
            with Simulator(cfg) as sim:
                DistributedGraph.load_sharded(sim, sharded)
                adjs = [dict(m.store[ADJ]) for m in sim.machines]
        assert adjs[0] == {0: (1,), 2: (), 4: ()}
        assert adjs[1] == {1: (0,), 3: ()}

    def test_duplicate_orientations_match_reader(self, tmp_path):
        text = "3 2\n0 1\n1 0\n1 2\n2 1\n"
        path = _write(tmp_path, text)
        graph = read_edge_list(path)
        with shard_edge_list(path, ModOwnerMap(3, 2)) as sharded:
            assert sharded.num_edges == graph.num_edges == 2
            assert sharded.max_degree == graph.max_degree()

    def test_declared_count_mismatch_raises_and_cleans_up(self, tmp_path):
        path = _write(tmp_path, "3 3\n0 1\n1 2\n")
        with pytest.raises(GraphError, match="declared m=3 but read 2"):
            shard_edge_list(path, ModOwnerMap(3, 2))

    def test_checksum_invariant_under_line_order(self, tmp_path):
        a = _write(tmp_path, "4 3\n0 1\n1 2\n2 3\n", name="a.txt")
        b = _write(tmp_path, "4 3\n2 3\n1 0\n1 2\n", name="b.txt")
        with shard_edge_list(a, ModOwnerMap(4, 2)) as sa:
            with shard_edge_list(b, ModOwnerMap(4, 3)) as sb:
                assert sa.checksum == sb.checksum != 0

    def test_checksum_is_xor_of_edge_ids(self, tmp_path):
        path = _write(tmp_path, "4 2\n0 1\n2 3\n")
        with shard_edge_list(path, ModOwnerMap(4, 2)) as sharded:
            assert sharded.checksum == edge_id(0, 1) ^ edge_id(2, 3)

    def test_owner_map_size_mismatch_rejected(self, tmp_path):
        path = _write(tmp_path, "3 1\n0 1\n")
        with pytest.raises(GraphError, match="owner map covers"):
            shard_edge_list(path, ModOwnerMap(5, 2))

    def test_tiny_chunk_size_changes_nothing(
        self, tmp_path, small_er, monkeypatch
    ):
        path = tmp_path / "g.txt"
        write_edge_list(small_er, path)
        owner_map = ModOwnerMap(small_er.num_vertices, 4)
        with shard_edge_list(path, owner_map) as big:
            monkeypatch.setattr(stream_module, "CHUNK_EDGES", 1)
            with shard_edge_list(path, owner_map) as tiny:
                assert tiny.checksum == big.checksum
                assert tiny.num_edges == big.num_edges
                for mid in range(4):
                    assert tiny.read_shard(mid) == big.read_shard(mid)

    def test_cleanup_is_idempotent(self, tmp_path):
        path = _write(tmp_path, "2 1\n0 1\n")
        sharded = shard_edge_list(path, ModOwnerMap(2, 1))
        sharded.cleanup()
        sharded.cleanup()
        assert sharded.read_shard(0) == {}


class TestSpillDirLifecycle:
    """An aborted ingest must never leak its ``repro-ingest-*`` dir.

    Regression: ``shard_edge_list`` only removed the spill directory on
    the declared-count-mismatch path; a raise mid-stream (malformed
    line, interrupt, full disk) left the directory and its spool files
    behind.  ``REPRO_SHARD_DIR`` makes the leak observable: every
    spill dir lands under a root we fully control.
    """

    def _leftovers(self, root):
        return sorted(p.name for p in root.glob("repro-ingest-*"))

    def test_count_mismatch_cleans_up(self, tmp_path, monkeypatch):
        root = tmp_path / "spill"
        monkeypatch.setenv("REPRO_SHARD_DIR", str(root))
        path = _write(tmp_path, "3 3\n0 1\n1 2\n")
        with pytest.raises(GraphError, match="declared m=3 but read 2"):
            shard_edge_list(path, ModOwnerMap(3, 2))
        assert self._leftovers(root) == []

    def test_malformed_line_mid_stream_cleans_up(self, tmp_path, monkeypatch):
        root = tmp_path / "spill"
        monkeypatch.setenv("REPRO_SHARD_DIR", str(root))
        path = _write(tmp_path, "4 3\n0 1\n1 2x\n2 3\n")
        with pytest.raises(GraphError, match="bad edge token"):
            shard_edge_list(path, ModOwnerMap(4, 2))
        assert self._leftovers(root) == []

    def test_interrupt_mid_ingest_cleans_up(self, tmp_path, monkeypatch):
        # KeyboardInterrupt is a BaseException: the cleanup must catch
        # wider than Exception to cover operator interrupts.
        root = tmp_path / "spill"
        monkeypatch.setenv("REPRO_SHARD_DIR", str(root))
        path = _write(tmp_path, "4 2\n0 1\n2 3\n")
        owner_map = ModOwnerMap(4, 2)
        calls = []

        class Interrupting:
            num_vertices = owner_map.num_vertices
            num_machines = owner_map.num_machines

            def owner_of(self, v):
                calls.append(v)
                if len(calls) > 2:
                    raise KeyboardInterrupt
                return owner_map.owner_of(v)

        with pytest.raises(KeyboardInterrupt):
            shard_edge_list(path, Interrupting())
        assert calls  # the ingest really was underway
        assert self._leftovers(root) == []

    def test_success_hands_dir_to_sharded_graph(self, tmp_path, monkeypatch):
        root = tmp_path / "spill"
        monkeypatch.setenv("REPRO_SHARD_DIR", str(root))
        path = _write(tmp_path, "3 2\n0 1\n1 2\n")
        with shard_edge_list(path, ModOwnerMap(3, 2)):
            assert len(self._leftovers(root)) == 1
        assert self._leftovers(root) == []


class TestReaderSingleMaterialization:
    def test_isolated_vertices_without_rebuild(self, tmp_path, monkeypatch):
        # Regression: the old reader padded isolated vertices by
        # rebuilding through Graph.from_edges — a second O(n + m)
        # materialization at peak.  The builder is now seeded with the
        # header's n, so exactly one Graph is ever constructed.
        path = _write(tmp_path, "5 1\n0 1\n")
        builds = []
        original = Graph.from_edges.__func__

        def counting(cls, *args, **kwargs):
            builds.append(1)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Graph, "from_edges", classmethod(counting))
        graph = read_edge_list(path)
        assert graph.num_vertices == 5
        assert graph.degree(4) == 0
        assert sum(builds) == 1
