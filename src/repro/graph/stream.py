"""Streaming edge-list ingest: shard while reading, never hold all of m.

The in-memory loader (:func:`repro.graph.io.read_edge_list`) materializes
the whole graph in the driver — exactly what the shard backend exists to
avoid.  This module provides the out-of-core path:

:func:`scan_edge_list_stats`
    Pass 1 — stream the file once, accumulating an O(n) degree array.
    Yields the global quantities regime sizing needs (``n``, declared
    ``m``, ``Δ``) before any edge is stored anywhere.

:func:`shard_edge_list`
    Pass 2 — stream the file again, bucketing *both orientations* of
    each edge toward the owner machine of its endpoint (per a computable
    :mod:`~repro.mpc.ownermap` map).  Buckets flush to per-machine spool
    files in bounded chunks, then each machine's spool is finalized
    independently — deduplicated, sorted, counted, checksummed — holding
    only that one machine's adjacency in memory.  Peak driver memory is
    O(chunk + largest shard), never O(m).

The resulting :class:`ShardedGraph` plugs into
:meth:`repro.mpc.graph_store.DistributedGraph.load_sharded`, whose
planted stores are bit-identical to an in-memory load under the same
owner map — streamed and in-memory runs are interchangeable, which the
ingest-parity tests pin.

The two-pass shape resolves a sizing cycle: the owner map needs the
machine count ``k``, ``k`` comes from the regime config, and the config's
memory floor needs ``Δ`` — which only a read of the file can produce.
Pass 1 breaks the cycle with O(n) memory.  On files containing duplicate
edge lines the pass-1 degree estimate over-counts (dedup needs memory),
which can only make the sized memory budget *larger* — never unsound;
pass 2 reports the exact deduplicated ``m`` and ``Δ``.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import GraphError
from repro.graph.io import PathLike, stream_edge_list
from repro.mpc.ownermap import edge_id
from repro.mpc.shard import SPILL_DIR_ENV

#: Edge orientations buffered across all machines before the ingest
#: flushes its spools (driver memory only).
CHUNK_EDGES = 65536


@dataclass(frozen=True)
class EdgeListStats:
    """Pass-1 global quantities of a streamed edge list.

    ``max_degree`` counts every edge line (duplicates included): exact
    for files written by :func:`~repro.graph.io.write_edge_list`, an
    upper bound otherwise — safe for memory sizing either way.
    """

    num_vertices: int
    declared_edges: int
    max_degree: int


def scan_edge_list_stats(path: PathLike) -> EdgeListStats:
    """Stream ``path`` once; return (n, declared m, Δ) with O(n) memory."""
    stream = stream_edge_list(path)
    num_vertices, declared_edges = next(stream)
    degrees = [0] * num_vertices
    for u, v in stream:
        if u == v:
            continue
        degrees[u] += 1
        degrees[v] += 1
    return EdgeListStats(
        num_vertices=num_vertices,
        declared_edges=declared_edges,
        max_degree=max(degrees, default=0),
    )


@dataclass
class ShardedGraph:
    """An on-disk, owner-map-partitioned adjacency, ready to plant.

    Each machine's shard file holds ``{v: sorted neighbor tuple}`` for
    the vertices it owns (isolated owned vertices are absent — the plant
    fills them from ``owned_by``).  ``checksum`` is the XOR of the
    symmetric :func:`~repro.mpc.ownermap.edge_id` over all distinct
    edges: two ingests of the same graph agree on it regardless of line
    order or duplicated orientations.
    """

    num_vertices: int
    num_edges: int
    max_degree: int
    owner_map: object
    shard_dir: str
    checksum: int
    _owns_dir: bool = field(default=True, repr=False)

    def shard_path(self, mid: int) -> str:
        return os.path.join(self.shard_dir, f"adj_{mid}.pkl")

    def read_shard(self, mid: int) -> Dict[int, Tuple[int, ...]]:
        """Load one machine's adjacency rows (empty dict if none)."""
        path = self.shard_path(mid)
        if not os.path.exists(path):
            return {}
        with open(path, "rb") as handle:
            return pickle.load(handle)

    def cleanup(self) -> None:
        """Remove the shard files (idempotent)."""
        if self._owns_dir and os.path.isdir(self.shard_dir):
            shutil.rmtree(self.shard_dir, ignore_errors=True)

    def __enter__(self) -> "ShardedGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.cleanup()


def shard_edge_list(
    path: PathLike,
    owner_map,
    spill_dir: Optional[str] = None,
) -> ShardedGraph:
    """Stream ``path`` into per-machine adjacency shards.

    ``owner_map`` must cover the file's vertex range (its ``num_vertices``
    is trusted as the ingest's ``n``).  Every edge is spooled toward both
    endpoints' owners in bounded chunks; the per-machine finalize then
    deduplicates and sorts one shard at a time.  The declared edge count
    is validated against the exact post-dedup count, matching the
    in-memory reader's error.
    """
    stream = stream_edge_list(path)
    num_vertices, declared_edges = next(stream)
    if owner_map.num_vertices != num_vertices:
        raise GraphError(
            f"owner map covers {owner_map.num_vertices} vertices but "
            f"{path} declares n={num_vertices}"
        )
    k = owner_map.num_machines
    root = spill_dir or os.environ.get(SPILL_DIR_ENV)
    if root is not None:
        os.makedirs(root, exist_ok=True)
    shard_dir = tempfile.mkdtemp(prefix="repro-ingest-", dir=root)
    try:
        return _ingest_into(
            shard_dir, stream, owner_map, num_vertices, declared_edges,
        )
    except BaseException:
        # Anything that aborts the ingest — a malformed line mid-file,
        # a declared-count mismatch, a full disk, an interrupt — must
        # not leak the spill directory we just created.  Success hands
        # ownership to the returned ShardedGraph (whose cleanup() /
        # context manager removes it).
        shutil.rmtree(shard_dir, ignore_errors=True)
        raise


def _ingest_into(
    shard_dir: str,
    stream,
    owner_map,
    num_vertices: int,
    declared_edges: int,
) -> ShardedGraph:
    """The ingest body; ``shard_edge_list`` owns spill-dir lifecycle."""
    k = owner_map.num_machines
    spool_paths = [os.path.join(shard_dir, f"spool_{mid}.pkl") for mid in range(k)]
    spools: List[Optional[object]] = [None] * k
    buffers: List[List[Tuple[int, int]]] = [[] for _ in range(k)]
    buffered = 0

    def _flush_all() -> None:
        nonlocal buffered
        for mid in range(k):
            if not buffers[mid]:
                continue
            if spools[mid] is None:
                spools[mid] = open(spool_paths[mid], "wb")
            pickle.dump(
                buffers[mid], spools[mid], protocol=pickle.HIGHEST_PROTOCOL
            )
            buffers[mid] = []
        buffered = 0

    try:
        for u, v in stream:
            if u == v:
                continue  # builder semantics: self-loops are absorbed
            buffers[owner_map.owner_of(u)].append((u, v))
            buffers[owner_map.owner_of(v)].append((v, u))
            buffered += 2
            if buffered >= CHUNK_EDGES:
                _flush_all()
        _flush_all()
    finally:
        for spool in spools:
            if spool is not None:
                spool.close()

    # Finalize one shard at a time: dedup, sort, count, checksum.  A
    # distinct edge (v, u) with v < u contributes to the canonical count
    # at the owner of v exactly once, so the shard totals sum to m.
    total_edges = 0
    max_degree = 0
    checksum = 0
    for mid in range(k):
        rows: Dict[int, set] = {}
        if os.path.exists(spool_paths[mid]):
            with open(spool_paths[mid], "rb") as handle:
                while True:
                    try:
                        chunk = pickle.load(handle)
                    except EOFError:
                        break
                    for v, u in chunk:
                        rows.setdefault(v, set()).add(u)
            os.unlink(spool_paths[mid])
        if not rows:
            continue
        adj: Dict[int, Tuple[int, ...]] = {}
        for v in sorted(rows):
            neighbors = tuple(sorted(rows[v]))
            adj[v] = neighbors
            if len(neighbors) > max_degree:
                max_degree = len(neighbors)
            for u in neighbors:
                if v < u:
                    total_edges += 1
                    checksum ^= edge_id(v, u)
        with open(os.path.join(shard_dir, f"adj_{mid}.pkl"), "wb") as handle:
            pickle.dump(adj, handle, protocol=pickle.HIGHEST_PROTOCOL)

    if total_edges != declared_edges:
        raise GraphError(
            f"declared m={declared_edges} but read {total_edges} edges"
        )
    return ShardedGraph(
        num_vertices=num_vertices,
        num_edges=total_edges,
        max_degree=max_degree,
        owner_map=owner_map,
        shard_dir=shard_dir,
        checksum=checksum,
    )
