"""The distributed graph: vertex-partitioned adjacency across machines.

``DistributedGraph`` is the layer every MPC graph algorithm talks to.  A
machine owns a set of vertices (per a compact
:mod:`~repro.mpc.ownermap` map) and stores their adjacency lists under
``store["g_adj"]``.  Algorithms that operate on *derived* subgraphs (the
induced sample graphs of sparsify-and-gather) pass an alternative
``adj_key``; all operations below take the adjacency key to act on.

Bulk operations (each a stated number of MPC rounds):

* ``push_values`` — every vertex sends a value to all neighbours
  (one round; this is how one LOCAL round is simulated);
* ``push_flags`` — flagged vertices ping their neighbours (one round;
  the step of a removal wave);
* ``deactivate`` — remove vertices and scrub them from neighbours'
  adjacency lists (one round);
* ``gather_flagged_to_zero`` — ship the subgraph induced by flagged
  vertices to machine 0 (two rounds) — the "gather" half of
  sparsify-and-gather;
* reductions: active-vertex count, edge count, max degree.

All payloads are integer tuples and all state is integer containers, so
the simulator's budget enforcement sees every word.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.errors import AlgorithmError
from repro.graph.graph import Graph
from repro.mpc.backends import Outbox
from repro.mpc.machine import Machine
from repro.mpc.ownermap import balanced_range_map
from repro.mpc.primitives.aggregate import reduce_scalar
from repro.mpc.simulator import Simulator

ADJ = "g_adj"
OWNER = "g_owner"
NBR_VALUES = "g_nbr_values"


class DistributedGraph:
    """A graph partitioned across the machines of a :class:`Simulator`."""

    def __init__(self, sim: Simulator, owner_map, num_vertices: int):
        self.sim = sim
        self.owner_map = owner_map
        self.num_vertices = num_vertices

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    @classmethod
    def load(
        cls, sim: Simulator, graph: Graph, owner_map=None
    ) -> "DistributedGraph":
        """Distribute ``graph`` over the simulator's machines.

        Loading is free (it models the input's initial distribution), but
        the loaded state immediately counts against each machine's memory
        budget — an input too large for the configuration faults here.
        """
        if owner_map is None:
            owner_map = balanced_range_map(graph, sim.num_machines)
        serialized = owner_map.serialize()

        def plant(machine: Machine) -> None:
            adj: Dict[int, Tuple[int, ...]] = {}
            for v in owner_map.owned_by(machine.mid):
                adj[v] = tuple(graph.neighbors(v))
            machine.store[ADJ] = adj
            machine.store[OWNER] = tuple(serialized)

        sim.local(plant)
        return cls(sim, owner_map, graph.num_vertices)

    @classmethod
    def load_sharded(cls, sim: Simulator, sharded) -> "DistributedGraph":
        """Distribute a pre-sharded on-disk graph (streaming ingest).

        ``sharded`` is a :class:`~repro.graph.stream.ShardedGraph`: the
        ingest already bucketed each machine's adjacency into its own
        spill file, so *no process ever materializes the full edge list*
        — each machine callback reads only its own shard.  The planted
        state is bit-identical to :meth:`load` under the same owner map
        (same keys in the same ``owned_by`` order, isolated vertices
        included as empty rows), which is what makes streamed and
        in-memory runs interchangeable.
        """
        owner_map = sharded.owner_map
        serialized = owner_map.serialize()

        def plant(machine: Machine) -> None:
            rows = sharded.read_shard(machine.mid)
            adj: Dict[int, Tuple[int, ...]] = {}
            for v in owner_map.owned_by(machine.mid):
                adj[v] = rows.get(v, ())
            machine.store[ADJ] = adj
            machine.store[OWNER] = tuple(serialized)

        sim.local(plant)
        return cls(sim, owner_map, sharded.num_vertices)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def owner_of(self, v: int) -> int:
        """Machine owning vertex ``v`` (O(1) from compact metadata)."""
        return self.owner_map.owner_of(v)

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------
    def push_values(
        self,
        values_key: str,
        out_key: str = NBR_VALUES,
        adj_key: str = ADJ,
    ) -> None:
        """Send each active vertex's value to all its neighbours (1 round).

        ``store[values_key]`` must map every active owned vertex to an int
        or tuple of ints.  Afterwards ``store[out_key]`` maps each active
        owned vertex ``u`` to the sorted list of ``(v, *value)`` tuples
        received from its neighbours ``v``.
        """

        def send(machine: Machine) -> Outbox:
            adj = machine.store.peek(adj_key)
            values = machine.store.peek(values_key)
            owners = self.owner_map.owners
            out = []
            for v, neighbors in adj.items():
                value = values[v]
                payload_tail = (
                    tuple(value) if isinstance(value, tuple) else (int(value),)
                )
                for u in neighbors:
                    out.append((owners[u], (u, v) + payload_tail))
            return out

        self.sim.communicate(send)

        def receive(machine: Machine) -> None:
            adj = machine.store.peek(adj_key)
            grouped: Dict[int, List[Tuple[int, ...]]] = {u: [] for u in adj}
            for payload in machine.inbox:
                u = payload[0]
                if u not in grouped:
                    raise AlgorithmError(
                        f"value pushed to non-active vertex {u}"
                    )
                grouped[u].append(tuple(payload[1:]))
            machine.clear_inbox()
            for u in grouped:
                grouped[u].sort()
            machine.store[out_key] = grouped

        self.sim.local(receive)

    def push_flags(
        self, flag_key: str, out_key: str, adj_key: str = ADJ
    ) -> None:
        """Flagged vertices ping all neighbours (1 round).

        ``store[flag_key]`` holds each machine's flagged owned vertices.
        Afterwards ``store[out_key]`` is the set of owned active vertices
        that received at least one ping.
        """

        def send(machine: Machine) -> Outbox:
            adj = machine.store.peek(adj_key)
            owners = self.owner_map.owners
            out = []
            for v in machine.store.peek(flag_key, ()):
                for u in adj.get(v, ()):
                    out.append((owners[u], (u,)))
            return out

        self.sim.communicate(send)

        def receive(machine: Machine) -> None:
            adj = machine.store.peek(adj_key)
            pinged = {
                payload[0]
                for payload in machine.inbox
                if payload[0] in adj
            }
            machine.clear_inbox()
            machine.store[out_key] = set(sorted(pinged))

        self.sim.local(receive)

    def deactivate(self, removed_key: str, adj_key: str = ADJ) -> None:
        """Remove vertices and scrub them from neighbours (1 round).

        ``store[removed_key]`` holds, per machine, the set of its *owned*
        vertices to remove.  The key is consumed.
        """

        def announce(machine: Machine) -> Outbox:
            adj = machine.store.peek(adj_key)
            removed: Set[int] = set(machine.store.pop(removed_key, ()))
            owners = self.owner_map.owners
            out = []
            for v in removed:
                if v not in adj:
                    continue
                for u in adj[v]:
                    out.append((owners[u], (u, v)))
            machine.store["_g_removing"] = sorted(removed)
            return out

        self.sim.communicate(announce)

        def scrub(machine: Machine) -> None:
            removing = machine.store.pop("_g_removing")
            gone: Dict[int, Set[int]] = {}
            for u, v in machine.inbox:
                gone.setdefault(u, set()).add(v)
            machine.clear_inbox()
            if not removing and not gone:
                return  # no row changes: the adjacency keeps its price
            adj = machine.store[adj_key]
            for v in removing:
                adj.pop(v, None)
            for u, dropped in gone.items():
                if u in adj:
                    adj[u] = tuple(x for x in adj[u] if x not in dropped)

        self.sim.local(scrub)

    def count_active(self, adj_key: str = ADJ) -> int:
        """Number of active vertices (one reduction)."""
        return reduce_scalar(
            self.sim,
            lambda machine: len(machine.store.peek(adj_key)),
            lambda a, b: a + b,
        )

    def count_active_edges(self, adj_key: str = ADJ) -> int:
        """Number of active edges (one reduction)."""
        half = reduce_scalar(
            self.sim,
            lambda machine: sum(
                len(neighbors)
                for neighbors in machine.store.peek(adj_key).values()
            ),
            lambda a, b: a + b,
        )
        return half // 2

    def max_active_degree(self, adj_key: str = ADJ) -> int:
        """Maximum active degree (one reduction)."""
        return reduce_scalar(
            self.sim,
            lambda machine: max(
                (len(nbrs) for nbrs in machine.store.peek(adj_key).values()),
                default=0,
            ),
            max,
        )

    def gather_flagged_to_zero(
        self,
        flag_key: str,
        out_vertices: str,
        out_edges: str,
        adj_key: str = ADJ,
    ) -> None:
        """Ship the subgraph induced by flagged vertices to machine 0.

        ``store[flag_key]`` holds each machine's set of flagged owned
        vertices.  Two rounds: flags are first pushed to neighbours, then
        machine 0 receives every flagged vertex id and every induced edge
        once (from the owner of its smaller endpoint).  Machine 0 ends up
        with sorted lists under ``out_vertices`` / ``out_edges``.

        The caller is responsible for flagging few enough vertices that
        the induced subgraph fits machine 0's budget — the simulator
        faults otherwise, which is the model-honest behaviour.
        """

        def send_flags(machine: Machine) -> Outbox:
            adj = machine.store.peek(adj_key)
            flagged: Set[int] = set(machine.store.peek(flag_key))
            owners = self.owner_map.owners
            out = []
            for v in flagged:
                if v not in adj:
                    continue
                for u in adj[v]:
                    out.append((owners[u], (u, v)))
            return out

        self.sim.communicate(send_flags)

        def send_subgraph(machine: Machine) -> Outbox:
            adj = machine.store.peek(adj_key)
            flagged: Set[int] = set(machine.store.peek(flag_key))
            flagged_neighbors: Dict[int, Set[int]] = {}
            for u, v in machine.inbox:
                flagged_neighbors.setdefault(u, set()).add(v)
            machine.clear_inbox()
            out = []
            for v in sorted(flagged):
                if v not in adj:
                    continue
                out.append((0, (v,)))
                for u in flagged_neighbors.get(v, ()):
                    if v < u:
                        out.append((0, (v, u)))
            return out

        self.sim.communicate(send_subgraph)

        def collect(machine: Machine) -> None:
            if machine.mid != 0:
                machine.clear_inbox()
                return
            vertices = sorted(
                payload[0] for payload in machine.inbox if len(payload) == 1
            )
            edges = sorted(
                (payload[0], payload[1])
                for payload in machine.inbox
                if len(payload) == 2
            )
            machine.clear_inbox()
            machine.store[out_vertices] = vertices
            machine.store[out_edges] = edges

        self.sim.local(collect)

    # ------------------------------------------------------------------
    # Driver-side readout (free: outside the model, used for verification)
    # ------------------------------------------------------------------
    def snapshot_active(
        self, adj_key: str = ADJ
    ) -> Tuple[List[int], List[Tuple[int, int]]]:
        """Return (active vertices, active edges) read off the machines."""

        def read(machine: Machine):
            adj = machine.store[adj_key]
            local_vertices = list(adj)
            local_edges = [
                (v, u)
                for v, neighbors in adj.items()
                for u in neighbors
                if v < u
            ]
            return local_vertices, local_edges

        vertices: List[int] = []
        edges: List[Tuple[int, int]] = []
        for local_vertices, local_edges in self.sim.harvest(read):
            vertices.extend(local_vertices)
            edges.extend(local_edges)
        return sorted(vertices), sorted(edges)

    def collect_marked(self, key: str) -> List[int]:
        """Union of per-machine vertex sets stored under ``key`` (readout)."""
        marked: List[int] = []
        for chunk in self.sim.harvest(
            lambda machine: list(machine.store.peek(key, ()))
        ):
            marked.extend(chunk)
        return sorted(set(marked))
