"""Assigning vertices to MPC machines.

The MPC simulator needs a *partition plan*: which machine owns each vertex
(and with it that vertex's adjacency list).  A plan comes from one of two
places:

``balanced_edge_partition``
    Contiguous vertex ranges chosen so each machine's total adjacency size
    is as even as a greedy sweep can make it — per-machine memory in the
    model is charged for adjacency storage.

``plan_from_owner_map``
    The explicit form of a compact :mod:`~repro.mpc.ownermap` map, for
    balance reporting and for cross-checking the two representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import MPCConfigError
from repro.graph.graph import Graph


@dataclass(frozen=True)
class PartitionPlan:
    """Maps each vertex to its owning machine.

    ``owner[v]`` is the machine id of vertex ``v``; ``num_machines`` is the
    machine count (machines may own zero vertices).
    """

    owner: List[int]
    num_machines: int

    def __post_init__(self) -> None:
        if self.num_machines < 1:
            raise MPCConfigError("need at least one machine")
        for v, machine in enumerate(self.owner):
            if not 0 <= machine < self.num_machines:
                raise MPCConfigError(
                    f"vertex {v} assigned to invalid machine {machine}"
                )

    def vertices_of(self, machine: int) -> List[int]:
        """Return the vertices owned by ``machine`` in increasing order."""
        return [v for v, m in enumerate(self.owner) if m == machine]

    def machine_loads(self, graph: Graph) -> List[int]:
        """Adjacency words stored per machine (degree sums)."""
        loads = [0] * self.num_machines
        for v in graph.vertices():
            loads[self.owner[v]] += graph.degree(v)
        return loads


def balanced_edge_partition(graph: Graph, num_machines: int) -> PartitionPlan:
    """Contiguous ranges balancing adjacency load across machines.

    Ideal-boundary sweep: vertex ``v`` goes to the machine whose ideal
    cost interval ``[i*total/k, (i+1)*total/k)`` contains ``v``'s prefix
    cost.  Every machine's load is at most ``total/k + (Δ + 1)`` — a
    single vertex is never split and nothing piles onto the last machine.

    >>> g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    >>> plan = balanced_edge_partition(g, 2)
    >>> plan.num_machines
    2
    """
    if num_machines < 1:
        raise MPCConfigError("need at least one machine")
    n = graph.num_vertices
    owner = [0] * n
    total = max(1, 2 * graph.num_edges + n)
    prefix = 0
    for v in range(n):
        owner[v] = min(prefix * num_machines // total, num_machines - 1)
        prefix += graph.degree(v) + 1
    return PartitionPlan(owner=owner, num_machines=num_machines)


def plan_from_owner_map(owner_map) -> PartitionPlan:
    """Materialize a compact :mod:`~repro.mpc.ownermap` map into a plan.

    The owner maps are the computable O(k)-word form used on the
    machines; a :class:`PartitionPlan` is the explicit O(n) driver-side
    form — useful for balance reporting (:meth:`PartitionPlan.machine_loads`)
    and for cross-checking the two representations agree.
    """
    owner = [
        owner_map.owner_of(v) for v in range(owner_map.num_vertices)
    ]
    return PartitionPlan(owner=owner, num_machines=owner_map.num_machines)

