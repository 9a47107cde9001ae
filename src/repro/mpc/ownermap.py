"""Compact, computable vertex→machine ownership maps.

A low-space machine cannot store the full ``owner[v]`` table (that is
``n`` words).  Ownership must instead be *computable* from O(k) words of
shared metadata.  Each map's ``owners`` property is that table, but as a
simulation memo, not machine state: the driver builds it once from the
map's own metadata (a pure function of the priced ``serialize()``
tuple), send callbacks index it instead of calling ``owner_of`` per
message, and it is never stored on a machine, sent or priced.  Three
implementations:

* :class:`RangeOwnerMap` — contiguous vertex ranges given by ``k + 1``
  boundary values (produced from a balanced edge partition);
* :class:`ModOwnerMap` — ``v mod k`` (O(1) words);
* :class:`HashOwnerMap` — SplitMix64 of the id (O(1) words), used to check
  partition-independence of algorithms.

Every map exposes ``owner_of(v)`` (range-checked), the ``owners`` memo
(unchecked: callers index it only with adjacency ids, which are in range
by construction), and a ``serialize()/deserialize()`` pair so the
metadata can be shipped to machines as plain integer tuples.

Edges are addressed by a symmetric 64-bit id — ``edge_id(u, v) ==
edge_id(v, u)`` — so both endpoints' owners agree on the name of a shared
edge without coordination.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Tuple

from repro.errors import MPCConfigError
from repro.graph.graph import Graph
from repro.util.rng import splitmix64

_KIND_RANGE = 0
_KIND_MOD = 1
_KIND_HASH = 2

_GOLDEN = 0x9E3779B97F4A7C15


def _check_vertex(v: int, num_vertices: int) -> None:
    """Shared bounds check: every map rejects out-of-range ids the same way."""
    if not 0 <= v < num_vertices:
        raise MPCConfigError(f"vertex {v} out of range")


def _check_sizes(num_vertices: int, num_machines: int) -> None:
    """Shared constructor validation for the computable (mod/hash) maps."""
    if num_vertices < 0:
        raise MPCConfigError(f"num_vertices must be >= 0, got {num_vertices}")
    if num_machines < 1:
        raise MPCConfigError(f"num_machines must be >= 1, got {num_machines}")


def edge_id(u: int, v: int) -> int:
    """Symmetric 64-bit edge id: ``edge_id(u, v) == edge_id(v, u)``.

    The canonical orientation ``(min, max)`` is mixed through SplitMix64
    twice so adjacent ids do not collide under small moduli.

    >>> edge_id(3, 7) == edge_id(7, 3)
    True
    >>> edge_id(0, 1) != edge_id(0, 2)
    True
    """
    lo, hi = (u, v) if u <= v else (v, u)
    if lo < 0:
        raise MPCConfigError(f"vertex {lo} out of range")
    return splitmix64(splitmix64(lo) ^ ((hi * _GOLDEN) & ((1 << 64) - 1)))


@dataclass(frozen=True)
class RangeOwnerMap:
    """Contiguous ranges: machine ``i`` owns ``[bounds[i], bounds[i+1])``."""

    bounds: Tuple[int, ...]  # length k + 1, bounds[0] == 0

    def __post_init__(self) -> None:
        if len(self.bounds) < 2 or self.bounds[0] != 0:
            raise MPCConfigError("bounds must start at 0 with length k+1")
        for a, b in zip(self.bounds, self.bounds[1:]):
            if b < a:
                raise MPCConfigError("bounds must be non-decreasing")

    @property
    def num_machines(self) -> int:
        return len(self.bounds) - 1

    @property
    def num_vertices(self) -> int:
        return self.bounds[-1]

    def owner_of(self, v: int) -> int:
        """Return the owner of vertex ``v``.

        >>> RangeOwnerMap((0, 2, 5)).owner_of(3)
        1
        """
        _check_vertex(v, self.num_vertices)
        return bisect_right(self.bounds, v) - 1

    @cached_property
    def owners(self) -> Tuple[int, ...]:
        """``owners[v] == owner_of(v)``: each machine id over its range."""
        bounds = self.bounds
        return tuple(
            chain.from_iterable(
                repeat(m, bounds[m + 1] - bounds[m])
                for m in range(self.num_machines)
            )
        )

    def owned_by(self, machine: int) -> range:
        """Vertices owned by ``machine``."""
        return range(self.bounds[machine], self.bounds[machine + 1])

    def serialize(self) -> Tuple[int, ...]:
        return (_KIND_RANGE,) + self.bounds


@dataclass(frozen=True)
class ModOwnerMap:
    """Round-robin ownership ``owner(v) = v mod k``."""

    num_vertices: int
    num_machines: int

    def __post_init__(self) -> None:
        _check_sizes(self.num_vertices, self.num_machines)

    def owner_of(self, v: int) -> int:
        _check_vertex(v, self.num_vertices)
        return v % self.num_machines

    @cached_property
    def owners(self) -> Tuple[int, ...]:
        """``owners[v] == owner_of(v)``."""
        k = self.num_machines
        return tuple(v % k for v in range(self.num_vertices))

    def owned_by(self, machine: int) -> range:
        return range(machine, self.num_vertices, self.num_machines)

    def serialize(self) -> Tuple[int, ...]:
        return (_KIND_MOD, self.num_vertices, self.num_machines)


@dataclass(frozen=True)
class HashOwnerMap:
    """Pseudo-random ownership via SplitMix64 of the vertex id."""

    num_vertices: int
    num_machines: int
    seed: int = 0

    def __post_init__(self) -> None:
        _check_sizes(self.num_vertices, self.num_machines)

    def owner_of(self, v: int) -> int:
        _check_vertex(v, self.num_vertices)
        return splitmix64(v ^ (self.seed * _GOLDEN)) % self.num_machines

    @cached_property
    def owners(self) -> Tuple[int, ...]:
        """``owners[v] == owner_of(v)``."""
        mix, k = self.seed * _GOLDEN, self.num_machines
        return tuple(splitmix64(v ^ mix) % k for v in range(self.num_vertices))

    def owned_by(self, machine: int) -> list:
        return [v for v, m in enumerate(self.owners) if m == machine]

    def serialize(self) -> Tuple[int, ...]:
        return (_KIND_HASH, self.num_vertices, self.num_machines, self.seed)


def balanced_range_map(graph: Graph, num_machines: int) -> RangeOwnerMap:
    """Contiguous ranges balancing adjacency words per machine.

    Same greedy sweep as
    :func:`repro.graph.partition.balanced_edge_partition`, expressed as
    compact boundaries.

    >>> g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    >>> balanced_range_map(g, 2).num_machines
    2
    """
    if num_machines < 1:
        raise MPCConfigError("need at least one machine")
    n = graph.num_vertices
    total = max(1, 2 * graph.num_edges + n)
    # Ideal-boundary assignment: vertex v goes to the machine whose ideal
    # cost interval contains v's prefix cost.  Every machine's load is at
    # most total/k + (Δ + 1): no leftover pile-up on the last machine.
    bounds = [0]
    prefix = 0
    current = 0
    for v in range(n):
        machine = prefix * num_machines // total
        machine = min(machine, num_machines - 1)
        while current < machine:
            bounds.append(v)
            current += 1
        prefix += graph.degree(v) + 1
    while len(bounds) < num_machines:
        bounds.append(n)
    bounds.append(n)
    return RangeOwnerMap(tuple(bounds))


def deserialize_owner_map(data: Tuple[int, ...]):
    """Inverse of each map's ``serialize``.

    Hostile payloads (wrong arity, non-integer fields, unknown kinds)
    raise :class:`MPCConfigError` instead of ``IndexError``/``TypeError``
    — the metadata travels between machines as a plain tuple, so this is
    an input-validation boundary, not an internal invariant.
    """
    if not isinstance(data, (tuple, list)) or not data:
        raise MPCConfigError(
            f"owner-map payload must be a non-empty tuple, got {data!r}"
        )
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in data):
        raise MPCConfigError(f"owner-map payload must be all ints, got {data!r}")
    kind = data[0]
    if kind == _KIND_RANGE:
        if len(data) < 3:
            raise MPCConfigError(f"range owner-map payload too short: {data!r}")
        return RangeOwnerMap(tuple(data[1:]))
    if kind == _KIND_MOD:
        if len(data) != 3:
            raise MPCConfigError(f"mod owner-map payload needs 3 fields, got {data!r}")
        return ModOwnerMap(num_vertices=data[1], num_machines=data[2])
    if kind == _KIND_HASH:
        if len(data) != 4:
            raise MPCConfigError(f"hash owner-map payload needs 4 fields, got {data!r}")
        return HashOwnerMap(
            num_vertices=data[1], num_machines=data[2], seed=data[3]
        )
    raise MPCConfigError(f"unknown owner-map kind {kind}")
