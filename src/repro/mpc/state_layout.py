"""Flat machine-local state: CSR adjacency, id maps, and kernel choice.

The simulator's machine stores hold adjacency as ``{v: (neighbours,)}``
dicts — the representation the word accountant audits and the message
layer serialises.  The hot *compute* loops (hash-threshold marking,
conditional-expectation scans) do not need that flexibility: they need
every id and every edge endpoint as a flat integer array so one NumPy
expression replaces a per-vertex/per-edge Python loop.

This module is that bridge, plus the kernel-selection contract:

``resolve_kernel`` / ``kernel_of``
    Map a requested kernel name to the one that will actually run.
    Resolution order: explicit value (``MPCConfig.kernel``, CLI
    ``--kernel``) > the ``REPRO_KERNEL`` environment variable > the
    pure-Python reference kernel.  NumPy is an optional dependency: the
    python kernel runs without it (CI runs the whole tier-1 suite that
    way), but requesting ``numpy`` where NumPy is not importable raises
    :class:`~repro.errors.MPCConfigError` instead of running another
    kernel.

``MachineCSR``
    One machine's adjacency layer as flat arrays: ``ids`` (row order =
    the store dict's insertion order, so rebuilt dicts iterate
    identically), ``indptr``/``indices`` (CSR neighbour storage — the
    flat-ball layout of the GMM reference implementation), ``degrees``,
    and an ``id_to_index`` map.  Built once per superstep from the dict
    and discarded — arrays never land in a machine store, so the word
    accountant and the budget enforcement see exactly the state they
    always saw.

``hash_ids``
    The affine family ``(a*x + b) mod p`` evaluated over an id array in
    one vectorized expression.  Exactness guard: the int64 product
    ``a * x`` is exact only for ``p <= 2**31`` (``a, x < p`` gives
    ``a*x < 2**62 < 2**63``); :func:`supports_modulus` gates every
    vectorized path and callers fall back to the Python kernel above it,
    so a larger field can never silently wrap.

**Bit-identity is the contract.**  Every array path must produce the
same Python objects the reference kernel produces — same dict contents
in the same insertion order, same sorted lists, plain ``int``s (never
``numpy.int64``, which the word accountant rejects by design).  The
dual-kernel parity gate in CI replays the refactor-parity oracle under
both kernels and fails on any record diff.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import MPCConfigError

KERNEL_PYTHON = "python"
KERNEL_NUMPY = "numpy"
KERNELS = (KERNEL_PYTHON, KERNEL_NUMPY)

# Environment override consumed when a config leaves the kernel unset.
KERNEL_ENV = "REPRO_KERNEL"
# Test hook: pretend NumPy is not installed (exercises the missing-NumPy
# error without uninstalling anything).
NO_NUMPY_ENV = "REPRO_NO_NUMPY"

# Largest modulus the int64 hash product is exact for (see module doc).
MAX_VECTOR_MODULUS = 1 << 31

_numpy_cache: List[object] = []  # [module-or-None] once probed


def numpy_or_none():
    """The ``numpy`` module, or ``None`` when unavailable (memoized).

    ``REPRO_NO_NUMPY`` (any non-empty value) forces ``None`` — it is
    checked on every call, not memoized, so tests can flip it.
    """
    if os.environ.get(NO_NUMPY_ENV):
        return None
    if not _numpy_cache:
        try:
            import numpy
        except ImportError:
            numpy = None
        _numpy_cache.append(numpy)
    return _numpy_cache[0]


def numpy_available() -> bool:
    """True when the numpy kernel can actually run."""
    return numpy_or_none() is not None


def resolve_kernel(requested: Optional[str] = None) -> str:
    """Resolve a kernel request to the kernel that will run.

    ``requested`` is an explicit choice (``MPCConfig.kernel``, CLI
    ``--kernel``) and wins when set; otherwise the ``REPRO_KERNEL``
    environment variable is consulted; otherwise the pure-Python
    reference kernel runs.  Requesting ``numpy`` when NumPy is not
    importable raises :class:`~repro.errors.MPCConfigError`.

    >>> resolve_kernel("python")
    'python'
    """
    name = requested
    if name is None or name == "":
        name = os.environ.get(KERNEL_ENV) or KERNEL_PYTHON
    if name not in KERNELS:
        raise MPCConfigError(
            f"unknown kernel {name!r}; expected one of {KERNELS}"
        )
    if name == KERNEL_NUMPY and not numpy_available():
        raise MPCConfigError(
            "kernel 'numpy' requested but NumPy is not importable; "
            "install numpy or use the 'python' kernel"
        )
    return name


def kernel_of(sim) -> str:
    """The resolved kernel for a simulator's configuration."""
    return resolve_kernel(getattr(sim.config, "kernel", None))


def supports_modulus(p: int) -> bool:
    """True when the vectorized hash is exact for field modulus ``p``."""
    return 2 <= p <= MAX_VECTOR_MODULUS


def hash_ids(np, ids, a: int, b: int, p: int):
    """Vectorized affine hash ``(a*ids + b) mod p`` (int64, exact).

    ``ids`` is an int64 array with every entry in ``[0, p)``; callers
    must have checked :func:`supports_modulus` first.
    """
    return (a * ids + b) % p


class MachineCSR:
    """One adjacency layer of one machine, as flat arrays.

    Row order is the adjacency dict's insertion order — the same order
    every Python-kernel loop iterates — so array paths that rebuild
    dicts or emit per-vertex lists reproduce the reference kernel's
    output bit for bit.  Transient by design: build inside a superstep
    callback, compute, drop.  Never store one (the word accountant
    rejects arrays, deliberately).
    """

    __slots__ = ("np", "ids", "indptr", "indices", "degrees", "_id_to_index")

    def __init__(self, np, ids, indptr, indices, degrees):
        self.np = np
        self.ids = ids
        self.indptr = indptr
        self.indices = indices
        self.degrees = degrees
        self._id_to_index: Optional[Dict[int, int]] = None

    @classmethod
    def from_adjacency(
        cls, adj: Dict[int, Sequence[int]], np=None
    ) -> "MachineCSR":
        """Build from a machine's ``{v: (neighbours,)}`` store entry."""
        if np is None:
            np = numpy_or_none()
        if np is None:  # pragma: no cover - callers gate on the kernel
            raise MPCConfigError("MachineCSR requires numpy")
        ids = np.fromiter(adj.keys(), dtype=np.int64, count=len(adj))
        degrees = np.fromiter(
            (len(nbrs) for nbrs in adj.values()),
            dtype=np.int64,
            count=len(adj),
        )
        indptr = np.zeros(len(adj) + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        total = int(indptr[-1]) if len(adj) else 0
        indices = np.fromiter(
            (u for nbrs in adj.values() for u in nbrs),
            dtype=np.int64,
            count=total,
        )
        return cls(np, ids, indptr, indices, degrees)

    @property
    def num_vertices(self) -> int:
        return int(self.ids.shape[0])

    @property
    def id_to_index(self) -> Dict[int, int]:
        """Global id -> row index (built lazily, once per superstep)."""
        if self._id_to_index is None:
            self._id_to_index = {
                int(v): i for i, v in enumerate(self.ids.tolist())
            }
        return self._id_to_index

    def hash_ids(self, seed):
        """``h(v)`` for every row id, in row order."""
        return hash_ids(self.np, self.ids, seed.a, seed.b, seed.p)

    def hash_indices(self, seed):
        """``h(u)`` for every CSR neighbour entry, in storage order."""
        return hash_ids(self.np, self.indices, seed.a, seed.b, seed.p)

    def row_any(self, entry_mask):
        """Per-row "any neighbour entry satisfies ``entry_mask``".

        ``entry_mask`` is a boolean array over ``indices``.  Rows with
        no entries report ``False`` (``np.add.reduceat`` is undefined on
        empty rows, so they are routed around explicitly).
        """
        np = self.np
        out = np.zeros(self.num_vertices, dtype=bool)
        nonempty = self.degrees > 0
        if bool(nonempty.any()):
            starts = self.indptr[:-1][nonempty]
            # Between two consecutive non-empty rows only empty rows
            # occur, which occupy no entries — each reduceat segment is
            # exactly one row's slice.
            sums = np.add.reduceat(
                entry_mask.astype(np.int64), starts
            )
            out[nonempty] = sums > 0
        return out

    def sampled_subgraph(
        self, seed, threshold: int
    ) -> Dict[int, Tuple[int, ...]]:
        """``{v: (u for u in N(v) if h(u) < T)}`` for sampled rows.

        The induced-level construction of sparsify-and-gather: keep rows
        whose id hashes below ``threshold`` and filter each kept row's
        neighbour entries by the same predicate.  Dict insertion order
        equals row order, matching the reference kernel's comprehension.
        """
        np = self.np
        row_hash = self.hash_ids(seed)
        entry_keep = self.hash_indices(seed) < threshold
        out: Dict[int, Tuple[int, ...]] = {}
        keep_rows = np.nonzero(row_hash < threshold)[0].tolist()
        indptr = self.indptr
        indices = self.indices
        ids = self.ids.tolist()
        for i in keep_rows:
            lo, hi = int(indptr[i]), int(indptr[i + 1])
            out[ids[i]] = tuple(indices[lo:hi][entry_keep[lo:hi]].tolist())
        return out


def flatten_groups(
    groups: Iterable[Sequence[int]], np=None
) -> Tuple[object, object]:
    """Flatten variable-length integer groups to ``(indptr, values)``.

    The generic flat-ball layout: ``values[indptr[i]:indptr[i+1]]`` is
    group ``i``.  Used wherever per-vertex lists (winner sets, incident
    edges) need array treatment without per-group Python loops.
    """
    if np is None:
        np = numpy_or_none()
    if np is None:  # pragma: no cover - callers gate on the kernel
        raise MPCConfigError("flatten_groups requires numpy")
    groups = list(groups)
    lengths = np.fromiter(
        (len(g) for g in groups), dtype=np.int64, count=len(groups)
    )
    indptr = np.zeros(len(groups) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    values = np.fromiter(
        (x for g in groups for x in g),
        dtype=np.int64,
        count=int(indptr[-1]) if len(groups) else 0,
    )
    return indptr, values


class BoundedCache:
    """A tiny LRU for driver-side per-machine caches.

    ``capacity=None`` means unbounded — correct when every machine stays
    resident (serial/process backends).  Out-of-core backends report how
    many machines are resident at once
    (:meth:`~repro.mpc.backends.SuperstepBackend.resident_machines_hint`);
    sizing per-machine caches to that bound keeps the driver's footprint
    O(shard) instead of silently rebuilding O(all machines) state the
    backend just spilled.

    >>> c = BoundedCache(2)
    >>> c.put(1, "a"); c.put(2, "b"); c.put(3, "c")
    >>> c.get(1) is None
    True
    >>> c.get(3)
    'c'
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise MPCConfigError(
                f"cache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._entries: "OrderedDict" = OrderedDict()

    def get(self, key):
        entry = self._entries.get(key)
        if entry is not None or key in self._entries:
            self._entries.move_to_end(key)
        return entry

    def put(self, key, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if self.capacity is not None:
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)
