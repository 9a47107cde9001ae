"""Kernel selection: which implementation evaluates the seed search.

The simulator's machine stores hold adjacency as ``{v: (neighbours,)}``
dicts, and every per-machine loop runs in plain Python over them.  The
one place array code runs is the derandomization estimator's batched
scoring (:class:`~repro.derand.estimator.ThresholdEstimator` under
``kernel="numpy"``); this module is the contract that picks it.

``resolve_kernel`` / ``kernel_of``
    Map a requested kernel name to the one that will actually run.
    Resolution order: explicit value (``MPCConfig.kernel``, CLI
    ``--kernel``) > the ``REPRO_KERNEL`` environment variable > the
    pure-Python reference kernel.  NumPy is an optional dependency: the
    python kernel runs without it (CI runs the whole tier-1 suite that
    way), but requesting ``numpy`` where NumPy is not importable raises
    :class:`~repro.errors.MPCConfigError` instead of running another
    kernel.

``supports_modulus``
    Exactness guard for the int64 hash product: ``a * x`` with
    ``a, x < p`` stays below ``2**62`` only for ``p <= 2**31``
    (``MAX_VECTOR_MODULUS``).  The numpy estimator refuses a larger
    field rather than risk a silent wrap.

**Bit-identity is the contract.**  The array path must produce the same
Python objects the reference kernel produces — plain ``int``s, never
``numpy.int64``, which the word accountant rejects by design.  The
dual-kernel parity gate in CI replays the refactor-parity oracle under
both kernels and fails on any record diff.
"""

from __future__ import annotations

import os
from typing import List, Optional

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
