"""Deterministic low-level utilities shared by all subsystems.

Submodules
----------
``mathx``
    Exact integer helpers (ceil-div, ceil log2, integer roots and powers).
``prime``
    Deterministic Miller–Rabin primality and ``next_prime`` for building
    hash-family moduli.
``rng``
    SplitMix64, a counter-based deterministic PRG used by the *randomized*
    baselines (the deterministic algorithms use no randomness at all).
"""

from repro.util.mathx import ceil_div, ilog2_ceil
from repro.util.prime import is_prime, next_prime
from repro.util.rng import SplitMix64

__all__ = [
    "ceil_div",
    "ilog2_ceil",
    "is_prime",
    "next_prime",
    "SplitMix64",
]
