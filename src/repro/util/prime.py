"""Deterministic primality testing and prime search.

The derandomization machinery hashes vertex ids with affine maps over a
prime field ``GF(p)``; ``p`` must exceed every vertex id and is found with
:func:`next_prime`.  Primality uses the Miller–Rabin test with a witness set
that is *proven deterministic* for all 64-bit integers (Sorenson & Webster,
2015), so no randomness and no false positives for every size this library
produces.
"""

from __future__ import annotations

# Witnesses sufficient for deterministic Miller-Rabin below 3.3 * 10^24,
# which covers all 64-bit (and somewhat larger) moduli this library uses.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)


def _miller_rabin_witness(n: int, a: int, d: int, r: int) -> bool:
    """Return True if witness ``a`` proves ``n`` composite."""
    x = pow(a, d, n)
    if x in (1, n - 1):
        return False
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministically decide primality of ``n`` (exact for n < 3.3e24).

    >>> is_prime(2)
    True
    >>> is_prime(1)
    False
    >>> is_prime(2**31 - 1)
    True
    >>> is_prime(2**32 + 1)
    False
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        if _miller_rabin_witness(n, a, d, r):
            return False
    return True


def next_prime(n: int) -> int:
    """Return the smallest prime ``>= n``.

    >>> next_prime(0)
    2
    >>> next_prime(14)
    17
    >>> next_prime(17)
    17
    """
    if n <= 2:
        return 2
    candidate = n | 1  # first odd >= n
    while not is_prime(candidate):
        candidate += 2
    return candidate
