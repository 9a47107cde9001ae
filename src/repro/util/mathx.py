"""Small exact integer helpers.

Everything here is pure integer arithmetic; nothing depends on floats, so
results are identical across platforms — a requirement for a library whose
headline feature is determinism.
"""

from __future__ import annotations


def ceil_div(a: int, b: int) -> int:
    """Return ``ceil(a / b)`` for integers with ``b > 0``.

    >>> ceil_div(7, 3)
    3
    >>> ceil_div(6, 3)
    2
    >>> ceil_div(0, 5)
    0
    """
    if b <= 0:
        raise ValueError(f"ceil_div requires b > 0, got {b}")
    return -(-a // b)


def ilog2_ceil(x: int) -> int:
    """Return ``ceil(log2(x))`` for ``x >= 1``.

    >>> ilog2_ceil(1)
    0
    >>> ilog2_ceil(8)
    3
    >>> ilog2_ceil(9)
    4
    """
    if x < 1:
        raise ValueError(f"ilog2_ceil requires x >= 1, got {x}")
    return (x - 1).bit_length()


def int_nth_root_floor(x: int, n: int) -> int:
    """Return ``floor(x ** (1/n))`` using exact integer Newton iteration.

    >>> int_nth_root_floor(26, 3)
    2
    >>> int_nth_root_floor(27, 3)
    3
    """
    if x < 0:
        raise ValueError("x must be non-negative")
    if n < 1:
        raise ValueError("n must be >= 1")
    if x in (0, 1) or n == 1:
        return x
    # Initial guess from bit length, then monotone Newton descent.
    guess = 1 << ceil_div(x.bit_length(), n)
    while True:
        nxt = ((n - 1) * guess + x // guess ** (n - 1)) // n
        if nxt >= guess:
            break
        guess = nxt
    while guess**n > x:
        guess -= 1
    return guess


def ipow_ceil(base_num: int, alpha_num: int, alpha_den: int) -> int:
    """Return ``ceil(base_num ** (alpha_num / alpha_den))`` exactly.

    Used to size per-machine memory ``S = n^alpha`` with rational ``alpha``
    without floating-point drift.

    >>> ipow_ceil(100, 1, 2)   # ceil(sqrt(100))
    10
    >>> ipow_ceil(10, 2, 3)    # ceil(10^(2/3)) = ceil(4.64...)
    5
    """
    if base_num < 0 or alpha_num < 0 or alpha_den <= 0:
        raise ValueError("arguments must be non-negative with alpha_den > 0")
    if base_num == 0:
        return 0
    powered = base_num**alpha_num
    root = int_nth_root_floor(powered, alpha_den)
    if root**alpha_den < powered:
        root += 1
    return root
