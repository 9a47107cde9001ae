"""The affine pairwise-independent hash family over ``GF(p)``.

``H = { h_{a,b}(x) = (a x + b) mod p : a, b in Z_p }`` satisfies *exact*
pairwise independence: for distinct ``x != y`` and any targets
``(s, t) in Z_p^2`` there is exactly one ``(a, b)`` with
``h(x) = s, h(y) = t`` — the map ``(a, b) -> (h(x), h(y))`` is a bijection.
Every deterministic algorithm in this library draws its "randomness" from
one member of this family, selected by
:mod:`repro.derand.conditional` or :mod:`repro.derand.seed_search`.

The modulus must exceed every hashed id; the deterministic algorithms use
``field_for_ids`` with headroom factor 4 so marking thresholds
``p // (2 d)`` never truncate to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.errors import DerandomizationError
from repro.util.prime import is_prime, next_prime


@dataclass(frozen=True)
class Seed:
    """One member ``h_{a,b}`` of the affine family mod ``p``."""

    a: int
    b: int
    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise DerandomizationError(f"modulus {self.p} is not prime")
        if not (0 <= self.a < self.p and 0 <= self.b < self.p):
            raise DerandomizationError(
                f"seed ({self.a}, {self.b}) out of range for p={self.p}"
            )

    def hash(self, x: int) -> int:
        """Return ``h_{a,b}(x)``.

        >>> Seed(2, 3, 7).hash(5)
        6
        """
        return (self.a * x + self.b) % self.p

    def any_below(self, xs: Iterable[int], t: int) -> bool:
        """Whether ``hash(x) < t`` for some ``x`` in ``xs``.

        Equal to ``any(self.hash(x) < t for x in xs)``, evaluated in one
        call per neighbourhood: samplers test whole adjacency rows, and
        a method call per id dominated their scans.

        >>> Seed(2, 3, 7).any_below((5, 1), 6)
        True
        >>> Seed(2, 3, 7).any_below((), 7)
        False
        """
        a, b, p = self.a, self.b, self.p
        for x in xs:
            if (a * x + b) % p < t:
                return True
        return False

    def below(self, xs: Iterable[int], t: int) -> List[int]:
        """The ``x`` in ``xs`` with ``hash(x) < t``, in order.

        >>> Seed(2, 3, 7).below((0, 1, 5), 6)
        [0, 1]
        """
        a, b, p = self.a, self.b, self.p
        return [x for x in xs if (a * x + b) % p < t]

    def index(self) -> int:
        """Rank of this seed in the canonical enumeration ``a * p + b``."""
        return self.a * self.p + self.b


@dataclass(frozen=True)
class AffineFamily:
    """The full family for a fixed prime modulus ``p``."""

    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise DerandomizationError(f"modulus {self.p} is not prime")

    @classmethod
    def field_for_ids(cls, max_id: int, headroom: int = 4) -> "AffineFamily":
        """Family whose modulus exceeds ``headroom * (max_id + 1)``.

        >>> AffineFamily.field_for_ids(10).p >= 44
        True
        """
        if max_id < 0:
            raise DerandomizationError("max_id must be non-negative")
        if headroom < 1:
            raise DerandomizationError("headroom must be >= 1")
        return cls(p=next_prime(headroom * (max_id + 1)))

    @property
    def size(self) -> int:
        """Number of members, ``p^2``."""
        return self.p * self.p

    def seed(self, a: int, b: int) -> Seed:
        """Return member ``h_{a,b}``."""
        return Seed(a=a % self.p, b=b % self.p, p=self.p)

    def seed_by_index(self, index: int) -> Seed:
        """Return the ``index``-th member of the canonical enumeration.

        The enumeration starts at ``a = 1`` (injective members first) and
        wraps the degenerate ``a = 0`` members to the end — scanning from
        index 0 therefore tries useful hash functions first.

        >>> AffineFamily(7).seed_by_index(0)
        Seed(a=1, b=0, p=7)
        """
        index %= self.size
        a, b = divmod(index, self.p)
        return Seed(a=(a + 1) % self.p, b=b, p=self.p)

    def scan_seed(self, index: int) -> Seed:
        """The ``index``-th member of the *well-spread* scan order.

        The canonical enumeration fixes ``a`` and sweeps ``b``, which is
        the wrong order for scanning: nearby members differ only by a
        shift, so an unlucky slab produces long runs of correlated
        rejections.  This order decorrelates consecutive candidates by
        driving both coordinates with the SplitMix64 mixer (still a pure
        function of ``index`` — deterministic and reproducible; repeats
        are possible and harmless).

        >>> AffineFamily(11).scan_seed(3) == AffineFamily(11).scan_seed(3)
        True
        """
        from repro.util.rng import splitmix64

        a = 1 + splitmix64(2 * index) % max(1, self.p - 1)
        b = splitmix64(2 * index + 1) % self.p
        return Seed(a=a % self.p, b=b, p=self.p)


def threshold_for_rate(p: int, rate_num: int, rate_den: int) -> int:
    """Threshold ``T`` so that ``Pr[h(x) < T] ≈ rate_num / rate_den``.

    Rounds up so the probability is at least the requested rate and always
    at least ``1/p`` (a zero threshold would make sampling impossible).

    >>> threshold_for_rate(101, 1, 2)
    51
    """
    if rate_den <= 0 or rate_num < 0:
        raise DerandomizationError("rate must be a non-negative fraction")
    return min(p, max(1, -(-p * rate_num // rate_den)))
