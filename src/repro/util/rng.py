"""SplitMix64: a tiny, fast, counter-based deterministic PRG.

The *deterministic* algorithms in this library consume no random bits.  The
*randomized baselines* (Luby's MIS, sample-and-gather) do, and for honest
benchmarking those runs must be reproducible bit-for-bit.  SplitMix64 is a
stateless mixing function of a 64-bit counter, so a ``(seed, stream, index)``
triple fully determines every draw — there is no hidden global state and
independent logical streams never interact.
"""

from __future__ import annotations

from dataclasses import dataclass

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """Return the SplitMix64 mix of a 64-bit value.

    >>> splitmix64(0) == splitmix64(0)
    True
    >>> 0 <= splitmix64(12345) < 2**64
    True
    """
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass
class SplitMix64:
    """A counter-based PRG stream.

    Parameters
    ----------
    seed:
        Stream seed; two streams with different seeds are independent for
        every practical purpose.
    counter:
        Starting counter, exposed so a stream can be reconstructed at any
        point (useful for replaying a simulated machine's draws).
    """

    seed: int = 0
    counter: int = 0

    def next_u64(self) -> int:
        """Return the next 64-bit draw and advance the counter."""
        value = splitmix64((self.seed * 0x632BE59BD9B4E019 + self.counter) & _MASK64)
        self.counter += 1
        return value

    def next_below(self, bound: int) -> int:
        """Return a draw uniform on ``[0, bound)`` (rejection sampling).

        >>> rng = SplitMix64(seed=7)
        >>> all(0 <= rng.next_below(10) < 10 for _ in range(100))
        True
        """
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        if bound > (1 << 64):
            # With bound > 2**64 the rejection limit below is 0 and the
            # loop would never terminate (no 64-bit draw can be uniform
            # on a wider range anyway).
            raise ValueError(f"bound must be <= 2**64, got {bound}")
        # Rejection sampling removes modulo bias; at most one extra draw in
        # expectation because bound <= 2**64.
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            draw = self.next_u64()
            if draw < limit:
                return draw % bound

    def bernoulli(self, num: int, den: int) -> bool:
        """Return True with probability exactly ``num/den`` (integers).

        Exact rational Bernoulli draws keep the randomized baselines free of
        floating-point threshold artifacts.

        >>> rng = SplitMix64(seed=1)
        >>> isinstance(rng.bernoulli(1, 2), bool)
        True
        """
        if den <= 0:
            raise ValueError("den must be positive")
        if num <= 0:
            return False
        if num >= den:
            return True
        return self.next_below(den) < num

    def fork(self, stream: int) -> "SplitMix64":
        """Return an independent child stream labelled ``stream``.

        Used to hand every simulated machine / vertex its own stream so the
        schedule of draws cannot depend on machine interleaving.
        """
        child_seed = splitmix64((self.seed ^ (stream * _GOLDEN)) & _MASK64)
        return SplitMix64(seed=child_seed, counter=0)

    def shuffle(self, items: list) -> None:
        """Fisher–Yates shuffle of ``items`` in place using this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]
