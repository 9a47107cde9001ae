"""Unit and property tests for repro.util.prime."""

from hypothesis import given, strategies as st

from repro.util.prime import is_prime, next_prime


def _trial_division(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestIsPrime:
    def test_small_cases(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
        for n in range(32):
            assert is_prime(n) == (n in primes)

    def test_mersenne(self):
        assert is_prime(2**31 - 1)

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911):
            assert not is_prime(n)

    def test_large_composite(self):
        assert not is_prime((2**31 - 1) * (2**13 - 1))

    @given(st.integers(0, 200_000))
    def test_matches_trial_division(self, n):
        assert is_prime(n) == _trial_division(n)


class TestNextPrime:
    def test_at_prime(self):
        assert next_prime(17) == 17

    def test_between_primes(self):
        assert next_prime(14) == 17

    def test_small(self):
        assert next_prime(0) == 2
        assert next_prime(2) == 2
        assert next_prime(3) == 3

    @given(st.integers(0, 500_000))
    def test_is_first_prime_at_or_above(self, n):
        p = next_prime(n)
        assert p >= n and is_prime(p)
        for candidate in range(max(2, n), p):
            assert not is_prime(candidate)

