"""Unit and statistical tests for the SplitMix64 PRG."""

import pytest
from hypothesis import given, strategies as st

from repro.util.rng import SplitMix64, splitmix64


class TestMixFunction:
    def test_deterministic(self):
        assert splitmix64(12345) == splitmix64(12345)

    def test_range(self):
        for x in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(x) < 2**64

    def test_avalanche_rough(self):
        # Flipping one input bit should flip roughly half the output bits.
        flips = bin(splitmix64(0) ^ splitmix64(1)).count("1")
        assert 16 <= flips <= 48


class TestStream:
    def test_reproducible(self):
        a = SplitMix64(seed=7)
        b = SplitMix64(seed=7)
        assert [a.next_u64() for _ in range(10)] == [
            b.next_u64() for _ in range(10)
        ]

    def test_different_seeds_differ(self):
        a = SplitMix64(seed=1)
        b = SplitMix64(seed=2)
        assert a.next_u64() != b.next_u64()

    def test_counter_resume(self):
        a = SplitMix64(seed=3)
        for _ in range(5):
            a.next_u64()
        resumed = SplitMix64(seed=3, counter=5)
        assert a.next_u64() == resumed.next_u64()

    @given(st.integers(1, 10**9))
    def test_next_below_in_range(self, bound):
        rng = SplitMix64(seed=bound)
        for _ in range(5):
            assert 0 <= rng.next_below(bound) < bound

    def test_next_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64().next_below(0)

    def test_next_below_rejects_bound_over_word_size(self):
        # Regression: a bound > 2**64 used to make the rejection-sampling
        # limit zero, so every draw was "rejected" and the loop never
        # terminated.  Now it must fail fast.
        with pytest.raises(ValueError):
            SplitMix64().next_below(2**64 + 1)

    def test_next_below_accepts_full_word_bound(self):
        rng = SplitMix64(seed=9)
        assert 0 <= rng.next_below(2**64) < 2**64

    def test_uniformity_rough(self):
        rng = SplitMix64(seed=5)
        buckets = [0] * 10
        for _ in range(10_000):
            buckets[rng.next_below(10)] += 1
        assert all(800 <= b <= 1200 for b in buckets)


class TestBernoulli:
    def test_degenerate(self):
        rng = SplitMix64(seed=1)
        assert rng.bernoulli(0, 5) is False
        assert rng.bernoulli(5, 5) is True
        assert rng.bernoulli(7, 5) is True

    def test_rejects_bad_denominator(self):
        with pytest.raises(ValueError):
            SplitMix64().bernoulli(1, 0)

    def test_rate_rough(self):
        rng = SplitMix64(seed=9)
        hits = sum(rng.bernoulli(1, 4) for _ in range(10_000))
        assert 2200 <= hits <= 2800


class TestForkAndShuffle:
    def test_forks_independent(self):
        root = SplitMix64(seed=4)
        c1, c2 = root.fork(1), root.fork(2)
        assert c1.next_u64() != c2.next_u64()

    def test_fork_deterministic(self):
        assert SplitMix64(seed=4).fork(9).next_u64() == SplitMix64(
            seed=4
        ).fork(9).next_u64()

    def test_shuffle_is_permutation(self):
        rng = SplitMix64(seed=8)
        items = list(range(50))
        rng.shuffle(items)
        assert sorted(items) == list(range(50))
        assert items != list(range(50))  # astronomically unlikely to match
