"""Tests for the affine hash family, including exact pairwise independence."""

import pytest
from hypothesis import example, given, strategies as st

from repro.derand.family import AffineFamily, Seed, threshold_for_rate
from repro.errors import DerandomizationError


class TestSeed:
    def test_hash(self):
        assert Seed(2, 3, 7).hash(5) == (2 * 5 + 3) % 7

    def test_validation(self):
        with pytest.raises(DerandomizationError):
            Seed(0, 0, 6)  # composite modulus
        with pytest.raises(DerandomizationError):
            Seed(7, 0, 7)  # a out of range

    def test_index(self):
        assert Seed(2, 3, 7).index() == 17


@st.composite
def seed_ids_threshold(draw):
    """A seed, ids that may sit near ``p``, and a threshold in ``[0, p]``."""
    p = draw(st.sampled_from([2, 7, 101, 65_537, 1_000_003]))
    seed = Seed(draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1)), p)
    xs = draw(
        st.lists(
            st.one_of(st.integers(0, 4 * p), st.integers(p - 3, p + 3)),
            max_size=12,
        )
    )
    t = draw(st.one_of(st.just(0), st.just(p), st.integers(0, p)))
    return seed, xs, t


class TestNeighbourhoodHash:
    """``any_below`` / ``below`` agree with per-id ``hash`` calls."""

    @given(seed_ids_threshold())
    @example((Seed(3, 4, 7), [], 7))
    @example((Seed(3, 4, 7), [0, 1, 6, 7, 8], 0))
    @example((Seed(3, 4, 7), [5, 6, 7, 8], 7))
    @example((Seed(0, 0, 2), [1, 2, 3], 1))
    def test_any_below_matches_hash(self, case):
        seed, xs, t = case
        assert seed.any_below(xs, t) == any(seed.hash(x) < t for x in xs)

    @given(seed_ids_threshold())
    @example((Seed(3, 4, 7), [], 7))
    @example((Seed(3, 4, 7), [6, 7, 6], 0))
    def test_below_matches_hash(self, case):
        seed, xs, t = case
        assert seed.below(xs, t) == [x for x in xs if seed.hash(x) < t]

    def test_takes_any_iterable(self):
        seed = Seed(2, 3, 7)
        assert seed.any_below(iter((5,)), 7)
        assert seed.below({5}, 7) == [5]


class TestFamily:
    def test_size(self):
        assert AffineFamily(11).size == 121

    def test_field_for_ids(self):
        fam = AffineFamily.field_for_ids(100)
        assert fam.p > 400

    def test_field_headroom_one(self):
        assert AffineFamily.field_for_ids(4, headroom=1).p >= 5

    def test_rejects_composite(self):
        with pytest.raises(DerandomizationError):
            AffineFamily(10)

    def test_enumeration_covers_family(self):
        fam = AffineFamily(5)
        seeds = [fam.seed_by_index(i) for i in range(fam.size)]
        assert {(s.a, s.b) for s in seeds} == {
            (a, b) for a in range(5) for b in range(5)
        }

    def test_enumeration_injective_first(self):
        fam = AffineFamily(5)
        first_block = [fam.seed_by_index(i) for i in range(5)]
        assert all(s.a == 1 for s in first_block)

    def test_pairwise_independence_exact(self):
        # For distinct x != y, (h(x), h(y)) is uniform over Z_p^2.
        p = 7
        fam = AffineFamily(p)
        x, y = 2, 5
        counts = {}
        for seed in (fam.seed_by_index(i) for i in range(fam.size)):
            pair = (seed.hash(x), seed.hash(y))
            counts[pair] = counts.get(pair, 0) + 1
        assert len(counts) == p * p
        assert set(counts.values()) == {1}

    @given(st.integers(0, 10), st.integers(0, 10))
    def test_marginal_uniformity(self, x, trial):
        p = 11
        fam = AffineFamily(p)
        counts = [0] * p
        for b in range(p):
            counts[fam.seed(trial % p, b).hash(x)] += 1
        assert set(counts) == {1}  # uniform over b for any fixed a


class TestThresholdForRate:
    def test_half(self):
        assert threshold_for_rate(101, 1, 2) == 51

    def test_never_zero(self):
        assert threshold_for_rate(101, 0, 5) == 1

    def test_capped_at_p(self):
        assert threshold_for_rate(101, 7, 2) == 101

    def test_rejects_bad_rate(self):
        with pytest.raises(DerandomizationError):
            threshold_for_rate(101, 1, 0)

    @given(st.integers(2, 500), st.integers(1, 10), st.integers(1, 10))
    def test_rate_at_least_requested(self, p_base, num, den):
        from repro.util.prime import next_prime

        p = next_prime(p_base)
        t = threshold_for_rate(p, num, den)
        if num <= den:
            assert t * den >= p * num  # Pr[h < T] = T/p >= num/den
