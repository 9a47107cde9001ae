"""Estimator queries vs brute force over the whole family, both kernels.

Both kernels evaluate the same closed-form pair overlap, so comparing
them with each other cannot catch a wrong formula.  The reference here
is brute force: the estimator's terms (read back through
``to_flat_terms``) are hashed at every seed with :meth:`Seed.hash` and
summed over the offsets each query ranges over.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.derand.estimator import ThresholdEstimator
from repro.derand.family import Seed
from repro.errors import DerandomizationError
from repro.mpc.state_layout import KERNEL_NUMPY, KERNEL_PYTHON, numpy_available

PRIMES = [2, 5, 7, 11, 13]

def available_kernels():
    return [KERNEL_PYTHON] + ([KERNEL_NUMPY] if numpy_available() else [])


def brute_value(est, a, b):
    """``Phi(h_{a,b})`` from the raw terms, independent of ``value``."""
    seed = Seed(a, b, est.p)
    vterms, pterms = est.to_flat_terms()
    total = 0
    for x, t, w in vterms:
        if seed.hash(x) < t:
            total += w
    for x1, t1, x2, t2, w in pterms:
        if seed.hash(x1) < t1 and seed.hash(x2) < t2:
            total += w
    return total


def brute_row(est, a):
    """``brute_value`` at every offset ``b`` under multiplier ``a``."""
    return [brute_value(est, a, b) for b in range(est.p)]


def random_terms(draw, p, id_range=None):
    """Flat ``(vertex_terms, pair_terms)`` with ids drawn from ``id_range``."""
    lo, hi = id_range if id_range is not None else (0, p - 1)
    vterms = [
        (
            draw(st.integers(lo, hi)),
            draw(st.integers(0, p)),
            draw(st.integers(-5, 5)),
        )
        for _ in range(draw(st.integers(0, 4)))
    ]
    pterms = []
    for _ in range(draw(st.integers(0 if p > 2 else 1, 4))):
        x1 = draw(st.integers(lo, hi))
        x2 = draw(st.integers(lo, hi).filter(lambda x: (x - x1) % p))
        pterms.append(
            (
                x1,
                draw(st.integers(0, p)),
                x2,
                draw(st.integers(0, p)),
                draw(st.integers(-5, 5)),
            )
        )
    return vterms, pterms


def random_estimators(draw, p, id_range=None):
    """The same random terms as one estimator per available kernel."""
    vterms, pterms = random_terms(draw, p, id_range)
    kernels = available_kernels()
    ests = [
        ThresholdEstimator.from_flat_terms(p, vterms, pterms, kernel=k)
        for k in kernels
    ]
    assert [est.kernel for est in ests] == kernels
    return ests


def all_ranges(p):
    return [(lo, hi) for lo in range(p + 1) for hi in range(lo, p + 1)]


class TestConstruction:
    def test_rejects_equal_pair_points(self):
        est = ThresholdEstimator(7)
        with pytest.raises(DerandomizationError):
            est.add_pair_term(3, 2, 3, 2, 1)

    def test_rejects_equal_points_mod_p(self):
        est = ThresholdEstimator(7)
        with pytest.raises(DerandomizationError):
            est.add_pair_term(1, 2, 8, 2, 1)

    def test_rejects_bad_threshold(self):
        est = ThresholdEstimator(7)
        with pytest.raises(DerandomizationError):
            est.add_vertex_term(0, 8, 1)
        with pytest.raises(DerandomizationError):
            est.add_pair_term(0, 3, 1, -1, 1)

    def test_rejects_tiny_modulus(self):
        with pytest.raises(DerandomizationError):
            ThresholdEstimator(1)

    def test_flat_roundtrip(self):
        est = ThresholdEstimator(11)
        est.add_vertex_term(1, 5, 2)
        est.add_pair_term(1, 5, 2, 6, -3)
        vflat, pflat = est.to_flat_terms()
        rebuilt = ThresholdEstimator.from_flat_terms(11, vflat, pflat)
        for a in range(11):
            for b in range(11):
                seed = Seed(a, b, 11)
                assert rebuilt.value(seed) == est.value(seed)

    def test_flat_terms_keep_raw_ids(self):
        est = ThresholdEstimator(7)
        est.add_vertex_term(-3, 2, 1)
        est.add_pair_term(40, 1, 2, 6, -4)
        assert est.to_flat_terms() == ([(-3, 2, 1)], [(40, 1, 2, 6, -4)])
        assert est.num_vertex_terms == 1
        assert est.num_pair_terms == 1
        assert est.num_terms == 2


class TestExactness:
    """Each query against brute force, on every available kernel."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(PRIMES), st.data())
    def test_expectation_matches_brute(self, p, data):
        for est in random_estimators(data.draw, p):
            brute = sum(sum(brute_row(est, a)) for a in range(p))
            assert est.expectation_x_p2() == brute

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(PRIMES), st.data())
    def test_value_matches_brute(self, p, data):
        for est in random_estimators(data.draw, p):
            for a in range(p):
                for b in range(p):
                    assert est.value(Seed(a, b, p)) == brute_value(est, a, b)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(PRIMES), st.data())
    def test_cond_a_matches_brute(self, p, data):
        for est in random_estimators(data.draw, p):
            rows = [sum(brute_row(est, a)) for a in range(p)]
            for a in range(p):
                assert est.cond_a_x_p(a) == rows[a]
            assert est.cond_a_x_p_many(range(p)) == rows

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(PRIMES), st.data())
    def test_cond_range_matches_brute(self, p, data):
        a = data.draw(st.integers(0, p - 1))
        lo = data.draw(st.integers(0, p))
        hi = data.draw(st.integers(lo, p))
        for est in random_estimators(data.draw, p):
            brute = sum(brute_row(est, a)[lo:hi])
            assert est.cond_ab_range(a, lo, hi) == brute

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(PRIMES), st.data())
    def test_cond_range_many_matches_brute(self, p, data):
        # Every range of Z_p in one batch: degenerate ones ([b, b)),
        # ones clipped at p (the offset stage's last chunk) and the
        # whole field, in an order unrelated to the breakpoints.
        a = data.draw(st.integers(0, p - 1))
        ranges = data.draw(st.permutations(all_ranges(p)))
        for est in random_estimators(data.draw, p):
            row = brute_row(est, a)
            got = est.cond_ab_range_many(a, ranges)
            assert got == [sum(row[lo:hi]) for lo, hi in ranges]
            assert all(type(v) is int for v in got)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(PRIMES), st.data())
    def test_ids_outside_field(self, p, data):
        # h depends only on x mod p: ids >= p and negative ids answer
        # like their residues.
        for est in random_estimators(data.draw, p, id_range=(-5 * p, 5 * p)):
            for a in range(p):
                row = brute_row(est, a)
                assert est.cond_a_x_p(a) == sum(row)
                got = est.cond_ab_range_many(a, all_ranges(p))
                assert got == [sum(row[lo:hi]) for lo, hi in all_ranges(p)]
                for b in range(p):
                    assert est.value(Seed(a, b, p)) == row[b]

    def test_cond_range_rejects_bad_range(self):
        for kernel in available_kernels():
            est = ThresholdEstimator(7, kernel=kernel)
            est.add_vertex_term(0, 3, 1)
            with pytest.raises(DerandomizationError):
                est.cond_ab_range(1, 5, 3)
            with pytest.raises(DerandomizationError):
                est.cond_ab_range(1, 0, 9)
            with pytest.raises(DerandomizationError):
                est.cond_ab_range_many(1, [(0, 3), (-1, 2)])


@pytest.mark.parametrize("kernel", available_kernels())
class TestQueryCaching:
    def build(self, kernel, p=13):
        est = ThresholdEstimator(p, kernel=kernel)
        est.add_vertex_term(3, 5, 2)
        est.add_vertex_term(20, p, -1)
        est.add_pair_term(1, 7, 4, 9, 3)
        est.add_pair_term(-2, p, 6, 4, -2)
        est.add_pair_term(8, 0, 9, 5, 4)
        return est

    def test_switching_multipliers(self, kernel):
        # The per-multiplier index is keyed on (p, a): leaving a
        # multiplier and returning to it must not answer from the wrong
        # one.
        est = self.build(kernel)
        ranges = all_ranges(est.p)
        for a in (3, 7, 3, 0, 12, 7, 3):
            row = brute_row(est, a)
            assert est.cond_ab_range_many(a, ranges) == [
                sum(row[lo:hi]) for lo, hi in ranges
            ]
            assert est.cond_ab_range(a, 2, 11) == sum(row[2:11])

    def test_term_added_after_query(self, kernel):
        est = self.build(kernel)
        a = 5
        before = est.cond_ab_range_many(a, [(0, 13), (4, 9)])
        assert est.cond_a_x_p(a) == before[0]
        est.add_vertex_term(11, 6, 7)
        est.add_pair_term(2, 10, 5, 8, -3)
        row = brute_row(est, a)
        assert est.cond_ab_range_many(a, [(0, 13), (4, 9)]) == [
            sum(row), sum(row[4:9])
        ]
        assert est.cond_a_x_p(a) == sum(row)
        assert est.value(Seed(a, 4, 13)) == row[4]

    def test_modulus_two_and_extreme_thresholds(self, kernel):
        # Thresholds 0 (never) and p (always) on the smallest field.
        est = ThresholdEstimator(2, kernel=kernel)
        est.add_vertex_term(0, 0, 5)
        est.add_vertex_term(1, 2, 3)
        est.add_pair_term(0, 2, 1, 2, -1)
        est.add_pair_term(2, 0, 3, 2, 4)
        est.add_pair_term(5, 1, 4, 2, 6)
        for a in range(2):
            row = brute_row(est, a)
            assert est.cond_a_x_p(a) == sum(row)
            assert est.cond_ab_range_many(a, all_ranges(2)) == [
                sum(row[lo:hi]) for lo, hi in all_ranges(2)
            ]
        assert est.expectation_x_p2() == sum(
            sum(brute_row(est, a)) for a in range(2)
        )

    def test_empty_estimator(self, kernel):
        est = ThresholdEstimator(7, kernel=kernel)
        assert est.cond_a_x_p(3) == 0
        assert est.cond_a_x_p_many([0, 1, 2]) == [0, 0, 0]
        assert est.cond_ab_range_many(3, [(0, 7), (2, 2)]) == [0, 0]
        assert est.cond_ab_range_many(3, []) == []
        assert est.value(Seed(3, 4, 7)) == 0



def brute_cond_a(est, a):
    """``p * E[Phi | a]`` by brute force."""
    return sum(brute_row(est, a))


def multiplier_batches(draw, p):
    """Batches of every shape the scoring kernels branch on."""
    a0 = draw(st.integers(-2 * p, 2 * p))
    step = draw(st.integers(1, 2 * p))
    count = draw(st.integers(2, 2 * p + 2))
    return [
        [],
        [a0],
        list(range(a0, a0 + count)),              # the seed search's shape
        [a0 + i * step for i in range(count)],    # step > 1, may pass p
        [(a0 + i * step) % p for i in range(count)],  # arithmetic mod p only
        draw(st.lists(st.integers(-p, 3 * p), max_size=2 * p)),  # anything
        [a0, a0, a0 + 1],                         # duplicates, not arithmetic
        [a0] * count,                             # step 0
    ]


def chained_ranges(p, lo, width, step):
    """The offset stage's ranges: ``2^step`` chained, clipped at ``p``."""
    sub = width >> step
    return [
        (min(lo + j * sub, p), min(lo + (j + 1) * sub, p))
        for j in range(1 << step)
    ]


class TestKernelShapes:
    """The batch shapes the scoring fast paths special-case, vs brute force."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(PRIMES), st.data())
    def test_multiplier_batches(self, p, data):
        batches = multiplier_batches(data.draw, p)
        for est in random_estimators(data.draw, p):
            for batch in batches:
                got = est.cond_a_x_p_many(batch)
                assert got == [brute_cond_a(est, a % p) for a in batch]
                assert all(type(v) is int for v in got)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(PRIMES), st.data())
    def test_range_batches(self, p, data):
        a = data.draw(st.integers(0, p - 1))
        bits = p.bit_length()
        step = data.draw(st.integers(1, bits))
        chained = chained_ranges(p, 0, 1 << bits, step)
        some = data.draw(st.lists(st.sampled_from(all_ranges(p)), max_size=8))
        batches = [
            chained,                          # shared endpoints, clipped
            chained[::-1],                    # unsorted, no endpoint reuse
            chained + chained,                # every range repeated
            [(b, b) for b in range(p + 1)],   # degenerate only
            [(0, p), (0, p), (1, 1), (0, p)],
            some,
        ]
        for est in random_estimators(data.draw, p):
            row = brute_row(est, a)
            for batch in batches:
                got = est.cond_ab_range_many(a, batch)
                assert got == [sum(row[lo:hi]) for lo, hi in batch]

    @pytest.mark.parametrize("kernel", available_kernels())
    @pytest.mark.parametrize(
        "vterms, pterms",
        [
            ([], []),                                   # empty
            ([(3, 5, 2), (9, 13, -1)], []),             # vertex-only
            ([], [(1, 7, 4, 9, 3), (-2, 13, 6, 4, -2)]),  # pair-only
            ([(3, 5, 0)], [(1, 7, 4, 9, 0)]),           # zero weights only
            ([(3, 5, 0), (4, 6, 2)], [(1, 7, 4, 9, 0), (2, 8, 5, 3, -4)]),
        ],
    )
    def test_term_mixes(self, kernel, vterms, pterms):
        p = 13
        est = ThresholdEstimator.from_flat_terms(p, vterms, pterms, kernel)
        assert est.expectation_x_p2() == sum(
            brute_cond_a(est, a) for a in range(p)
        )
        assert est.cond_a_x_p_many(range(1, p + 1)) == [
            brute_cond_a(est, a % p) for a in range(1, p + 1)
        ]
        for a in range(p):
            row = brute_row(est, a)
            assert est.cond_a_x_p(a) == sum(row)
            for step in (1, 2, 4):
                ranges = chained_ranges(p, 0, 16, step)
                assert est.cond_ab_range_many(a, ranges) == [
                    sum(row[lo:hi]) for lo, hi in ranges
                ]
            assert [est.value(Seed(a, b, p)) for b in range(p)] == row


class TestOnePassBuild:
    """``from_flat_terms`` checks like the one-term adds, and atomically."""

    BAD = [
        ([(0, 8, 1)], []),                    # vertex threshold above p
        ([(0, -1, 1)], []),                   # vertex threshold below 0
        ([], [(0, 3, 1, -1, 1)]),             # second pair threshold
        ([], [(0, 9, 1, 3, 1)]),              # first pair threshold
        ([], [(1, 2, 8, 2, 1)]),              # equal points mod p
        ([], [(3, 9, 3, 2, 1)]),              # equal points and bad t1
    ]

    @pytest.mark.parametrize("vterms, pterms", BAD)
    def test_same_error_as_one_term_adds(self, vterms, pterms):
        with pytest.raises(DerandomizationError) as one:
            est = ThresholdEstimator(7)
            for term in vterms:
                est.add_vertex_term(*term)
            for term in pterms:
                est.add_pair_term(*term)
        with pytest.raises(DerandomizationError) as batch:
            ThresholdEstimator.from_flat_terms(7, vterms, pterms)
        assert type(batch.value) is type(one.value)
        assert str(batch.value) == str(one.value)

    def test_first_bad_term_in_order_raises(self):
        # Vertex terms are checked before pair terms, each in order.
        with pytest.raises(DerandomizationError, match="threshold 9 out"):
            ThresholdEstimator.from_flat_terms(
                7, [(0, 3, 1), (1, 9, 1)], [(2, 2, 2, 2, 1)]
            )
        with pytest.raises(DerandomizationError, match="got 2, 9"):
            ThresholdEstimator.from_flat_terms(
                7, [], [(0, 3, 1, 3, 1), (2, 3, 9, 8, 1), (1, 8, 1, 3, 1)]
            )

    @pytest.mark.parametrize("vterms, pterms", BAD)
    def test_failed_extend_adds_nothing(self, vterms, pterms):
        for kernel in available_kernels():
            est = ThresholdEstimator(7, kernel=kernel)
            est.add_vertex_term(2, 3, 4)
            est.add_pair_term(1, 4, 5, 6, -2)
            before = (
                est.to_flat_terms(),
                est.expectation_x_p2(),
                est.cond_a_x_p_many([1, 2, 3]),
                est.cond_ab_range_many(3, [(0, 4), (4, 7)]),
            )
            good_v, good_p = [(6, 5, 3)], [(0, 2, 3, 4, 1)]
            with pytest.raises(DerandomizationError):
                est._extend(good_v + vterms, good_p + pterms)
            assert (
                est.to_flat_terms(),
                est.expectation_x_p2(),
                est.cond_a_x_p_many([1, 2, 3]),
                est.cond_ab_range_many(3, [(0, 4), (4, 7)]),
            ) == before

    def test_matches_one_term_adds(self):
        vterms = [(3, 5, 2), (-4, 0, 7), (20, 13, -1)]
        pterms = [(1, 7, 4, 9, 3), (-2, 13, 6, 4, -2), (8, 0, 9, 5, 4)]
        one = ThresholdEstimator(13)
        for term in vterms:
            one.add_vertex_term(*term)
        for term in pterms:
            one.add_pair_term(*term)
        # Generators are accepted like the stored tuples.
        batch = ThresholdEstimator.from_flat_terms(
            13, iter(vterms), (t for t in pterms)
        )
        assert batch.to_flat_terms() == one.to_flat_terms()
        assert batch.expectation_x_p2() == one.expectation_x_p2()
        assert batch._max_abs_weight == one._max_abs_weight == 7
        for a in range(13):
            assert batch.cond_a_x_p(a) == one.cond_a_x_p(a)

    def test_wrong_term_width_raises(self):
        with pytest.raises(ValueError):
            ThresholdEstimator.from_flat_terms(7, [(1, 2)], [])
        with pytest.raises(ValueError):
            ThresholdEstimator.from_flat_terms(7, [], [(1, 2, 3, 4)])
