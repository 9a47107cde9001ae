"""Bit-identity between the python and numpy kernels.

The hard contract of the kernel split (DESIGN.md §11): the numpy kernel
is an *implementation* of the reference semantics, not an approximation.
Every estimator query, every seed selection, and every end-to-end solve
must produce byte-for-byte identical results under both kernels — the
tests here compare them directly, including on the edge cases where
vectorized code most often diverges (empty machine partitions, isolated
vertices, single-vertex graphs, and moduli at/above the ``2**31``
vectorization bound).
"""

import random

import pytest

from repro.core.det_matching import solve_matching
from repro.core.pipeline import solve_ruling_set
from repro.derand.conditional import choose_seed, scan_order_a
from repro.derand.estimator import ThresholdEstimator
from repro.derand.family import AffineFamily, Seed
from repro.errors import MPCConfigError
from repro.graph import generators as gen
from repro.graph.graph import Graph
from repro.mpc.config import MPCConfig
from repro.mpc.state_layout import (
    KERNEL_NUMPY,
    KERNEL_PYTHON,
    NO_NUMPY_ENV,
    numpy_available,
    numpy_or_none,
)

if not numpy_available():
    pytest.skip(
        "numpy kernel unavailable (missing or REPRO_NO_NUMPY)",
        allow_module_level=True,
    )

# 2^31 - 1 is prime and exactly at the vectorization bound; the next
# prime above 2^31 must make a numpy estimator refuse to run.
P_AT_BOUND = (1 << 31) - 1
P_ABOVE_BOUND = 2147483659


def build_random_estimator(p, kernel, rng_seed, n_vertex=6, n_pair=6):
    rng = random.Random(rng_seed)
    est = ThresholdEstimator(p, kernel=kernel)
    for _ in range(n_vertex):
        est.add_vertex_term(
            x=rng.randrange(p),
            threshold=rng.randrange(p + 1),
            weight=rng.randint(-7, 7),
        )
    for _ in range(n_pair):
        x1 = rng.randrange(p)
        x2 = (x1 + rng.randrange(1, p)) % p
        est.add_pair_term(
            x1=x1,
            t1=rng.randrange(p + 1),
            x2=x2,
            t2=rng.randrange(p + 1),
            weight=rng.randint(-7, 7),
        )
    return est


class TestEstimatorParity:
    @pytest.mark.parametrize("p", [5, 13, 101, 10007, P_AT_BOUND])
    def test_queries_identical(self, p):
        py = build_random_estimator(p, KERNEL_PYTHON, rng_seed=p)
        vec = build_random_estimator(p, KERNEL_NUMPY, rng_seed=p)
        assert vec.kernel == KERNEL_NUMPY
        rng = random.Random(p + 1)
        multipliers = [0, 1, p - 1] + [rng.randrange(p) for _ in range(5)]
        assert py.cond_a_x_p_many(multipliers) == vec.cond_a_x_p_many(
            multipliers
        )
        for a in multipliers[:4]:
            assert py.cond_a_x_p(a) == vec.cond_a_x_p(a)
            ranges = [
                (0, p),
                (0, 0),
                (p // 3, p // 2),
                (rng.randrange(p // 2), p // 2 + rng.randrange(p // 2)),
            ]
            got_many = vec.cond_ab_range_many(a, ranges)
            want_many = py.cond_ab_range_many(a, ranges)
            assert got_many == want_many
            assert all(type(v) is int for v in got_many)
            for lo, hi in ranges:
                assert py.cond_ab_range(a, lo, hi) == vec.cond_ab_range(
                    a, lo, hi
                )
        for _ in range(5):
            seed = Seed(rng.randrange(p), rng.randrange(p), p)
            assert py.value(seed) == vec.value(seed)

    @pytest.mark.parametrize("p", [7, 101, 10007])
    def test_choose_seed_identical(self, p):
        py = build_random_estimator(p, KERNEL_PYTHON, rng_seed=3 * p)
        vec = build_random_estimator(p, KERNEL_NUMPY, rng_seed=3 * p)
        seed_py, stats_py = choose_seed(py)
        seed_vec, stats_vec = choose_seed(vec)
        assert seed_py == seed_vec
        assert stats_py == stats_vec
        assert type(seed_vec.a) is int and type(seed_vec.b) is int

    @pytest.mark.parametrize(
        "case", ["p-above-bound", "numpy-missing", "id-beyond-int64"]
    )
    def test_numpy_refuses_inexact(self, case, monkeypatch):
        # Never python under a "numpy" label: the reference answers, numpy
        # refuses.
        p, x = P_AT_BOUND, 5
        if case == "p-above-bound":
            p, match = P_ABOVE_BOUND, "exact only for moduli"
        elif case == "numpy-missing":
            monkeypatch.setenv(NO_NUMPY_ENV, "1")
            match = "NumPy is not importable"
        else:
            x, match = 2**63, "fit int64"

        def build(kernel):
            est = ThresholdEstimator(p, kernel=kernel)
            est.add_vertex_term(x=x, threshold=p // 2, weight=3)
            return est

        a = p - 2
        ref = build(KERNEL_PYTHON)
        assert ref.cond_a_x_p(a) == 3 * (p // 2)
        with pytest.raises(MPCConfigError, match=match):
            est = build(KERNEL_NUMPY)
            assert est.kernel == KERNEL_NUMPY
            est.cond_a_x_p(a)

    @pytest.mark.parametrize(
        "big_id", [2**40 + 3, 2**55 + 11, 2**62 + 5, -(2**50)]
    )
    def test_ids_beyond_int32_at_bound(self, big_id):
        # ``a * x`` wraps int64 once |x| >= 2^32 at p = 2^31 - 1; the
        # array path must hash ``x mod p`` instead of the raw id.
        p = P_AT_BOUND
        ests = {}
        for kernel in (KERNEL_PYTHON, KERNEL_NUMPY):
            est = ThresholdEstimator(p, kernel=kernel)
            est.add_vertex_term(x=big_id, threshold=p // 3, weight=5)
            est.add_pair_term(
                x1=big_id, t1=p // 2, x2=17, t2=p // 3, weight=-3
            )
            est.add_pair_term(
                x1=99, t1=p // 4, x2=big_id, t2=p // 5, weight=2
            )
            ests[kernel] = est
        py, vec = ests[KERNEL_PYTHON], ests[KERNEL_NUMPY]
        assert vec.kernel == KERNEL_NUMPY
        a = p - 5
        ranges = [(0, p // 2), (p // 3, p), (0, p)]
        assert py.cond_a_x_p(a) == vec.cond_a_x_p(a)
        assert py.cond_a_x_p_many([a, 3, 1]) == vec.cond_a_x_p_many(
            [a, 3, 1]
        )
        assert py.cond_ab_range(a, 0, p // 2) == vec.cond_ab_range(
            a, 0, p // 2
        )
        assert py.cond_ab_range_many(a, ranges) == vec.cond_ab_range_many(
            a, ranges
        )
        for b in (0, 12345, p - 1):
            seed = Seed(a, b, p)
            assert py.value(seed) == vec.value(seed)
        assert vec.to_flat_terms() == py.to_flat_terms()

    def test_kernel_survives_flat_roundtrip(self):
        src = build_random_estimator(101, KERNEL_PYTHON, rng_seed=9)
        vflat, pflat = src.to_flat_terms()
        vec = ThresholdEstimator.from_flat_terms(
            101, vflat, pflat, kernel=KERNEL_NUMPY
        )
        assert vec.kernel == KERNEL_NUMPY
        assert choose_seed(src) == choose_seed(vec)


class TestScanOrderRegression:
    """Satellite 3: multiplier enumeration must be one canonical order.

    ``choose_multiplier`` walks :func:`scan_order_a` while the
    distributed stage-1 scan enumerates ``seed_by_index(i * p).a``; if
    they ever disagree, the local and distributed selections return
    different (both individually valid) seeds and bit-identity across
    code paths breaks.  Pin the equivalence.
    """

    @pytest.mark.parametrize("p", [2, 3, 7, 13, 101])
    def test_scan_order_matches_family_enumeration(self, p):
        family = AffineFamily(p)
        by_index = [family.seed_by_index(i * p).a for i in range(p)]
        assert by_index == list(scan_order_a(p))
        assert by_index == [(i + 1) % p for i in range(p)]

    def test_interleaved_estimators_different_p(self):
        # The prefix-index / arc caches are keyed on (p, a); two live
        # estimators with different moduli queried in lockstep must not
        # cross-contaminate (a alone is an ambiguous key: a=3 means a
        # different affine map in Z_13 than in Z_101).
        for kernel_a in (KERNEL_PYTHON, KERNEL_NUMPY):
            for kernel_b in (KERNEL_PYTHON, KERNEL_NUMPY):
                e13 = build_random_estimator(13, kernel_a, rng_seed=4)
                e101 = build_random_estimator(101, kernel_b, rng_seed=4)
                ref13 = build_random_estimator(13, KERNEL_PYTHON, rng_seed=4)
                ref101 = build_random_estimator(
                    101, KERNEL_PYTHON, rng_seed=4
                )
                for a in (3, 7, 12):
                    assert e13.cond_a_x_p(a) == ref13.cond_a_x_p(a)
                    assert e101.cond_a_x_p(a) == ref101.cond_a_x_p(a)
                    assert e13.cond_ab_range(a, 2, 11) == ref13.cond_ab_range(
                        a, 2, 11
                    )
                    assert e101.cond_ab_range(
                        a, 2, 11
                    ) == ref101.cond_ab_range(a, 2, 11)


def _solve_both(graph, **kwargs):
    res_py = solve_ruling_set(graph, kernel="python", **kwargs)
    res_np = solve_ruling_set(graph, kernel="numpy", **kwargs)
    return res_py, res_np


class TestSolveParity:
    def test_gnp_graph(self):
        graph = gen.gnp_random_graph(48, 1, 6, seed=7)
        res_py, res_np = _solve_both(graph)
        assert res_py.members == res_np.members
        assert res_py.rounds == res_np.rounds
        assert res_py.metrics == res_np.metrics

    def test_luby_algorithm(self):
        graph = gen.regular_graph(36, 4)
        res_py, res_np = _solve_both(graph, algorithm="det-luby")
        assert res_py.members == res_np.members
        assert res_py.metrics == res_np.metrics

    def test_single_vertex_graph(self):
        res_py, res_np = _solve_both(Graph.empty(1))
        assert res_py.members == res_np.members == [0]

    def test_isolated_vertices(self):
        # Half the vertices have no edges at all.
        graph = Graph.from_edges(12, [(0, 1), (2, 3), (4, 5)])
        res_py, res_np = _solve_both(graph)
        assert res_py.members == res_np.members
        assert set(range(6, 12)) <= set(res_np.members)

    @pytest.mark.parametrize("algorithm", ["det-luby", "det-ruling"])
    def test_numpy_solve_runs_the_array_path(self, algorithm, monkeypatch):
        # Output parity alone cannot tell a vectorized solve from a python
        # one wearing the label: record every seed-search estimator's
        # kernel and what its array builder handed back.  On this graph
        # det-ruling reaches the estimator through its Luby endgame.
        np = numpy_or_none()
        seen = []
        build = ThresholdEstimator._flat_terms_arrays

        def recording(est):
            flat = build(est)
            seen.append((est.kernel, flat))
            return flat

        monkeypatch.setattr(
            ThresholdEstimator, "_flat_terms_arrays", recording
        )
        solve_ruling_set(
            gen.regular_graph(36, 4), algorithm=algorithm, kernel="numpy"
        )
        assert seen
        for kernel, flat in seen:
            assert kernel == KERNEL_NUMPY
            assert all(isinstance(col, np.ndarray) for col in flat.values())

    def test_empty_machine_partitions(self):
        # More machines than vertices: some machines own no vertex, so
        # their seed-search estimators hold empty term arrays.
        graph = gen.path_graph(5)
        cfg = MPCConfig(num_machines=8, memory_words=4096)
        res_py = solve_ruling_set(
            graph, config=cfg.with_kernel("python"), regime="sublinear"
        )
        res_np = solve_ruling_set(
            graph, config=cfg.with_kernel("numpy"), regime="sublinear"
        )
        assert res_py.members == res_np.members
        assert res_py.metrics == res_np.metrics

    def test_matching_parity(self):
        graph = gen.cycle_graph(14)
        res_py = solve_matching(graph, kernel="python")
        res_np = solve_matching(graph, kernel="numpy")
        assert res_py.matching == res_np.matching
        assert res_py.metrics == res_np.metrics
