"""Linear threshold estimators with exactly computable expectations.

A :class:`ThresholdEstimator` is a weighted sum of indicator events over
one hash function ``h`` drawn from the affine family mod ``p``:

* **vertex terms** ``w * [h(x) < T]``;
* **pair terms** ``w * [h(x1) < T1 and h(x2) < T2]`` with ``x1 != x2``.

For the affine family all three expectation queries the method of
conditional expectations needs are *exact integer computations*:

``expectation_x_p2``
    ``p^2 * E[Phi]`` over the whole family — vertex events contribute
    ``w * T * p``, pair events ``w * T1 * T2`` (exact pairwise
    independence).

``cond_a_x_p``
    ``p * E[Phi | a]`` with ``b`` uniform: the event ``h(x) < T`` is
    ``b in I_x`` where ``I_x`` is the cyclic interval of length ``T``
    starting at ``(-a x) mod p``, so a pair event's conditional
    probability is ``|I_{x1} ∩ I_{x2}| / p`` — a cyclic-interval overlap.

``cond_ab_range``
    ``sum of w * |I ∩ [b_lo, b_hi)|`` — the numerator of
    ``E[Phi | a, b in range]`` used when fixing the bits of ``b``
    most-significant-first.

The estimator is also evaluated pointwise (``value``) to certify that the
seed finally committed meets its guaranteed bound.

**The closed form.**  Shift both intervals of a pair term by
``(a x1) mod p``: the first becomes ``[0, T1)`` and the second starts at
``d = (a (x1 - x2)) mod p``, so with ``e = d + T2``

    ``|I_{x1} ∩ I_{x2}| = max(0, min(T1, e) - d) + max(0, min(T1, e - p))``

— a clamped head segment plus a clamped wrap-around segment, O(1) per
term with no interval objects.  The same two pieces, shifted back, are
the (at most two) cyclic arcs of ``b`` on which the pair event holds.

**Hot-path caching** (terms are immutable once a selection starts, so
all of this is invisible to callers):

* terms go in through one validated pass (``_extend``, behind both
  ``add_*_term`` methods and :meth:`ThresholdEstimator.from_flat_terms`):
  every term is checked before any is appended, the columns are
  extended in bulk, and the running sums are updated once per batch —
  the shard backend rebuilds each machine's estimator for every
  reduction, so this is per-reduction work there;
* ``expectation_x_p2`` and the vertex part of ``cond_a_x_p`` are running
  sums maintained at term insertion — O(1) per query instead of a full
  term scan;
* an estimator with no terms answers every scoring batch at once (on
  ER G(1024, 6144), 45% of a selection's machines hold no term);
* a batch of multipliers in arithmetic progression mod ``p`` (the seed
  search scores ``a = base+1 … base+2^c``) is scored term by term: a
  pair term's ``d = a0·(x1 − x2) mod p`` is computed once and each
  further candidate adds ``Δ·(x1 − x2) mod p`` with one conditional
  subtract, instead of a multiply and a mod per (candidate, term).
  Single multipliers and other batches use the per-multiplier loop;
* for one multiplier ``a`` the reference kernel builds a sorted
  breakpoint index of the piecewise-linear ``G(x) = Σ w·|I_term ∩ [0,
  x)|`` (each linear piece ``[lo, hi)`` of a term's arcs adds slope
  ``+w`` at ``lo`` and ``-w`` at ``hi``), so every ``cond_ab_range`` is
  ``G(b_hi) - G(b_lo)``.  The offset-fixing stage asks about
  ~``2^c · ceil(log2(p)/c)`` ranges under a single multiplier, ``2^c``
  chained ones per reduction; a range that starts where the previous
  one ended reuses that endpoint's ``G`` and an empty range costs
  nothing, so a chunk takes at most ``2^c + 1`` bisections instead of
  ``2 · 2^c``.  Adding a term invalidates the index, so caching can
  never change a result.  The cache key includes the modulus alongside
  the multiplier: ``p`` is immutable per instance, so the extra key
  component is pure defence — no future refactor can make an index
  built in one field answer a query in another.

**Kernels.**  Every term is stored once, as eight append-only integer
columns.  ``kernel="python"`` (the reference) evaluates the closed form
above in scalar Python over those columns.  ``kernel="numpy"`` converts
the columns to int64 arrays (hashed ids reduced mod ``p`` first — ``h``
depends only on ``x mod p``, and the reduction keeps every product
below ``2^62``) and evaluates every query, including the batched
``*_many`` variants the seed search uses, with array expressions.  This
is the only array code in the library.  The array path is *exact by
construction*: the modulus must satisfy
:func:`repro.mpc.state_layout.supports_modulus` (int64 hash products
cannot wrap), weighted sums are int64 only when a precomputed magnitude
bound proves no overflow and fall back to arbitrary-precision Python
summation otherwise, and every result is converted back to a plain
``int``.  A numpy estimator that cannot run exactly — NumPy missing, a
modulus above the bound, a term value outside int64 — raises
:class:`~repro.errors.MPCConfigError`; it never runs another kernel.
The two kernels share the closed form, so the independent oracle for
both is brute force over the family (``tests/derand/test_estimator.py``);
CI also replays the refactor parity oracle under each kernel and fails
on any record diff.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.derand.family import Seed
from repro.errors import DerandomizationError, MPCConfigError
from repro.mpc.state_layout import (
    KERNEL_NUMPY,
    KERNEL_PYTHON,
    MAX_VECTOR_MODULUS,
    numpy_or_none,
    resolve_kernel,
    supports_modulus,
)

_INT64_MAX = (1 << 63) - 1

# ``(breakpoints, G at each breakpoint, slope after each breakpoint)``.
_PrefixIndex = Tuple[List[int], List[int], List[int]]


class ThresholdEstimator:
    """A weighted sum of threshold events, exactly analysable mod ``p``.

    ``kernel`` selects the evaluation backend: ``"python"`` (reference,
    default) or ``"numpy"`` (vectorized, bit-identical).  ``numpy``
    raises :class:`~repro.errors.MPCConfigError` when NumPy is not
    importable, when ``p`` exceeds the exactness guard, and on the first
    query over a term value outside int64; :attr:`kernel` is fixed at
    construction.
    """

    def __init__(self, p: int, kernel: str = KERNEL_PYTHON):
        if p < 2:
            raise DerandomizationError(f"modulus must be >= 2, got {p}")
        self.p = p
        # The terms, one column per field: vertex (x, T, w) then pair
        # (x1, T1, x2, T2, w).  Append-only; ids are kept as given.
        self._cols: Tuple[List[int], ...] = tuple([] for _ in range(8))
        # Running sums maintained at insertion.
        self._vertex_weighted_thresholds = 0  # Σ w·T   (cond_a_x_p vertex part)
        self._expectation_x_p2 = 0            # Σ w·T·p + Σ w·T1·T2
        self._max_abs_weight = 0              # array-path overflow bound
        # Per-multiplier prefix index of G (reference kernel).
        self._index_key: Optional[Tuple[int, int]] = None
        self._index: Optional[_PrefixIndex] = None
        # Array backend: flat int64 term arrays + per-multiplier arcs.
        self.kernel = resolve_kernel(kernel)
        self._np = numpy_or_none() if self.kernel == KERNEL_NUMPY else None
        if self._np is not None and not supports_modulus(p):
            raise MPCConfigError(
                f"kernel 'numpy' is exact only for moduli <= "
                f"{MAX_VECTOR_MODULUS}, got p = {p}; use the 'python' kernel"
            )
        self._flat: Optional[dict] = None
        self._arc_cache_key: Optional[Tuple[int, int]] = None
        self._arc_cache: Optional[Tuple[object, object, object]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex_term(self, x: int, threshold: int, weight: int) -> None:
        """Add ``weight * [h(x) < threshold]``."""
        self._extend(((x, threshold, weight),), ())

    def add_pair_term(
        self, x1: int, t1: int, x2: int, t2: int, weight: int
    ) -> None:
        """Add ``weight * [h(x1) < t1 and h(x2) < t2]``; needs ``x1 != x2``.

        Pairwise independence (hence exactness of ``expectation_x_p2``)
        requires the two hashed points to be distinct field elements.
        """
        self._extend((), ((x1, t1, x2, t2, weight),))

    def _extend(
        self,
        vertex_terms: Iterable[Sequence[int]],
        pair_terms: Iterable[Sequence[int]],
    ) -> None:
        """Validate every term, then append them all and update the sums.

        The one insertion path: a term that fails its check raises
        before anything is appended, so a failed call leaves the
        estimator as it was.
        """
        if not isinstance(vertex_terms, (list, tuple)):
            vertex_terms = list(vertex_terms)
        if not isinstance(pair_terms, (list, tuple)):
            pair_terms = list(pair_terms)
        if not (vertex_terms or pair_terms):
            return
        p = self.p
        for _, t, _ in vertex_terms:
            if not 0 <= t <= p:
                self._check_threshold(t)
        for x1, t1, x2, t2, _ in pair_terms:
            if x1 % p == x2 % p:
                raise DerandomizationError(
                    f"pair term needs distinct points mod p, got {x1}, {x2}"
                )
            if not (0 <= t1 <= p and 0 <= t2 <= p):
                self._check_threshold(t1)
                self._check_threshold(t2)
        cols = self._cols
        weights = 0
        if vertex_terms:
            vx, vt, vw = zip(*vertex_terms)
            cols[0].extend(vx)
            cols[1].extend(vt)
            cols[2].extend(vw)
            vertex_sum = sum(map(mul, vw, vt))
            self._vertex_weighted_thresholds += vertex_sum
            self._expectation_x_p2 += vertex_sum * p
            weights = max(map(abs, vw))
        if pair_terms:
            px1, pt1, px2, pt2, pw = zip(*pair_terms)
            cols[3].extend(px1)
            cols[4].extend(pt1)
            cols[5].extend(px2)
            cols[6].extend(pt2)
            cols[7].extend(pw)
            self._expectation_x_p2 += sum(map(mul, pw, map(mul, pt1, pt2)))
            weights = max(weights, max(map(abs, pw)))
        if weights > self._max_abs_weight:
            self._max_abs_weight = weights
        self._invalidate_caches()

    def _invalidate_caches(self) -> None:
        """Terms changed: every derived structure is stale."""
        self._index_key = self._index = None
        self._flat = None
        self._arc_cache_key = self._arc_cache = None

    def _check_threshold(self, threshold: int) -> None:
        if not 0 <= threshold <= self.p:
            raise DerandomizationError(
                f"threshold {threshold} out of [0, {self.p}]"
            )

    @property
    def num_vertex_terms(self) -> int:
        """Vertex-term count."""
        return len(self._cols[0])

    @property
    def num_pair_terms(self) -> int:
        """Pair-term count."""
        return len(self._cols[3])

    @property
    def num_terms(self) -> int:
        """Total term count."""
        return self.num_vertex_terms + self.num_pair_terms

    # ------------------------------------------------------------------
    # Array backend plumbing
    # ------------------------------------------------------------------
    def _flat_terms_arrays(self) -> Optional[dict]:
        """Flat int64 term arrays, or None under the python kernel.

        Built lazily once per term-set (the columns are append-only and
        every append invalidates).  Id columns are reduced mod ``p``, so
        hash products stay below ``2^62`` whatever the ids.  A term
        value outside int64 (an id or weight of 64 bits or more) raises
        :class:`~repro.errors.MPCConfigError` rather than risking a
        wrapped product.
        """
        if self._np is None:
            return None
        if self._flat is None:
            np = self._np
            try:
                arrays = [
                    np.array(col, dtype=np.int64) for col in self._cols
                ]
            except OverflowError as exc:
                raise MPCConfigError(
                    "kernel 'numpy' needs every term value to fit int64; "
                    "use the 'python' kernel"
                ) from exc
            vx, vt, vw, px1, pt1, px2, pt2, pw = arrays
            p = self.p
            vx, px1, px2 = vx % p, px1 % p, px2 % p
            self._flat = {
                "vx": vx, "vt": vt, "vw": vw,
                "px1": px1, "pt1": pt1, "px2": px2, "pt2": pt2, "pw": pw,
                # (x1 - x2) per pair term, shared by every overlap query.
                "pdx": px1 - px2,
            }
        return self._flat

    def _sum_exact(self, weights, values, count: int) -> int:
        """Σ weights·values as an exact Python int.

        int64 arithmetic is used only when the precomputed magnitude
        bound proves the products and their sum cannot overflow;
        otherwise the reduction runs in arbitrary-precision Python ints
        (same result, slower — exactness is never negotiable).
        """
        if count == 0:
            return 0
        bound = self._max_abs_weight * self.p * count
        if bound <= _INT64_MAX:
            return int((weights * values).sum())
        return sum(
            w * v for w, v in zip(weights.tolist(), values.tolist())
        )

    def _sum_exact_rows(self, weights, values, count: int) -> List[int]:
        """Row-wise Σ weights·values for a 2-D ``values`` matrix."""
        if count == 0:
            return [0] * values.shape[0]
        bound = self._max_abs_weight * self.p * count
        if bound <= _INT64_MAX:
            return [int(s) for s in (weights * values).sum(axis=1).tolist()]
        return [
            sum(w * v for w, v in zip(weights.tolist(), row))
            for row in values.tolist()
        ]

    def _pair_overlap_matrix(self, flat: dict, a_column):
        """``|I_{x1} ∩ I_{x2}|`` for every (multiplier row, pair term).

        The module docstring's closed form, one array expression.  Every
        quantity is below ``2^62`` for a supported modulus, so int64 is
        exact.
        """
        np = self._np
        p = self.p
        d = (a_column * flat["pdx"]) % p
        t1 = flat["pt1"]
        t2 = flat["pt2"]
        head = np.maximum(0, np.minimum(t1, d + t2) - d)
        wrap = np.maximum(0, np.minimum(t1, d + t2 - p))
        return head + wrap

    def _arcs_for(self, a: int):
        """Every term's b-interval(s) under ``a`` as flat arc arrays.

        Returns ``(starts, lengths, weights)`` — one arc per vertex term
        and two (possibly empty) arcs per pair term, the same arcs
        :meth:`_prefix_index` accumulates.  Cached per ``(p, a)`` like
        the prefix index; term addition invalidates.
        """
        key = (self.p, a)
        if self._arc_cache_key != key:
            flat = self._flat_terms_arrays()
            np = self._np
            p = self.p
            sv = (-a * flat["vx"]) % p
            s1 = (-a * flat["px1"]) % p
            d = (a * flat["pdx"]) % p
            t1 = flat["pt1"]
            t2 = flat["pt2"]
            head_len = np.maximum(0, np.minimum(t1, d + t2) - d)
            wrap_len = np.maximum(0, np.minimum(t1, d + t2 - p))
            starts = np.concatenate((sv, (s1 + d) % p, s1))
            lengths = np.concatenate((flat["vt"], head_len, wrap_len))
            weights = np.concatenate((flat["vw"], flat["pw"], flat["pw"]))
            self._arc_cache_key = key
            self._arc_cache = (starts, lengths, weights)
        return self._arc_cache

    # ------------------------------------------------------------------
    # Reference kernel plumbing
    # ------------------------------------------------------------------
    def _prefix_index(self, a: int) -> _PrefixIndex:
        """Breakpoint index of ``G(x) = Σ w·|I_term ∩ [0, x)|`` under ``a``.

        ``G`` is piecewise linear: every term's cyclic arcs split into
        linear pieces ``[lo, hi)``, each adding slope ``+w`` at ``lo``
        and ``-w`` at ``hi``.  Summing the slope changes per breakpoint
        and sweeping them in order gives ``G`` and its slope at every
        breakpoint, so ``G(x)`` is one bisection away (:func:`_g_at`).
        Cached for one ``(p, a)`` — the offset-fixing stage only ever
        asks about the chosen multiplier — so memory stays O(terms).
        """
        key = (self.p, a)
        if self._index_key == key:
            return self._index
        p = self.p
        slope_change = {0: 0}
        get = slope_change.get

        def add_arc(start: int, length: int, weight: int) -> None:
            # Cyclic arc [start, start + length) mod p, 0 <= start < p.
            end = start + length
            slope_change[start] = get(start, 0) + weight
            if end > p:
                slope_change[0] += weight
                end -= p
            slope_change[end] = get(end, 0) - weight

        vx, vt, vw, px1, pt1, px2, pt2, pw = self._cols
        for x, t, w in zip(vx, vt, vw):
            if w:
                add_arc(-a * x % p, t, w)
        for x1, t1, x2, t2, w in zip(px1, pt1, px2, pt2, pw):
            if not w:
                continue
            # The pair's head and wrap pieces, as in ``cond_a_x_p``,
            # shifted back by ``s1``.
            s1 = -a * x1 % p
            d = a * (x1 - x2) % p
            e = d + t2
            if d < t1:
                add_arc((s1 + d) % p, (t1 if t1 < e else e) - d, w)
            if e > p:
                e -= p
                add_arc(s1, t1 if t1 < e else e, w)
        xs = sorted(slope_change)
        gs: List[int] = []
        slopes: List[int] = []
        g = slope = prev = 0
        for x in xs:
            g += slope * (x - prev)
            slope += slope_change[x]
            gs.append(g)
            slopes.append(slope)
            prev = x
        self._index_key = key
        self._index = (xs, gs, slopes)
        return self._index

    # ------------------------------------------------------------------
    # Exact analysis
    # ------------------------------------------------------------------
    def value(self, seed: Seed) -> int:
        """Pointwise value of the estimator at ``seed``.

        >>> est = ThresholdEstimator(7)
        >>> est.add_vertex_term(x=3, threshold=4, weight=5)
        >>> est.value(Seed(1, 0, 7))   # h(3) = 3 < 4
        5
        """
        p = self.p
        a, b = seed.a, seed.b
        flat = self._flat_terms_arrays()
        if flat is not None:
            v_hit = ((a * flat["vx"] + b) % p) < flat["vt"]
            p_hit = (((a * flat["px1"] + b) % p) < flat["pt1"]) & (
                ((a * flat["px2"] + b) % p) < flat["pt2"]
            )
            count = self.num_terms
            bound = self._max_abs_weight * count
            if bound <= _INT64_MAX:
                return int(flat["vw"][v_hit].sum()) + int(
                    flat["pw"][p_hit].sum()
                )
            return sum(flat["vw"][v_hit].tolist()) + sum(
                flat["pw"][p_hit].tolist()
            )
        vx, vt, vw, px1, pt1, px2, pt2, pw = self._cols
        total = 0
        for x, t, w in zip(vx, vt, vw):
            if (a * x + b) % p < t:
                total += w
        for x1, t1, x2, t2, w in zip(px1, pt1, px2, pt2, pw):
            if (a * x1 + b) % p < t1 and (a * x2 + b) % p < t2:
                total += w
        return total

    def expectation_x_p2(self) -> int:
        """Return the integer ``p^2 * E[Phi]`` over the full family."""
        return self._expectation_x_p2

    def cond_a_x_p(self, a: int) -> int:
        """Return the integer ``p * E[Phi | a]`` (``b`` uniform on Z_p).

        The vertex part is the precomputed ``Σ w·T`` (a vertex event's
        conditional probability given ``a`` is ``T/p`` regardless of
        ``a``); only pair overlaps depend on the multiplier.
        """
        flat = self._flat_terms_arrays()
        if flat is not None:
            overlap = self._pair_overlap_matrix(flat, a)
            return self._vertex_weighted_thresholds + self._sum_exact(
                flat["pw"], overlap, self.num_pair_terms
            )
        p = self.p
        total = self._vertex_weighted_thresholds
        # The closed form with its two max(0, ·) clamps as branches.
        for x1, t1, x2, t2, w in zip(*self._cols[3:]):
            d = a * (x1 - x2) % p
            e = d + t2
            if d < t1:
                total += w * ((t1 if t1 < e else e) - d)
            if e > p:
                e -= p
                total += w * (t1 if t1 < e else e)
        return total

    def cond_a_x_p_many(self, multipliers: Sequence[int]) -> List[int]:
        """``cond_a_x_p`` for a batch of multipliers at once.

        The numpy kernel evaluates the whole (multipliers × pair-terms)
        overlap matrix in one expression.  The reference kernel goes
        term by term when the batch is arithmetic mod ``p`` (the seed
        search asks for ``a = base+1 … base+2^c``): each pair term
        computes ``d = a0·(x1 - x2) mod p`` once and steps it by
        ``Δ·(x1 - x2) mod p`` per further multiplier.  Other batches
        loop over :meth:`cond_a_x_p`.  The results are identical by
        contract, so callers batch freely.
        """
        multipliers = list(multipliers)
        count = len(multipliers)
        if not self.num_terms:
            return [0] * count
        base = self._vertex_weighted_thresholds
        flat = self._flat_terms_arrays()
        if flat is not None and multipliers:
            np = self._np
            a_col = np.fromiter(
                multipliers, dtype=np.int64, count=len(multipliers)
            ).reshape(-1, 1)
            overlap = self._pair_overlap_matrix(flat, a_col)
            pair_sums = self._sum_exact_rows(
                flat["pw"], overlap, self.num_pair_terms
            )
            return [base + s for s in pair_sums]
        if not self._cols[3]:
            return [base] * count
        p = self.p
        if count < 2:
            return [self.cond_a_x_p(a) for a in multipliers]
        a0 = multipliers[0]
        delta = (multipliers[1] - a0) % p
        if any(
            (a - a0 - i * delta) % p for i, a in enumerate(multipliers)
        ):
            return [self.cond_a_x_p(a) for a in multipliers]
        totals = [0] * count
        steps = range(count)
        for x1, t1, x2, t2, w in zip(*self._cols[3:]):
            dx = x1 - x2
            d = a0 * dx % p
            step = delta * dx % p
            wraps = p - t2  # d > wraps exactly when e = d + t2 > p
            # The overlap as in ``cond_a_x_p``; most candidates have
            # neither a head (d < t1) nor a wrap piece.
            for i in steps:
                if d < t1:
                    e = d + t2
                    totals[i] += w * ((t1 if t1 < e else e) - d)
                    if e > p:
                        e -= p
                        totals[i] += w * (t1 if t1 < e else e)
                elif d > wraps:
                    e = d - wraps
                    totals[i] += w * (t1 if t1 < e else e)
                d += step
                if d >= p:
                    d -= p
        return [base + t for t in totals]

    def cond_ab_range(self, a: int, b_lo: int, b_hi: int) -> int:
        """Return ``sum_terms w * |I_term ∩ [b_lo, b_hi)|``.

        Dividing by ``b_hi - b_lo`` (the caller clips the range to
        ``[0, p)`` first) gives ``E[Phi | a, b in range]`` exactly.
        """
        return self.cond_ab_range_many(a, [(b_lo, b_hi)])[0]

    def cond_ab_range_many(
        self, a: int, ranges: Sequence[Tuple[int, int]]
    ) -> List[int]:
        """``cond_ab_range`` for a batch of ranges under one multiplier.

        This is the offset-fixing stage's shape: ``2^c`` candidate
        ranges per chunk, all under the already-committed ``a``.  The
        reference kernel fetches the per-multiplier prefix index once
        and answers each range as ``G(b_hi) - G(b_lo)``; the numpy
        kernel reuses the per-multiplier arc arrays across every range
        and clamps all (ranges × arcs) overlaps in one expression.
        """
        p = self.p
        for b_lo, b_hi in ranges:
            if not 0 <= b_lo <= b_hi <= p:
                raise DerandomizationError(
                    f"range [{b_lo}, {b_hi}) must lie within [0, {p}]"
                )
        if not self.num_terms:
            return [0] * len(ranges)
        flat = self._flat_terms_arrays()
        if flat is None:
            return _range_sums(self._prefix_index(a), ranges)
        np = self._np
        starts, lengths, weights = self._arcs_for(a)
        lo = np.fromiter(
            (r[0] for r in ranges), dtype=np.int64, count=len(ranges)
        ).reshape(-1, 1)
        hi = np.fromiter(
            (r[1] for r in ranges), dtype=np.int64, count=len(ranges)
        ).reshape(-1, 1)
        # Arc (s, L) splits into head [s, min(s+L, p)) and, when it
        # wraps, tail [0, s+L-p); clamp both against [lo, hi).
        head_end = np.minimum(starts + lengths, p)
        head = np.maximum(
            0, np.minimum(hi, head_end) - np.maximum(lo, starts)
        )
        tail = np.maximum(0, np.minimum(hi, starts + lengths - p) - lo)
        # Each pair term contributes two arcs, so the weighted-sum bound
        # uses the arc count.
        return self._sum_exact_rows(
            weights, head + tail, int(starts.shape[0])
        )

    # ------------------------------------------------------------------
    # Serialization (for distributed term storage on machines)
    # ------------------------------------------------------------------
    def to_flat_terms(
        self,
    ) -> Tuple[List[Tuple[int, int, int]], List[Tuple[int, int, int, int, int]]]:
        """Return terms as plain integer tuples (machine-storable)."""
        cols = self._cols
        return list(zip(*cols[:3])), list(zip(*cols[3:]))

    @classmethod
    def from_flat_terms(
        cls,
        p: int,
        vertex_terms: Iterable[Sequence[int]],
        pair_terms: Iterable[Sequence[int]],
        kernel: str = KERNEL_PYTHON,
    ) -> "ThresholdEstimator":
        """Rebuild an estimator from :meth:`to_flat_terms` output.

        One validated pass over all the terms: the same checks, errors
        and result as adding them one by one.
        """
        est = cls(p, kernel=kernel)
        est._extend(vertex_terms, pair_terms)
        return est


def _range_sums(
    index: _PrefixIndex, ranges: Sequence[Tuple[int, int]]
) -> List[int]:
    """``G(b_hi) - G(b_lo)`` per range, from a prefix index.

    ``G`` is evaluated once per endpoint a range does not share with
    the range before it: the offset stage's ``2^c`` ranges are chained
    (each starts where the last ended), so ``2^c + 1`` bisections
    replace ``2 · 2^c``, and an empty range costs none.  The bisection
    for ``b_hi`` starts at ``b_lo``'s breakpoint.
    """
    xs, gs, slopes = index
    out = []
    x = -1  # the last endpoint evaluated: G(x) = g at breakpoint i
    g = i = 0
    for b_lo, b_hi in ranges:
        if b_lo == b_hi:
            out.append(0)
            continue
        if b_lo != x:
            i = bisect_right(xs, b_lo) - 1
            g = gs[i] + slopes[i] * (b_lo - xs[i])
        i = bisect_right(xs, b_hi, i) - 1
        x = b_hi
        g_hi = gs[i] + slopes[i] * (b_hi - xs[i])
        out.append(g_hi - g)
        g = g_hi
    return out
