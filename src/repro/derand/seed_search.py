"""Distributed seed selection in the MPC model.

Two mechanisms, both built on vector reductions and broadcasts so every
round of coordination is accounted by the simulator:

``distributed_choose_seed``
    The method of conditional expectations with the estimator's terms
    *partitioned across machines* (each machine holds the terms arising
    from its own vertices/edges, as flat integer tuples).  Candidate
    multipliers are scored in batches of ``2^chunk_bits`` per reduction,
    and offset bits are fixed ``chunk_bits`` at a time by scoring all
    ``2^chunk_bits`` extensions at once — so the whole selection costs
    ``O((scan_batches + ceil(log2(p)/chunk_bits)))`` reductions.

``distributed_scan_seeds``
    Batched scanning for statistics that are *not* linear (e.g. "how many
    high-degree vertices have no sampled neighbour" — a conjunction over a
    whole neighbourhood).  Each machine evaluates every candidate seed on
    its local state with **zero communication** — neighbours are known by
    id and ``h(id)`` is locally computable — and an acceptance predicate
    at machine 0 stops the scan.  With a target set at a constant slack
    above the family expectation, a Chebyshev/Markov argument over the
    pairwise-independent family guarantees a constant fraction of seeds
    qualify, so the deterministic scan stops after O(1) batches (measured
    in bench E7).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.derand.estimator import ThresholdEstimator
from repro.derand.family import AffineFamily, Seed
from repro.errors import DerandomizationError
from repro.mpc.machine import Machine
from repro.mpc.state_layout import KERNEL_PYTHON
from repro.mpc.primitives.aggregate import reduce_vector
from repro.mpc.primitives.broadcast import broadcast_value
from repro.mpc.simulator import Simulator


@dataclass(frozen=True)
class SeedScanStats:
    """Bookkeeping from one distributed seed selection."""

    candidates_scanned: int
    batches: int
    accepted_index: int


def flat_term_estimator(
    p: int, vkey: str, pkey: str, kernel: str = KERNEL_PYTHON
) -> "EstimatorBuilder":
    """Builder reading flat terms ``(x, T, w)`` / ``(x1, T1, x2, T2, w)``.

    The generic storage layout; algorithms with redundancy in their terms
    (e.g. Luby, whose pair weights equal the vertex weights) can pass a
    custom builder with a more compact on-machine layout instead.
    ``kernel`` selects the estimator's evaluation backend (see
    :mod:`repro.mpc.state_layout`).
    """

    def build(machine: Machine) -> ThresholdEstimator:
        return ThresholdEstimator.from_flat_terms(
            p,
            machine.store.peek(vkey, ()),
            machine.store.peek(pkey, ()),
            kernel=kernel,
        )

    return build


EstimatorBuilder = Callable[[Machine], ThresholdEstimator]


class MemoizedEstimatorBuilder:
    """Build each machine's estimator once per selection, then reuse it.

    A machine's terms are immutable for the duration of one seed
    selection, yet a selection issues many vector reductions
    (expectation, multiplier batches, every offset chunk, the final
    certificate) — each of which used to rebuild every machine's
    estimator from its flat terms.  This wrapper memoizes by machine id,
    turning ~``2 + scan_batches + ceil(log2(p)/c)`` rebuilds per machine
    into one, and letting the estimator's own per-multiplier prefix
    index survive across reductions.

    It holds one estimator per machine, so :func:`distributed_choose_seed`
    uses it only when every machine is resident.
    """

    def __init__(self, builder: EstimatorBuilder):
        self._builder = builder
        self._cache: Dict[int, ThresholdEstimator] = {}

    def __call__(self, machine: Machine) -> ThresholdEstimator:
        est = self._cache.get(machine.mid)
        if est is None:
            est = self._cache[machine.mid] = self._builder(machine)
        return est


def _tuple_sum(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(map(operator.add, a, b))


def distributed_choose_seed(
    sim: Simulator,
    p: int,
    local_estimator: EstimatorBuilder,
    chunk_bits: int = 5,
) -> Tuple[Seed, SeedScanStats]:
    """Method of conditional expectations over machine-partitioned terms.

    ``local_estimator(machine)`` rebuilds each machine's share of the
    global estimator from its own store (see :func:`flat_term_estimator`
    for the generic layout).  Returns a seed with
    ``Phi(seed) >= E[Phi]`` where ``Phi`` is the *global* (sum over
    machines) estimator, plus scan statistics.

    When every machine is resident (the serial backend), each machine's
    estimator is built once and reused for the whole call — terms are
    immutable while a selection runs, so the memo cannot change any
    result, only skip redundant rebuild work (measured ≥2× on bench
    E10's seed-search phase).  An out-of-core backend visits every shard
    per reduction, so a memo bounded to one shard would evict each entry
    before its next read; there the estimators are rebuilt per
    reduction instead of being held for machines that are spilled.
    """
    if chunk_bits < 1:
        raise DerandomizationError("chunk_bits must be >= 1")
    if sim.backend.all_resident:
        local_estimator = MemoizedEstimatorBuilder(local_estimator)
    # Keep reduction vectors within the I/O budget: a tree node receives
    # up to (fanout - 1) * width words, so cap the width at S / 4.
    while chunk_bits > 1 and (1 << chunk_bits) > sim.config.memory_words // 4:
        chunk_bits -= 1
    batch = 1 << chunk_bits

    # Global expectation: one scalar reduction.
    target = reduce_vector(
        sim,
        lambda m: (local_estimator(m).expectation_x_p2(),),
        _tuple_sum,
        width=1,
    )[0]

    # ---------------- Stage 1: scan multipliers in batches ----------------
    family = AffineFamily(p)
    chosen_a = None
    scanned = 0
    batches = 0
    base = 0
    while chosen_a is None:
        candidates = [
            family.seed_by_index(index * p).a
            for index in range(base, min(base + batch, p))
        ]
        if not candidates:
            raise DerandomizationError(
                "multiplier scan exhausted the family — estimator bug"
            )
        batches += 1

        def score_multipliers(m: Machine) -> Tuple[int, ...]:
            # One batched call: the numpy kernel scores the whole batch
            # in a single overlap-matrix expression; the python kernel
            # loops — identical results either way.
            return tuple(local_estimator(m).cond_a_x_p_many(candidates))

        sums = reduce_vector(
            sim, score_multipliers, _tuple_sum, width=len(candidates)
        )
        accept = next(
            (
                j
                for j, total in enumerate(sums)
                if p * total >= target
            ),
            None,
        )
        scanned += len(candidates) if accept is None else accept + 1
        if accept is not None:
            chosen_a = candidates[accept]
        base += batch

    broadcast_value(sim, (chosen_a,), "_derand_a")

    # ---------------- Stage 2: fix offset bits in chunks ----------------
    bits = max(1, p.bit_length())
    lo = 0
    width = 1 << bits
    remaining = bits
    while remaining > 0:
        step = min(chunk_bits, remaining)
        sub = width >> step
        ranges = []
        for j in range(1 << step):
            r_lo = min(lo + j * sub, p)
            r_hi = min(lo + (j + 1) * sub, p)
            ranges.append((r_lo, r_hi))

        def score_ranges(m: Machine) -> Tuple[int, ...]:
            # Batched under the committed multiplier; degenerate ranges
            # (clipped to zero width above p) score 0 in both kernels.
            return tuple(
                local_estimator(m).cond_ab_range_many(chosen_a, ranges)
            )

        sums = reduce_vector(
            sim, score_ranges, _tuple_sum, width=len(ranges)
        )
        best_j = 0
        best_sum, best_count = None, None
        for j, (r_lo, r_hi) in enumerate(ranges):
            count = r_hi - r_lo
            if count <= 0:
                continue
            total = sums[j]
            if best_sum is None or total * best_count > best_sum * count:
                best_j, best_sum, best_count = j, total, count
        lo = ranges[best_j][0]
        width = sub
        remaining -= step
        broadcast_value(sim, (lo,), "_derand_lo")

    seed = Seed(a=chosen_a, b=lo, p=p)

    # Certify the guarantee against the *global* pointwise value.
    achieved = reduce_vector(
        sim,
        lambda m: (local_estimator(m).value(seed),),
        _tuple_sum,
        width=1,
    )[0]
    if achieved * p * p < target:
        raise DerandomizationError(
            f"distributed selection scored {achieved}, below guarantee "
            f"{target}/p^2"
        )
    broadcast_value(sim, (seed.a, seed.b), "_derand_seed")
    return seed, SeedScanStats(
        candidates_scanned=scanned, batches=batches, accepted_index=seed.a
    )


def distributed_scan_seeds(
    sim: Simulator,
    p: int,
    local_stats: Callable[[Machine, Seed], Sequence[int]],
    stat_width: int,
    accept: Callable[[Tuple[int, ...]], bool],
    batch: int = 32,
    max_batches: int = 64,
    start_index: int = 0,
) -> Tuple[Seed, Tuple[int, ...], SeedScanStats]:
    """Scan the family in canonical order for a seed meeting ``accept``.

    ``local_stats(machine, seed)`` evaluates each machine's contribution
    (a ``stat_width``-tuple of ints) to the global statistic for one
    candidate seed, using only local state; per batch the concatenated
    statistics are combined in one vector reduction.  The winning seed is
    broadcast under ``store["_derand_seed"]``.

    Returns ``(seed, global_stats, scan_stats)``.  Raises if ``max_batches``
    batches are exhausted — with a target at constant slack over the
    family expectation that indicates a miscalibrated target, not bad
    luck, so it is an error by design.
    """
    family = AffineFamily(p)
    batch = max(1, min(batch, sim.config.memory_words // (4 * stat_width)))
    scanned = 0
    for batch_no in range(max_batches):
        seeds = [
            family.scan_seed(start_index + batch_no * batch + j)
            for j in range(batch)
        ]

        def score(m: Machine) -> Tuple[int, ...]:
            flat: List[int] = []
            for seed in seeds:
                stats = tuple(local_stats(m, seed))
                if len(stats) != stat_width:
                    raise DerandomizationError(
                        f"local_stats returned width {len(stats)}, "
                        f"expected {stat_width}"
                    )
                flat.extend(int(s) for s in stats)
            return tuple(flat)

        sums = reduce_vector(
            sim, score, _tuple_sum, width=batch * stat_width
        )
        for j, seed in enumerate(seeds):
            scanned += 1
            stats = tuple(sums[j * stat_width : (j + 1) * stat_width])
            if accept(stats):
                broadcast_value(sim, (seed.a, seed.b), "_derand_seed")
                return seed, stats, SeedScanStats(
                    candidates_scanned=scanned,
                    batches=batch_no + 1,
                    accepted_index=start_index + batch_no * batch + j,
                )
    raise DerandomizationError(
        f"no acceptable seed in {max_batches} batches of {batch} — "
        "target miscalibrated for this family"
    )
