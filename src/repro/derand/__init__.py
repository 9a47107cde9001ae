"""Derandomization toolkit: bounded independence + conditional expectations.

The deterministic algorithms replace random choices with a seed drawn from
the **affine pairwise-independent family** ``h_{a,b}(x) = (a x + b) mod p``
(:mod:`~repro.derand.family`).  Two seed-selection mechanisms are provided:

:mod:`~repro.derand.conditional`
    The *method of conditional expectations*, computed **exactly**: for a
    linear estimator built from per-vertex threshold events
    (``h(x) < T``) and per-edge joint events, conditional expectations
    under partial seeds reduce to cyclic-interval measures in ``Z_p``,
    each a closed form of O(1) integer operations per term.  The chosen
    seed provably scores at least the family average.  Used by the
    derandomized Luby MIS step.

:mod:`~repro.derand.seed_search`
    *Batched distributed seed scanning* for statistics that are not linear
    (coverage events are conjunctions over whole neighbourhoods).  Every
    machine can evaluate any candidate seed on its local subgraph with no
    communication — hash values of neighbour *ids* are locally computable
    — so a vector-reduction scores a whole batch of seeds per O(1) rounds.
    A pairwise-independence (Chebyshev) argument guarantees a constant
    fraction of the family meets the target, so the deterministic scan
    stops after a handful of candidates.

:mod:`~repro.derand.estimator`
    The linear estimator representation shared by both mechanisms.
"""

from repro.derand.family import AffineFamily, Seed
from repro.derand.estimator import ThresholdEstimator
from repro.derand.conditional import SelectionStats, choose_seed
from repro.derand.seed_search import (
    SeedScanStats,
    distributed_choose_seed,
    distributed_scan_seeds,
)

__all__ = [
    "AffineFamily",
    "Seed",
    "ThresholdEstimator",
    "SelectionStats",
    "choose_seed",
    "SeedScanStats",
    "distributed_choose_seed",
    "distributed_scan_seeds",
]
