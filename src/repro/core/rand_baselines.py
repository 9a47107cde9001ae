"""Randomized baselines sharing the deterministic engines' code paths.

The randomized MIS and ruling-set baselines are the *same* programs as
:func:`repro.core.det_luby.luby_program` and
:func:`repro.core.det_ruling.ruling_program` with one substitution: the
seed chooser **draws** a hash seed from the pairwise-independent family
instead of *searching* for one.  Pairwise independence already yields the
expected per-phase progress (Luby's analysis; Chebyshev coverage), so the
baselines are bona fide randomized MPC algorithms — and any benchmarked
difference against the deterministic variants is, by construction,
exactly the cost of derandomization (the E1/E7 measurements).

Each drawn seed is broadcast from machine 0 so that the run does not
assume free shared randomness; that costs the same O(1) rounds a real
randomized MPC implementation would pay to agree on public coins.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.derand.family import Seed
from repro.mpc.graph_store import DistributedGraph
from repro.mpc.primitives.broadcast import broadcast_value
from repro.util.rng import SplitMix64


def random_luby_chooser(rng: SplitMix64):
    """Luby seed chooser that draws ``(a, b)`` uniformly and broadcasts."""

    def choose(sim, p: int) -> Tuple[Seed, int]:
        seed = Seed(a=rng.next_below(p), b=rng.next_below(p), p=p)
        broadcast_value(sim, (seed.a, seed.b), "_rand_seed")
        return seed, 1

    return choose


def random_sampling_chooser(rng: SplitMix64):
    """Sampling chooser that draws a seed per level, no scanning.

    The level statistics a scanning chooser scores against are ignored.
    """
    draw = random_luby_chooser(rng)

    def choose(dg: DistributedGraph, p: int, *level_stats) -> Tuple[Seed, int]:
        return draw(dg.sim, p)

    return choose



#: Consecutive zero-progress Luby phases a drawn seed may cause: an
#: unlucky draw is legal for a randomized chooser (with pairwise
#: independent marking it is rare), unlike for the deterministic one.
ALLOW_STALLS = 64


def luby_options(seed: int) -> Dict[str, object]:
    """Keyword arguments that turn a Luby engine into the baseline.

    For :func:`~repro.core.det_luby.luby_program` and
    :func:`~repro.core.det_matching.matching_program`.
    """
    return {
        "chooser": random_luby_chooser(SplitMix64(seed=seed)),
        "allow_stalls": ALLOW_STALLS,
    }


def ruling_options(seed: int) -> Dict[str, object]:
    """Keyword arguments that turn the ruling engine into the baseline.

    For :func:`~repro.core.det_ruling.ruling_program` and
    :func:`~repro.core.alpha_ruling.alpha_program`: sampling seeds and
    the nested Luby engine's seeds come from two forks of one stream.
    """
    rng = SplitMix64(seed=seed)
    return {
        "chooser": random_sampling_chooser(rng.fork(1)),
        "luby_chooser": random_luby_chooser(rng.fork(2)),
        "luby_allow_stalls": ALLOW_STALLS,
    }
