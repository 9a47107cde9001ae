"""Converge-cast reductions.

``reduce_scalar`` / ``reduce_vector`` combine one value per machine into a
single value at machine 0 along a fanout-``f`` tree, where ``f`` is chosen
as large as the receive budget allows — with ``S >= k`` the tree is a star
and the reduction costs exactly one round; in general
``ceil(log_f k)`` rounds.

The reduction operator must be associative and commutative (sums, min,
max, elementwise tuple sums); partial combination order is deterministic
but unspecified.

Each level runs on its participants only: the machines at multiples of
the level's stride send, and the leaders at multiples of ``stride * f``
merge.  Every other machine's callback would be idle, and the callbacks
keep their idle guards, so running a level on every machine gives the
same stores, inboxes and metrics.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.mpc.backends import Outbox
from repro.mpc.simulator import Simulator

_PARTIAL = "_prim_partial"


def _fanout(sim: Simulator, value_words: int) -> int:
    # A tree leader buffers (fanout - 1) * value_words inbox words on top
    # of its live state, so only a quarter of the memory budget is spent
    # on the reduction buffer.
    budget = max(2, (sim.config.memory_words // 4) // max(1, value_words))
    return min(max(2, budget), max(2, sim.num_machines))


def reduce_vector(
    sim: Simulator,
    extract: Callable,
    combine: Callable[[Tuple[int, ...], Tuple[int, ...]], Tuple[int, ...]],
    width: int,
) -> Tuple[int, ...]:
    """Reduce one ``width``-tuple per machine to machine 0; return it.

    ``extract(machine)`` supplies each machine's local tuple.  Costs
    ``ceil(log_f k)`` rounds with ``f = max(2, S // width)``.
    """
    fanout = _fanout(sim, width)

    def plant(machine) -> None:
        value = tuple(extract(machine))
        if len(value) != width:
            raise ValueError(
                f"extract returned {len(value)} words, expected {width}"
            )
        machine.store[_PARTIAL] = value

    sim.local(plant)

    stride = 1
    k = sim.num_machines
    while stride < k:
        level_stride = stride

        def send_level(machine) -> Outbox:
            mid = machine.mid
            if mid % level_stride != 0:
                return []
            if mid % (level_stride * fanout) == 0:
                return []
            leader = mid - (mid % (level_stride * fanout))
            payload = machine.store.pop(_PARTIAL)
            return [(leader, tuple(payload))]

        sim.communicate(send_level, only=range(0, k, level_stride))

        def merge(machine) -> None:
            if _PARTIAL not in machine.store:
                machine.clear_inbox()
                return
            value = machine.store[_PARTIAL]
            for payload in machine.inbox:
                value = tuple(combine(value, payload))
            machine.store[_PARTIAL] = value
            machine.clear_inbox()

        sim.local(merge, only=range(0, k, level_stride * fanout))
        stride *= fanout

    def read_root(machine):
        return machine.store.pop(_PARTIAL)

    return tuple(sim.harvest(read_root, only=(0,))[0])


def reduce_scalar(
    sim: Simulator,
    extract: Callable,
    combine: Callable[[int, int], int],
) -> int:
    """Reduce one integer per machine to machine 0; return it.

    >>> # doctest-free: exercised in tests/mpc/test_primitives.py
    """

    def extract_tuple(machine):
        return (int(extract(machine)),)

    def combine_tuple(a, b):
        return (combine(a[0], b[0]),)

    return reduce_vector(sim, extract_tuple, combine_tuple, width=1)[0]

