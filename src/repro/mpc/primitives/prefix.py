"""Exclusive prefix sums across machines.

Used to assign globally unique, dense ranks to distributed items: machine
``i`` learns the total item count on machines ``0..i-1``.  Costs two
rounds (gather counts at machine 0, scatter offsets), assuming ``k <= S/2``
— true in every supported configuration and enforced by the simulator's
I/O budget if not.  The scatter runs on machine 0 alone.
"""

from __future__ import annotations

from typing import Callable

from repro.mpc.backends import Outbox
from repro.mpc.machine import Machine
from repro.mpc.simulator import Simulator

_COUNT = "_prim_count"


def exclusive_prefix_counts(
    sim: Simulator,
    count_fn: Callable[[Machine], int],
    store_key: str = "_prim_offset",
) -> int:
    """Store each machine's exclusive prefix of ``count_fn`` totals.

    After the call, ``machine.store[store_key]`` holds the sum of counts
    over all lower-id machines; the grand total is returned.
    """

    def send_count(machine) -> Outbox:
        count = int(count_fn(machine))
        machine.store[_COUNT] = count
        return [(0, (machine.mid, count))]

    sim.communicate(send_count)

    def scatter(machine) -> Outbox:
        if machine.mid != 0:
            return []
        counts = [0] * sim.num_machines
        for mid, count in machine.inbox:
            counts[mid] = count
        machine.clear_inbox()
        out = []
        running = 0
        for mid, count in enumerate(counts):
            out.append((mid, (running,)))
            running += count
        machine.store["_prim_total"] = running
        return out

    sim.communicate(scatter, only=(0,))

    def install(machine) -> None:
        machine.store[store_key] = machine.inbox[0][0]
        machine.clear_inbox()
        machine.store.pop(_COUNT, None)

    sim.local(install)

    def read_total(machine):
        return machine.store.pop("_prim_total")

    return sim.harvest(read_total, only=(0,))[0]
