"""Fanout-tree broadcast from machine 0.

After ``broadcast_value(sim, value, key)`` every machine holds ``value``
(a tuple of words) under ``store[key]``.  With per-value width ``L`` and
send budget ``S``, the fanout is ``f = max(2, S // L)`` and the cost is
``ceil(log_f k)`` rounds — one round in the common case ``S >= k * L``.

Each level runs on its participants only: the covered machines send,
and the machines they reach install.  The callbacks keep their idle
guards, so running a level on every machine gives the same result.
"""

from __future__ import annotations

from typing import Tuple

from repro.mpc.backends import Outbox
from repro.mpc.simulator import Simulator


def broadcast_value(
    sim: Simulator, value: Tuple[int, ...], store_key: str
) -> None:
    """Broadcast ``value`` from machine 0 to all machines.

    The value is planted at machine 0 (it is produced there by a
    reduction; planting is free because machine 0 already computed it) and
    propagated along the tree.
    """
    value = tuple(value)
    width = max(1, len(value))
    # Senders pay (fanout - 1) * width words on top of live state; keep
    # the broadcast buffer within a quarter of the memory budget.
    budget = max(2, (sim.config.memory_words // 4) // width)
    fanout = min(max(2, budget), max(2, sim.num_machines))

    def plant_root(machine) -> None:
        machine.store[store_key] = value

    sim.harvest(plant_root, only=(0,))

    covered = 1
    k = sim.num_machines
    while covered < k:
        level_covered = covered

        def send_level(machine) -> Outbox:
            mid = machine.mid
            if mid >= level_covered:
                return []
            payload = machine.store[store_key]
            out = []
            for j in range(1, fanout):
                target = mid + j * level_covered
                if level_covered <= 0:
                    break
                if target < min(k, level_covered * fanout):
                    out.append((target, tuple(payload)))
            return out

        sim.communicate(send_level, only=range(min(k, level_covered)))

        def install(machine) -> None:
            if machine.inbox:
                machine.store[store_key] = tuple(machine.inbox[0])
                machine.clear_inbox()

        next_covered = min(k, covered * fanout)
        sim.local(install, only=range(covered, next_covered))
        covered = next_covered
