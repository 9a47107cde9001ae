"""Deterministic MPC building blocks.

Each primitive is expressed as supersteps on a :class:`repro.mpc.Simulator`
and costs the round count its docstring states.  Each step names its
participants (``only=``), the machines its stride arithmetic says can
act, so the rest cost no callback and no audit.  They are the vocabulary
the ruling-set algorithms are written in:

* ``aggregate`` — converge-cast reduction trees (scalar and fixed-width
  vector);
* ``broadcast`` — fanout-tree broadcast from machine 0;
* ``prefix`` — exclusive prefix sums over per-machine item counts.
"""

from repro.mpc.primitives.aggregate import reduce_scalar, reduce_vector
from repro.mpc.primitives.broadcast import broadcast_value
from repro.mpc.primitives.prefix import exclusive_prefix_counts

__all__ = [
    "reduce_scalar",
    "reduce_vector",
    "broadcast_value",
    "exclusive_prefix_counts",
]
