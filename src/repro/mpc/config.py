"""MPC regime configuration.

The MPC model is parameterised by the number of machines ``k`` and the
per-machine memory ``S`` (in words), with the standing requirement
``k * S = Ω(input size)``.  The interesting regimes for ruling sets:

* **sublinear** (``S = n^α, α < 1``) — the hard regime; algorithms must
  work on graph fragments and the paper's sparsify-and-gather shape
  exists precisely to cope with it;
* **near-linear** (``S = Θ(n)``) — a machine can hold all vertices but
  not all edges;
* **explicit** — any ``(k, S)`` pair, used by tests and the E6 sweep.

Factories take the graph's size (and ideally its max degree), because
honest sizing depends on the input representation: the input occupies
``2m + n`` words (adjacency plus one word per vertex) and must fit in
``k * S`` with the configured margin.  Two standing side conditions may
lift ``S`` above the requested regime value:

* ``S = Ω(Δ)`` — one vertex's adjacency (and per-round neighbour
  traffic) must fit one machine.  Splitting heavy vertices across
  machines is a known technique this implementation does not include
  (recorded as a substitution in DESIGN.md); instead the config makes
  the requirement explicit.
* ``k <= S / 8`` — a slightly strengthened form of the standard MPC
  assumption that the machine count does not exceed per-machine memory,
  needed so compact owner tables and single-round converge-casts fit
  alongside algorithm state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import MPCConfigError
from repro.util.mathx import ceil_div, ipow_ceil

# Multiplicative margin between aggregate memory and raw input size: a
# machine's input share is at most S / MARGIN.  Worst-case stacking on a
# machine is ~4.2x its adjacency share (adjacency + neighbour values +
# estimator terms, all-higher-neighbour case) + the owner table (<= S/8
# by the side condition below) + reduction buffers (<= S/4) + the Δ-heavy
# vertex the balanced partition cannot split — the margin and floors
# together keep that sum below S.
_MARGIN = 14

# Smallest machine memory the primitives support comfortably: fixed
# overheads (owner table, reduction buffers, seed-search vectors) do not
# shrink with the input, so tiny graphs need this floor.
_MIN_MEMORY = 256


@dataclass(frozen=True)
class MPCConfig:
    """A fixed MPC regime: ``num_machines`` machines of ``memory_words`` each.

    ``slack`` is the multiplicative headroom factor that was applied to the
    information-theoretic minimum when the config was derived (kept for
    reporting); ``label`` names the regime in benchmark output.

    The execution backend and the trace recorder are not part of the
    regime: they are handed to :class:`~repro.mpc.simulator.Simulator`
    (a :class:`~repro.core.session.SolverSession` builds both).

    ``kernel`` selects how the seed search's estimators score candidate
    seeds (``"python"`` reference or ``"numpy"`` batched arrays; see
    :mod:`repro.mpc.state_layout`).  ``None`` defers to the
    ``REPRO_KERNEL`` environment variable, then the reference kernel.
    An execution strategy, never semantics: both kernels are
    bit-identical by contract.
    """

    num_machines: int
    memory_words: int
    label: str = "explicit"
    slack: int = 1
    kernel: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_machines < 1:
            raise MPCConfigError(
                f"need at least one machine, got {self.num_machines}"
            )
        if self.memory_words < 4:
            raise MPCConfigError(
                f"memory_words must be at least 4, got {self.memory_words}"
            )
        if self.kernel is not None:
            from repro.mpc.state_layout import KERNELS

            if self.kernel not in KERNELS:
                raise MPCConfigError(
                    f"unknown kernel {self.kernel!r}; expected one of "
                    f"{KERNELS} (or None for the environment default)"
                )

    def with_kernel(self, kernel: Optional[str]) -> "MPCConfig":
        """Copy of this config using a different compute kernel."""
        return replace(self, kernel=kernel)

    @property
    def total_memory(self) -> int:
        """Aggregate memory ``k * S`` in words."""
        return self.num_machines * self.memory_words

    def validate_input_size(self, input_words: int) -> None:
        """Raise unless the input fits in aggregate memory."""
        if input_words > self.total_memory:
            raise MPCConfigError(
                f"input of {input_words} words exceeds aggregate memory "
                f"{self.total_memory} (k={self.num_machines}, "
                f"S={self.memory_words})"
            )

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    @staticmethod
    def input_words(num_vertices: int, num_edges: int) -> int:
        """Words needed to store the input graph: adjacency + vertex ids."""
        return 2 * num_edges + num_vertices

    @classmethod
    def _finish(
        cls,
        memory: int,
        need: int,
        label: str,
        slack: int,
        max_degree: int,
    ) -> "MPCConfig":
        """Apply the side conditions to a proposed ``S`` and derive ``k``."""
        # S = Ω(Δ) floor: the machine owning a degree-Δ vertex transiently
        # holds ~8 words per adjacency entry (adjacency + neighbour values
        # + estimator terms), and buffers may take up to S/2 more.
        import math

        memory = max(memory, _MIN_MEMORY, 16 * (max_degree + 1))
        floor_sq = 8 * _MARGIN * max(1, need)  # k <= S/8 with k = M*need/S
        if memory * memory < floor_sq:
            memory = math.isqrt(floor_sq - 1) + 1  # exact ceil(sqrt)
        machines = max(2, ceil_div(_MARGIN * need, memory))
        if machines > memory // 8:
            # ceil rounding can push k one past S/8; restore the invariant.
            memory = 8 * machines
        return cls(
            num_machines=machines,
            memory_words=memory,
            label=label,
            slack=slack,
        )

    @classmethod
    def sublinear(
        cls,
        num_vertices: int,
        num_edges: int,
        alpha_num: int = 2,
        alpha_den: int = 3,
        slack: int = 8,
        max_degree: int = 0,
    ) -> "MPCConfig":
        """Sublinear regime ``S ≈ slack * n^(alpha_num/alpha_den)``.

        ``slack`` provides headroom for algorithm state beyond the raw
        input share.  Pass the graph's Δ as ``max_degree`` so ``S`` is
        lifted to Ω(Δ) where needed (heavy vertices are not split across
        machines here).  Dense inputs may also lift ``S`` via the
        ``k <= S/8`` side condition.

        >>> cfg = MPCConfig.sublinear(1000, 5000, 2, 3)
        >>> cfg.memory_words >= 800
        True
        """
        if not 0 < alpha_num <= alpha_den:
            raise MPCConfigError("alpha must lie in (0, 1]")
        base = max(num_vertices, 2)
        memory = slack * ipow_ceil(base, alpha_num, alpha_den)
        need = cls.input_words(num_vertices, num_edges)
        label = f"sublinear(α={alpha_num}/{alpha_den})"
        return cls._finish(memory, need, label, slack, max_degree)

    @classmethod
    def near_linear(
        cls,
        num_vertices: int,
        num_edges: int,
        slack: int = 4,
        max_degree: int = 0,
    ) -> "MPCConfig":
        """Near-linear regime: ``S ≈ slack * n`` words per machine."""
        memory = slack * max(num_vertices, 2)
        need = cls.input_words(num_vertices, num_edges)
        return cls._finish(memory, need, "near-linear", slack, max_degree)

    @classmethod
    def single_machine(
        cls, num_vertices: int, num_edges: int, slack: int = 4
    ) -> "MPCConfig":
        """Degenerate one-machine config (sequential oracle runs)."""
        need = cls.input_words(num_vertices, num_edges)
        return cls(
            num_machines=1,
            memory_words=max(_MIN_MEMORY, slack * need),
            label="single",
            slack=slack,
        )
