"""The phase-program framework: solvers as data, lifecycle handled once.

Every solver in this package is a sequence of *phases* — named units of
superstep work — threaded through loops and branches, with the same
bookkeeping re-implemented by hand in each module before this framework
existed: ``sim.begin_phase`` labels for :class:`~repro.mpc.metrics.
RunMetrics` timing and :class:`~repro.mpc.trace.TraceRecorder`
attribution, counter dictionaries, iteration limits with exhaustion
errors, per-iteration scratch-layer teardown, and machine-store key
management.

This module owns that lifecycle once:

* :class:`Phase` — one named unit: a body callable, the machine-store
  keys it may install (teardown bookkeeping and auditability), and the
  trace label the framework emits on entry.
* :class:`Loop` / :class:`Branch` / :class:`Subprogram` — composition:
  bounded iteration (with the exhaustion error raised in one place),
  routing between phase arms, and embedding one program inside another.
* :class:`SuperstepProgram` — the ordered composition a
  :class:`~repro.core.session.SolverSession` executes directly: counter
  initialisation, phase-label emission, and control-signal propagation
  happen here, not in solver modules.
* :class:`ProgramContext` — the per-run state: the distributed graph,
  counters, driver-side scratch, the result payload slots, and the
  *level bookkeeping* (dynamically allocated adjacency layers released
  in one teardown step).
* :func:`run_program` — run a program on a distributed graph in a fresh
  context; the only entry point, for the session and nested engines.

Phase bodies communicate control flow by returning a signal: ``EXIT``
ends the program (normal completion), ``BREAK`` leaves the innermost
:class:`Loop`, ``CONTINUE`` starts its next iteration.  Anything other
than a signal or ``None`` is a bug and raises.

This module is deliberately algorithm-agnostic: it imports no solver
module and spells no algorithm name (enforced by the drift-guard
tests).  Solver modules build programs from their own phase bodies; the
framework contributes structure, never policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import AlgorithmError


class ProgramSignal:
    """A control-flow sentinel a phase body may return."""

    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProgramSignal({self.label})"


#: End the whole program (normal completion).
EXIT = ProgramSignal("exit")
#: Leave the innermost :class:`Loop`.
BREAK = ProgramSignal("break")
#: Start the innermost :class:`Loop`'s next iteration.
CONTINUE = ProgramSignal("continue")


class ProgramContext:
    """Mutable per-run state threaded through every phase body.

    Holds the distributed graph and simulator, the counter dictionary
    the program returns, a free-form driver-side ``state`` dict for
    values that cross phase boundaries (routing decisions, measured
    sizes, committed seeds), the result payload slots the session reads
    back (``members`` / ``matching`` / ``extra_metrics``), and the
    level bookkeeping for dynamically allocated machine-store layers.
    """

    def __init__(self, dg):
        self.dg = dg
        self.sim = dg.sim
        self.counters: Dict[str, int] = {}
        self.state: Dict[str, object] = {}
        self.members: Optional[List[int]] = None
        self.matching: Optional[List[Tuple[int, int]]] = None
        self.extra_metrics: Dict[str, object] = {}
        self._levels: List[str] = []

    # -- level bookkeeping -----------------------------------------------

    def push_level(self, store_key: str) -> None:
        """Record a dynamically allocated machine-store layer.

        Layers registered here are released together by
        :meth:`release_levels` — the one teardown path every program
        shares, replacing each solver's hand-rolled cleanup loop.
        """
        self._levels.append(store_key)

    @property
    def level_keys(self) -> Tuple[str, ...]:
        """The currently registered (not yet released) layers."""
        return tuple(self._levels)

    def release_levels(self) -> None:
        """Drop every registered layer from every machine, in one step."""
        keys = tuple(self._levels)
        self._levels.clear()

        def cleanup(machine) -> None:
            for key in keys:
                machine.store.pop(key, None)

        self.sim.local(cleanup)

    def release(self, *keys: str) -> None:
        """Drop explicit machine-store keys (a phase's own teardown)."""

        def cleanup(machine) -> None:
            for key in keys:
                machine.store.pop(key, None)

        self.sim.local(cleanup)


#: A phase body: consumes the context, returns a signal or ``None``.
PhaseBody = Callable[[ProgramContext], Optional[ProgramSignal]]


@dataclass(frozen=True)
class Phase:
    """One named unit of superstep work.

    ``name`` is the trace label: on entry the framework calls
    ``sim.begin_phase(name)``, which both stamps subsequent rounds for
    :meth:`~repro.mpc.metrics.RunMetrics.phase_rounds` / per-phase
    timing and labels :class:`~repro.mpc.trace.TraceRecorder` events.
    ``None`` means the work is un-attributed bookkeeping (it rides under
    the previous label, exactly like pre-framework inline code).

    ``keys`` declares the machine-store keys the phase may install —
    documentation plus teardown bookkeeping (:meth:`SuperstepProgram.
    declared_keys` is how tests audit a program's store footprint).
    """

    body: PhaseBody
    name: Optional[str] = None
    keys: Tuple[str, ...] = ()

    def run(self, ctx: ProgramContext) -> Optional[ProgramSignal]:
        if self.name is not None:
            ctx.sim.begin_phase(self.name)
        signal = self.body(ctx)
        if signal is not None and not isinstance(signal, ProgramSignal):
            raise AlgorithmError(
                f"phase {self.name or self.body.__name__!r} returned "
                f"{signal!r}; phase bodies return a ProgramSignal or None"
            )
        return signal


@dataclass(frozen=True)
class Loop:
    """Bounded repetition of a step sequence.

    ``limit`` caps the iterations; exhausting it raises the exception
    built by ``exhausted`` (or ends the loop silently when ``None``).
    A body step returning ``BREAK`` ends the loop, ``CONTINUE`` skips to
    the next iteration, ``EXIT`` propagates outward and ends the whole
    program.
    """

    steps: Tuple["Step", ...]
    limit: Callable[[ProgramContext], int]
    exhausted: Optional[Callable[[ProgramContext], Exception]] = None

    def run(self, ctx: ProgramContext) -> Optional[ProgramSignal]:
        for _ in range(self.limit(ctx)):
            signal = run_steps(self.steps, ctx)
            if signal is EXIT:
                return EXIT
            if signal is BREAK:
                return None
            # None or CONTINUE: next iteration.
        if self.exhausted is not None:
            raise self.exhausted(ctx)
        return None


@dataclass(frozen=True)
class Branch:
    """Route to one of several step arms by a driver-side decision."""

    pick: Callable[[ProgramContext], object]
    arms: Mapping[object, Tuple["Step", ...]]

    def run(self, ctx: ProgramContext) -> Optional[ProgramSignal]:
        route = self.pick(ctx)
        try:
            steps = self.arms[route]
        except KeyError:
            raise AlgorithmError(
                f"branch routed to unknown arm {route!r}; "
                f"arms: {sorted(map(repr, self.arms))}"
            ) from None
        return run_steps(steps, ctx)


@dataclass(frozen=True)
class Subprogram:
    """Embed a whole program as one step of another.

    The child runs in the parent's context (shared counters, state,
    levels).  A child ``EXIT`` means the *child* completed — it is
    absorbed, and the parent continues with its next step.
    """

    program: "SuperstepProgram"

    def run(self, ctx: ProgramContext) -> Optional[ProgramSignal]:
        for counter in self.program.counters:
            ctx.counters.setdefault(counter, 0)
        signal = run_steps(self.program.steps, ctx)
        if signal is EXIT:
            return None
        return signal


Step = Union[Phase, Loop, Branch, Subprogram]


def run_steps(
    steps: Sequence[Step], ctx: ProgramContext
) -> Optional[ProgramSignal]:
    """Run steps in order; the first signal stops the sequence."""
    for step in steps:
        signal = step.run(ctx)
        if signal is not None:
            return signal
    return None


def iter_phases(steps: Sequence[Step]) -> Iterator[Phase]:
    """Every :class:`Phase` reachable from ``steps``, in program order."""
    for step in steps:
        if isinstance(step, Phase):
            yield step
        elif isinstance(step, Loop):
            yield from iter_phases(step.steps)
        elif isinstance(step, Branch):
            for arm in step.arms.values():
                yield from iter_phases(arm)
        elif isinstance(step, Subprogram):
            yield from iter_phases(step.program.steps)


@dataclass(frozen=True)
class SuperstepProgram:
    """An ordered/looped composition of phases a session executes.

    ``counters`` declares the counter names the program reports; they
    are initialised to 0 before the first step runs, so every run
    returns the same counter schema regardless of which branches fired.
    """

    name: str
    steps: Tuple[Step, ...]
    counters: Tuple[str, ...] = ()

    def run(self, ctx: ProgramContext) -> Dict[str, int]:
        """Execute against ``ctx``; returns the counter dictionary."""
        for counter in self.counters:
            ctx.counters.setdefault(counter, 0)
        run_steps(self.steps, ctx)
        return ctx.counters

    # -- static introspection (tests, docs) ------------------------------

    def phases(self) -> Tuple[Phase, ...]:
        """Every phase in the program, in program order."""
        return tuple(iter_phases(self.steps))

    def phase_names(self) -> Tuple[str, ...]:
        """Unique trace labels, in first-appearance order."""
        seen: Dict[str, None] = {}
        for phase in self.phases():
            if phase.name is not None and phase.name not in seen:
                seen[phase.name] = None
        return tuple(seen)

    def declared_keys(self) -> Tuple[str, ...]:
        """Union of every phase's declared store keys (program order)."""
        seen: Dict[str, None] = {}
        for phase in self.phases():
            for key in phase.keys:
                if key not in seen:
                    seen[key] = None
        return tuple(seen)

    def describe(self) -> str:
        """One line per phase: label and declared keys."""
        lines = [f"program {self.name}:"]
        for phase in self.phases():
            label = phase.name if phase.name is not None else "(unlabelled)"
            keys = ", ".join(phase.keys) if phase.keys else "-"
            lines.append(f"  {label}: keys={keys}")
        return "\n".join(lines)


def run_program(dg, program: SuperstepProgram) -> ProgramContext:
    """Run ``program`` on ``dg`` in a fresh context and return it.

    The one way to execute a phase program: the session uses it for
    every MPC solve, and phase bodies use it for nested engine runs (a
    Luby MIS on a sample level).  A fresh context keeps the child's
    counters separate from the caller's; read them from
    ``ctx.counters``, the payload from ``ctx.members`` /
    ``ctx.matching`` / ``ctx.extra_metrics``.
    """
    ctx = ProgramContext(dg)
    program.run(ctx)
    return ctx
