"""Phase-program framework: unit semantics and end-to-end name flow.

Two layers of coverage:

* ``TestSignals`` .. ``TestIntrospection`` exercise the framework
  against a stub context (no simulator): signal propagation, loop
  exhaustion, branch routing, subprogram absorption, counter schema,
  level teardown, introspection.
* ``TestPhaseNameFlow`` runs real solver programs through the session
  and asserts the programs' declared phase names are exactly what
  arrives in ``RunMetrics`` (``phase_rounds`` / ``time_per_phase``) and
  in ``TraceRecorder`` events — for two different programs, on the
  serial and the shard backend.
"""

import pytest

from repro.core.pipeline import solve_ruling_set
from repro.core.program import (
    BREAK,
    CONTINUE,
    EXIT,
    Branch,
    Loop,
    Phase,
    ProgramContext,
    Subprogram,
    SuperstepProgram,
)
from repro.errors import AlgorithmError


class FakeSim:
    """Driver-side stand-in: records phase labels and local steps."""

    def __init__(self):
        self.phases = []
        self.local_calls = 0

    def begin_phase(self, name):
        self.phases.append(name)

    def local(self, fn):
        self.local_calls += 1


class FakeDG:
    def __init__(self):
        self.sim = FakeSim()


def make_ctx() -> ProgramContext:
    return ProgramContext(FakeDG())


class TestSignals:
    def test_plain_sequence_runs_in_order(self):
        order = []
        prog = SuperstepProgram(
            name="seq",
            steps=(
                Phase(lambda ctx: order.append("a")),
                Phase(lambda ctx: order.append("b")),
            ),
        )
        prog.run(make_ctx())
        assert order == ["a", "b"]

    def test_exit_stops_the_program(self):
        order = []
        prog = SuperstepProgram(
            name="exit",
            steps=(
                Phase(lambda ctx: EXIT),
                Phase(lambda ctx: order.append("unreached")),
            ),
        )
        prog.run(make_ctx())
        assert order == []

    def test_non_signal_return_raises(self):
        prog = SuperstepProgram(
            name="bad", steps=(Phase(lambda ctx: 42, name="oops"),)
        )
        with pytest.raises(AlgorithmError, match="returned 42"):
            prog.run(make_ctx())

    def test_named_phase_emits_begin_phase(self):
        ctx = make_ctx()
        prog = SuperstepProgram(
            name="labels",
            steps=(
                Phase(lambda ctx: None, name="first"),
                Phase(lambda ctx: None),  # unlabelled: no emission
                Phase(lambda ctx: None, name="second"),
            ),
        )
        prog.run(ctx)
        assert ctx.sim.phases == ["first", "second"]


class TestLoop:
    def test_break_ends_loop_continue_skips(self):
        hits = []

        def body(ctx):
            hits.append(ctx.counters.get("i", 0))
            ctx.counters["i"] = ctx.counters.get("i", 0) + 1
            if ctx.counters["i"] == 2:
                return CONTINUE
            if ctx.counters["i"] >= 4:
                return BREAK
            return None

        after = []
        prog = SuperstepProgram(
            name="loop",
            steps=(
                Loop(
                    (
                        Phase(body),
                        Phase(lambda ctx: after.append(ctx.counters["i"])),
                    ),
                    limit=lambda ctx: 100,
                ),
            ),
        )
        prog.run(make_ctx())
        assert hits == [0, 1, 2, 3]
        # Iteration 2 CONTINUEd and 4 BREAKed past the second phase.
        assert after == [1, 3]

    def test_exhaustion_raises_the_built_error(self):
        prog = SuperstepProgram(
            name="spin",
            steps=(
                Loop(
                    (Phase(lambda ctx: None),),
                    limit=lambda ctx: 3,
                    exhausted=lambda ctx: AlgorithmError("did not finish"),
                ),
            ),
        )
        with pytest.raises(AlgorithmError, match="did not finish"):
            prog.run(make_ctx())

    def test_exhaustion_silent_without_builder(self):
        prog = SuperstepProgram(
            name="spin",
            steps=(Loop((Phase(lambda ctx: None),), limit=lambda ctx: 3),),
        )
        assert prog.run(make_ctx()) == {}

    def test_exit_propagates_through_loop(self):
        order = []
        prog = SuperstepProgram(
            name="nested-exit",
            steps=(
                Loop((Phase(lambda ctx: EXIT),), limit=lambda ctx: 10),
                Phase(lambda ctx: order.append("after")),
            ),
        )
        prog.run(make_ctx())
        assert order == []


class TestBranch:
    def test_routes_by_pick(self):
        taken = []
        prog = SuperstepProgram(
            name="route",
            steps=(
                Branch(
                    pick=lambda ctx: ctx.state["route"],
                    arms={
                        "left": (Phase(lambda ctx: taken.append("L")),),
                        "right": (Phase(lambda ctx: taken.append("R")),),
                    },
                ),
            ),
        )
        ctx = make_ctx()
        ctx.state["route"] = "right"
        prog.run(ctx)
        assert taken == ["R"]

    def test_unknown_arm_raises(self):
        prog = SuperstepProgram(
            name="route",
            steps=(
                Branch(pick=lambda ctx: "nope", arms={"left": ()}),
            ),
        )
        with pytest.raises(AlgorithmError, match="unknown arm 'nope'"):
            prog.run(make_ctx())


class TestSubprogram:
    def test_child_exit_absorbed_and_counters_seeded(self):
        child = SuperstepProgram(
            name="child",
            counters=("child_hits",),
            steps=(Phase(lambda ctx: EXIT),),
        )
        order = []
        parent = SuperstepProgram(
            name="parent",
            steps=(
                Subprogram(child),
                Phase(lambda ctx: order.append("parent-continues")),
            ),
        )
        ctx = make_ctx()
        counters = parent.run(ctx)
        assert order == ["parent-continues"]
        assert counters["child_hits"] == 0


class TestLevels:
    def test_release_levels_is_one_local_step(self):
        ctx = make_ctx()
        ctx.push_level("lvl0")
        ctx.push_level("lvl1")
        assert ctx.level_keys == ("lvl0", "lvl1")
        ctx.release_levels()
        assert ctx.level_keys == ()
        assert ctx.sim.local_calls == 1

    def test_release_explicit_keys(self):
        ctx = make_ctx()
        ctx.release("a", "b")
        assert ctx.sim.local_calls == 1


class TestIntrospection:
    def make_program(self):
        return SuperstepProgram(
            name="intro",
            counters=("x",),
            steps=(
                Phase(lambda ctx: None, name="setup", keys=("k1",)),
                Loop(
                    (
                        Phase(
                            lambda ctx: None, name="work",
                            keys=("k2", "k1"),
                        ),
                        Branch(
                            pick=lambda ctx: "a",
                            arms={
                                "a": (
                                    Phase(lambda ctx: None, name="arm-a"),
                                ),
                                "b": (Phase(lambda ctx: None, name="work"),),
                            },
                        ),
                    ),
                    limit=lambda ctx: 1,
                ),
            ),
        )

    def test_phase_names_unique_in_order(self):
        assert self.make_program().phase_names() == ("setup", "work", "arm-a")

    def test_declared_keys_deduplicated(self):
        assert self.make_program().declared_keys() == ("k1", "k2")

    def test_describe_lists_every_phase(self):
        text = self.make_program().describe()
        assert "program intro:" in text
        assert "setup: keys=k1" in text
        assert "work: keys=k2, k1" in text
        assert "arm-a: keys=-" in text


# ---------------------------------------------------------------------------
# End-to-end: phase names flow program -> simulator -> metrics/trace.
# ---------------------------------------------------------------------------


def _registered_program(algorithm, graph):
    from repro.core.registry import RunContext, get_algorithm

    spec = get_algorithm(algorithm)
    ctx = RunContext(graph=graph, alpha=2, beta=2, seed=0, in_set_key="x")
    return spec.program_factory(ctx)


def _declared_names(algorithm, graph):
    """The program's static phase names, plus its dynamic subroutine's.

    The ruling-set engines call the Luby engine at *runtime* (level
    solves, endgame) rather than composing it statically, so its labels
    legitimately appear in a run's attribution too.
    """
    from repro.core.det_luby import luby_program

    declared = set(_registered_program(algorithm, graph).phase_names())
    if algorithm != "det-luby":
        declared |= set(luby_program().phase_names())
    return declared


FLOW_CASES = [
    ("det-ruling", "ruling-iteration"),
    ("det-luby", "luby-phase"),
    ("gp-2ruling", "gp-degree-class"),
]


class TestPhaseNameFlow:
    @pytest.mark.parametrize("algorithm,marker", FLOW_CASES)
    def test_metrics_phases_are_program_phases(
        self, small_er, algorithm, marker
    ):
        declared = _declared_names(algorithm, small_er)
        assert marker in declared
        result = solve_ruling_set(small_er, algorithm=algorithm)
        observed = set(result.phase_rounds) | set(result.time_per_phase)
        # Rounds before the first Phase (graph distribution) land in the
        # metrics' catch-all bucket; everything else must be a name the
        # program itself declared.
        observed.discard("(unphased)")
        assert observed  # phases actually ran and were attributed
        assert observed <= declared
        assert marker in observed

    @pytest.mark.parametrize("algorithm,marker", FLOW_CASES)
    def test_trace_events_carry_program_phases(
        self, small_er, algorithm, marker
    ):
        declared = _declared_names(algorithm, small_er)
        result = solve_ruling_set(small_er, algorithm=algorithm, trace=True)
        labels = {
            ev["phase"] for ev in result.trace.events
            if ev["type"] == "phase"
        }
        assert labels
        assert labels <= declared
        assert marker in labels

    @pytest.mark.parametrize(
        "algorithm,marker", [FLOW_CASES[0], FLOW_CASES[1]]
    )
    def test_phase_names_flow_on_shard_backend(
        self, small_er, algorithm, marker
    ):
        declared = _declared_names(algorithm, small_er)
        result = solve_ruling_set(
            small_er, algorithm=algorithm, backend="shard", trace=True
        )
        observed = set(result.phase_rounds) | set(result.time_per_phase)
        observed.discard("(unphased)")
        assert observed and observed <= declared
        assert marker in observed
        labels = {
            ev["phase"] for ev in result.trace.events
            if ev["type"] == "phase"
        }
        assert labels <= declared

    def test_shard_and_serial_attribute_identically(self, small_er):
        serial = solve_ruling_set(small_er, algorithm="gp-2ruling")
        shard = solve_ruling_set(
            small_er, algorithm="gp-2ruling", backend="shard"
        )
        assert serial.phase_rounds == shard.phase_rounds
        assert serial.members == shard.members
        assert serial.rounds == shard.rounds
