"""External per-layer trace: wrappers around ``repro``'s public entry points.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
each entry point listed in :data:`TARGETS` at its import site with a
wrapper that records a span, and :func:`uninstall` puts every original
object back (``installed_count()`` is 0 afterwards).  The untraced run
never imports this module.

A span is ``[id, name, start, end, parent id, op id, hot, counts]``.
Per-machine calls (machine callbacks, the memory audit) are too many to
record one by one, so they are *hot calls*: a ``[calls, seconds]`` pair
added to the enclosing span's ``hot`` dict.  A span's self time is its
duration minus its child spans and its hot calls, so for every operation
the self times and hot times of its spans add up to the root's duration.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import threading
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Span fields.
SID, NAME, START, END, PARENT, OP, HOT, COUNTS = range(8)

AUDIT = "machine.audit"
CALLBACK = "backend.callback"

#: Name of the root span the workload loop opens per operation.
ROOT = "op"


class Tracer:
    """Spans in memory, one stack per thread, roots registered by op id."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.marks: List[Tuple[object, float, str]] = []
        self.roots: Dict[object, list] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[list]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    # -- roots (one per timed operation) -----------------------------------

    def start_root(self, op: object, push: bool = True) -> list:
        """Open the root span of operation ``op``.

        ``push=False`` is for roots that do not own a thread (a served
        request: admitted on the event loop, executed on a worker); spans
        that name ``op`` then attach to it through :attr:`roots`.
        """
        span = [next(self._ids), ROOT, perf_counter(), None, None, op, {}, {}]
        self.spans.append(span)
        self.roots[op] = span
        if push:
            self._stack().append(span)
        return span

    def finish_root(self, span: list, pushed: bool = True) -> None:
        span[END] = perf_counter()
        if pushed:
            self._stack().pop()

    # -- inner spans -------------------------------------------------------

    def open(self, name: str, op: object = None) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self.roots.get(op)
        if parent is None:
            span = [next(self._ids), name, perf_counter(), None, None, op, {}, {}]
        else:
            span = [
                next(self._ids), name, perf_counter(), None, parent[SID],
                parent[OP] if op is None else op, {}, {},
            ]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack().pop()

    def hot_add(self, name: str, seconds: float) -> None:
        stack = self._stack()
        if stack:
            bucket = stack[-1][HOT].setdefault(name, [0, 0.0])
            bucket[0] += 1
            bucket[1] += seconds

    def mark_phase(self, name: str) -> None:
        stack = self._stack()
        op = stack[-1][OP] if stack else None
        self.marks.append((op, perf_counter(), name))

    def write_jsonl(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "op", "hot", "counts")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
            for op, at, name in self.marks:
                handle.write(
                    json.dumps({"phase": name, "op": op, "at": at}) + "\n"
                )


# ---------------------------------------------------------------------------
# Wrapper factories
# ---------------------------------------------------------------------------


def _spanned(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)

    return wrapper


def _hot(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def wrapper(*args, _fn=fn, _pc=perf_counter, _add=tracer.hot_add):
        started = _pc()
        try:
            return _fn(*args)
        finally:
            _add(name, _pc() - started)

    return wrapper


def _backend_step(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``run_*(machines, fn, ...)``: a span, with ``fn`` timed as hot calls.

    Shard backends also report how many shard loads, spills and spooled
    chunks the step cost, from their public ``stats()``.
    """

    def wrapper(self, machines, callback, *args, **kwargs):
        span = tracer.open(name)
        bucket = span[HOT].setdefault(CALLBACK, [0, 0.0])

        def timed(machine, _cb=callback, _pc=perf_counter, _b=bucket):
            started = _pc()
            try:
                return _cb(machine)
            finally:
                _b[0] += 1
                _b[1] += _pc() - started

        before = self.stats() if self.name == "shard" else None
        try:
            return fn(self, machines, timed, *args, **kwargs)
        finally:
            if before is not None:
                after = self.stats()
                for key, label in (
                    ("shard_loads", "shard.loads"),
                    ("shard_spills", "shard.spills"),
                    ("chunks_spooled", "shard.chunks_spooled"),
                ):
                    span[COUNTS][label] = after[key] - before[key]
            tracer.close(span)

    return wrapper


def _superstep(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``Simulator.local`` / ``communicate``: a span plus words routed."""

    def wrapper(self, *args, **kwargs):
        span = tracer.open(name)
        words = self.metrics.total_words
        try:
            return fn(self, *args, **kwargs)
        finally:
            span[COUNTS]["sim.total_words"] = self.metrics.total_words - words
            tracer.close(span)

    return wrapper


def _begin_phase(tracer: Tracer, fn: Callable) -> Callable:
    def wrapper(self, name, *args, **kwargs):
        tracer.mark_phase(name)
        return fn(self, name, *args, **kwargs)

    return wrapper


def _seed_search(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Seed searches also report how many candidates they scanned."""

    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
            span[COUNTS]["derand.candidates_scanned"] = (
                result[-1].candidates_scanned
            )
            span[COUNTS]["derand.searches"] = 1
            return result
        finally:
            tracer.close(span)

    return wrapper


def _op_entry(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Serve entry points take the request dict; its id names the op."""

    def wrapper(self, data, *args, **kwargs):
        span = tracer.open(name, op=data.get("id"))
        try:
            return fn(self, data, *args, **kwargs)
        finally:
            tracer.close(span)

    return wrapper


def _cache_get(tracer: Tracer, fn: Callable) -> Callable:
    def wrapper(self, key):
        span = tracer.open("serve.cache_get")
        try:
            result = fn(self, key)
            span[COUNTS]["serve.cache_gets"] = 1
            span[COUNTS]["serve.cache_hits"] = int(result is not None)
            return result
        finally:
            tracer.close(span)

    return wrapper


def _span(name: str):
    return lambda tracer, fn: _spanned(tracer, name, fn)


#: (module, owner or None, attribute, kind, wrapper factory).  ``kind`` is
#: "function", "method" or "classmethod".
TARGETS: Sequence[Tuple[str, Optional[str], str, str, Callable]] = (
    ("repro.mpc.simulator", "Simulator", "local", "method",
     lambda t, f: _superstep(t, "sim.local", f)),
    ("repro.mpc.simulator", "Simulator", "communicate", "method",
     lambda t, f: _superstep(t, "sim.communicate", f)),
    ("repro.mpc.simulator", "Simulator", "begin_phase", "method",
     _begin_phase),
    ("repro.mpc.backends", "SerialBackend", "run_local", "method",
     lambda t, f: _backend_step(t, "backend.run_local", f)),
    ("repro.mpc.backends", "SerialBackend", "run_communicate", "method",
     lambda t, f: _backend_step(t, "backend.run_communicate", f)),
    ("repro.mpc.backends", "SerialBackend", "run_harvest", "method",
     lambda t, f: _backend_step(t, "backend.run_harvest", f)),
    ("repro.mpc.shard", "ShardBackend", "run_local", "method",
     lambda t, f: _backend_step(t, "backend.run_local", f)),
    ("repro.mpc.shard", "ShardBackend", "run_exchange", "method",
     lambda t, f: _backend_step(t, "backend.run_exchange", f)),
    ("repro.mpc.shard", "ShardBackend", "run_harvest", "method",
     lambda t, f: _backend_step(t, "backend.run_harvest", f)),
    ("repro.mpc.machine", "Machine", "memory_words", "method",
     lambda t, f: _hot(t, AUDIT, f)),
    ("repro.mpc.shard", None, "words_of", "function",
     lambda t, f: _hot(t, AUDIT, f)),
    ("repro.mpc.graph_store", "DistributedGraph", "load", "classmethod",
     _span("graph_store.load")),
    ("repro.mpc.graph_store", "DistributedGraph", "load_sharded",
     "classmethod", _span("graph_store.load")),
    ("repro.mpc.graph_store", "DistributedGraph", "collect_marked", "method",
     _span("graph_store.collect")),
    ("repro.core.det_luby", None, "distributed_choose_seed", "function",
     lambda t, f: _seed_search(t, "derand.choose_seed", f)),
    ("repro.core.det_ruling", None, "distributed_scan_seeds", "function",
     lambda t, f: _seed_search(t, "derand.scan_seeds", f)),
    ("repro.core.gp_ruling", None, "distributed_scan_seeds", "function",
     lambda t, f: _seed_search(t, "derand.scan_seeds", f)),
    ("repro.core.pipeline", None, "verify_ruling_set", "function",
     _span("verify.verify")),
    ("repro.core.pipeline", None, "make_config_from_stats", "function",
     _span("session.sizing")),
    ("repro.core.session", None, "make_config", "function",
     _span("session.sizing")),
    ("repro.graph.stream", None, "scan_edge_list_stats", "function",
     _span("stream.scan")),
    ("repro.graph.stream", None, "shard_edge_list", "function",
     _span("stream.shard")),
    ("repro.serve.engine", None, "read_edge_list", "function",
     _span("graph.read_edge_list")),
    ("repro.serve.cache", "ResultCache", "get", "method", _cache_get),
    ("repro.serve.cache", "ResultCache", "put", "method",
     _span("serve.cache_put")),
    ("repro.serve.daemon", "ServeDaemon", "admit", "method",
     lambda t, f: _op_entry(t, "serve.admit", f)),
    ("repro.serve.engine", "BatchEngine", "serve_request", "method",
     lambda t, f: _op_entry(t, "serve.execute", f)),
)


#: What :func:`install` returns: (owner, attribute, original object or
#: None when the attribute was inherited), newest last.
Patches = List[Tuple[object, str, object]]


def _resolve(module_name: str, owner_name: Optional[str], attr: str):
    module = importlib.import_module(module_name)
    owner = module if owner_name is None else getattr(module, owner_name, None)
    where = f"{module_name}.{owner_name + '.' if owner_name else ''}{attr}"
    if owner is None or not hasattr(owner, attr):
        raise RuntimeError(f"trace target {where} does not exist")
    return owner, where


def install(tracer: Tracer) -> Patches:
    """Wrap every target; raises if any target is missing."""
    patches: Patches = []
    try:
        for module_name, owner_name, attr, kind, factory in TARGETS:
            owner, where = _resolve(module_name, owner_name, attr)
            own = owner.__dict__.get(attr) if owner_name else getattr(owner, attr)
            if kind == "classmethod":
                if not isinstance(own, classmethod):
                    raise RuntimeError(f"trace target {where} is not a classmethod")
                wrapped = classmethod(factory(tracer, own.__func__))
            else:
                target = getattr(owner, attr)
                if not callable(target):
                    raise RuntimeError(f"trace target {where} is not callable")
                wrapped = factory(tracer, target)
            patches.append((owner, attr, own))
            setattr(owner, attr, wrapped)
    except BaseException:
        uninstall(patches)
        raise
    return patches


def uninstall(patches: Patches) -> None:
    """Restore every original, newest patch first."""
    while patches:
        owner, attr, original = patches.pop()
        if original is None:
            delattr(owner, attr)  # the attribute was inherited
        else:
            setattr(owner, attr, original)


def installed_count() -> int:
    """How many targets are currently not their original object.

    A wrapper's closure names the function it wraps; any target whose
    code object comes from this module is a leftover wrapper.
    """
    count = 0
    for module_name, owner_name, attr, _, _ in TARGETS:
        owner, _ = _resolve(module_name, owner_name, attr)
        value = owner.__dict__.get(attr) if owner_name else getattr(owner, attr)
        if isinstance(value, classmethod):
            value = value.__func__
        code = getattr(value, "__code__", None)
        if code is not None and code.co_filename == __file__:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Analysis: spans -> per-operation layer times
# ---------------------------------------------------------------------------

#: Span name -> the layer its *self* time belongs to.  Together with the
#: hot-call layers this partitions every root's duration.
SELF_LAYER = {
    ROOT: "session.unattributed_s",
    "sim.local": "sim.local_self_s",
    "sim.communicate": "sim.route_self_s",
    "backend.run_local": "backend.overhead_s",
    "backend.run_communicate": "backend.overhead_s",
    "backend.run_harvest": "backend.overhead_s",
    "backend.run_exchange": "backend.overhead_s",
    "graph_store.load": "graph_store.load_self_s",
    "graph_store.collect": "graph_store.collect_self_s",
    "derand.choose_seed": "derand.search_self_s",
    "derand.scan_seeds": "derand.search_self_s",
    "verify.verify": "verify.verify_s",
    "session.sizing": "session.sizing_s",
    "stream.scan": "stream.scan_s",
    "stream.shard": "stream.shard_s",
    "graph.read_edge_list": "graph.read_edge_list_s",
    "serve.cache_get": "serve.cache_get_s",
    "serve.cache_put": "serve.cache_put_s",
    "serve.admit": "serve.admit_s",
    "serve.execute": "serve.execute_self_s",
}
#: Hot-call name -> (its seconds metric, its call-count metric).
HOT_LAYER = {
    AUDIT: ("machine.audit_s", "machine.audit_calls"),
    CALLBACK: ("backend.callback_s", "backend.callback_calls"),
}

#: Inclusive (duration) metrics: span names summed as whole intervals,
#: counting only the outermost span of the group per branch.
INCLUSIVE = {
    "sim.local_s": ("sim.local",),
    "sim.communicate_s": ("sim.communicate",),
    "derand.seed_search_s": ("derand.choose_seed", "derand.scan_seeds"),
    "derand.choose_seed_s": ("derand.choose_seed",),
    "derand.scan_seeds_s": ("derand.scan_seeds",),
    "graph_store.load_s": ("graph_store.load",),
    "graph_store.collect_s": ("graph_store.collect",),
    "serve.execute_s": ("serve.execute",),
}

#: Spans that end a program phase's interval when they start.
PHASE_CLOSERS = ("graph_store.collect", "verify.verify")


def per_op_layers(tracer: Tracer) -> Dict[object, Dict[str, float]]:
    """Layer metrics for every traced operation, keyed by op id."""
    by_op: Dict[object, List[list]] = {}
    for span in tracer.spans:
        if span[END] is not None:
            by_op.setdefault(span[OP], []).append(span)
    marks_by_op: Dict[object, List[Tuple[float, str]]] = {}
    for op, at, name in tracer.marks:
        marks_by_op.setdefault(op, []).append((at, name))
    result = {}
    for op, spans in by_op.items():
        root = tracer.roots.get(op)
        if root is None or root[END] is None:
            continue  # spans outside any timed operation (set-up work)
        result[op] = _layers_of(root, spans, marks_by_op.get(op, []))
    return result


def _layers_of(root: list, spans: List[list], marks) -> Dict[str, float]:
    by_id = {span[SID]: span for span in spans}
    child_time: Dict[int, float] = {}
    out: Dict[str, float] = {"op.duration_s": root[END] - root[START]}
    negative = 0.0
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (
                span[END] - span[START]
            )
    for span in spans:
        hot_seconds = 0.0
        for name, (calls, seconds) in span[HOT].items():
            layer, count_key = HOT_LAYER[name]
            out[layer] = out.get(layer, 0.0) + seconds
            out[count_key] = out.get(count_key, 0.0) + calls
            hot_seconds += seconds
        self_time = (
            span[END] - span[START] - child_time.get(span[SID], 0.0)
            - hot_seconds
        )
        if self_time < 0:
            # Children overlapping their parent: the partition no longer
            # adds up, which the partition check reports.
            negative += -self_time
            self_time = 0.0
        layer = SELF_LAYER[span[NAME]]
        out[layer] = out.get(layer, 0.0) + self_time
        for key, value in span[COUNTS].items():
            out[key] = out.get(key, 0.0) + value
        if span[NAME] in ("sim.local", "sim.communicate"):
            out["sim.supersteps"] = out.get("sim.supersteps", 0.0) + 1
            if span[NAME] == "sim.communicate":
                out["sim.rounds"] = out.get("sim.rounds", 0.0) + 1
    out["trace.negative_self_s"] = negative
    for metric, names in INCLUSIVE.items():
        total = 0.0
        for span in spans:
            if span[NAME] in names and not _has_ancestor(span, by_id, names):
                total += span[END] - span[START]
        out[metric] = total
    out.update(_phase_times(root, spans, marks))
    return out


def _has_ancestor(span: list, by_id: Dict[int, list], names) -> bool:
    parent = by_id.get(span[PARENT])
    while parent is not None:
        if parent[NAME] in names:
            return True
        parent = by_id.get(parent[PARENT])
    return False


def _phase_times(root: list, spans: List[list], marks) -> Dict[str, float]:
    """Seconds per program phase label: from its mark to the next mark,
    or to the first collect/verify span after it, or to the op's end."""
    if not marks:
        return {}
    marks = sorted(marks)
    closers = [span[START] for span in spans if span[NAME] in PHASE_CLOSERS]
    execute_end = [
        span[END] for span in spans if span[NAME] == "serve.execute"
    ]
    out: Dict[str, float] = {}
    for i, (at, name) in enumerate(marks):
        end = marks[i + 1][0] if i + 1 < len(marks) else root[END]
        end = min([end] + [c for c in closers if c > at] + execute_end)
        key = f"program.phase.{name}_s"
        out[key] = out.get(key, 0.0) + max(0.0, end - at)
    return out


def self_time_total(layers: Dict[str, float]) -> float:
    """Sum of the partition (self layers + hot layers) for one op."""
    names = set(SELF_LAYER.values()) | {t for t, _ in HOT_LAYER.values()}
    return sum(value for key, value in layers.items() if key in names)


def summarize(per_op: Dict[object, Dict[str, float]]) -> Dict[str, float]:
    """Per-operation means of every layer metric (0 where absent).

    Means, not medians: means of a partition add up to the mean
    operation, and on serve-mixed most requests never reach the solver
    layers, so their per-request median would be 0.
    """
    ops = list(per_op.values())
    keys = sorted({key for layers in ops for key in layers})
    out = {key: sum(layers.get(key, 0.0) for layers in ops) / len(ops)
           for key in keys}
    searches = out.get("derand.searches", 0.0)
    scanned = out.get("derand.candidates_scanned", 0.0)
    out["derand.accept_ratio"] = searches / scanned if scanned else 0.0
    gets = out.get("serve.cache_gets", 0.0)
    out["serve.cache_hit_ratio"] = (
        out.get("serve.cache_hits", 0.0) / gets if gets else 0.0
    )
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def serve_waits(tracer: Tracer) -> Dict[str, float]:
    """Queue wait (admitted -> execution starts) and execute tails."""
    admitted: Dict[object, float] = {}
    started: Dict[object, float] = {}
    executes: List[float] = []
    for span in tracer.spans:
        if span[END] is None or span[OP] not in tracer.roots:
            continue
        if span[NAME] == "serve.admit":
            admitted[span[OP]] = span[END]
        elif span[NAME] == "serve.execute":
            started[span[OP]] = span[START]
            executes.append(span[END] - span[START])
    waits = [started[op] - admitted[op] for op in started if op in admitted]
    if not waits:
        return {}
    return {
        "serve.queue_wait_p50_s": median(waits),
        "serve.queue_wait_p99_s": percentile(waits, 99),
        "serve.execute_p99_s": percentile(executes, 99),
    }
