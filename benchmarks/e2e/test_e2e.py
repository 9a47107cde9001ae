"""Smoke test of the end-to-end benchmark (about 30 s on two cores).

Run explicitly; the repository's default test run does not collect it::

    python3 -m pytest benchmarks/e2e/test_e2e.py

Every benchmark run here uses ``--scale smoke`` (tiny inputs).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

#: Input digests per workload for seed 0 — a change to any generator or
#: shape constant changes what the benchmark measures and must show here.
PINNED = {
    "full": {
        "solve-er": "bd202a392bd39b21",
        "solve-rmat": "3c9c355febec65e2",
        "stream-circulant": "2e8709411e197759",
        "serve-mixed": "7ad26db10dcff0e7",
    },
}


def benchmark(*args, cwd=ROOT):
    script = os.path.join(cwd, "benchmarks", "e2e", "run.py")
    return subprocess.run(
        [sys.executable, script, "--scale", "smoke", "--seconds", "2", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def untraced(tmp_out):
    done = benchmark("--out", tmp_out("untraced.json"))
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, tmp_out("untraced.json")


@pytest.fixture(scope="module")
def traced(tmp_out):
    done = benchmark("--trace", "--out", tmp_out("traced.json"))
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, tmp_out("traced.json")


@pytest.fixture(scope="module")
def tmp_out():
    # Benchmark outputs stay inside the checkout (under the ignored
    # work directory), like every file the benchmark writes.
    base = os.path.join(HERE, ".work", f"test-{os.getpid()}")
    os.makedirs(base, exist_ok=True)
    yield lambda name: os.path.join(base, name)
    shutil.rmtree(base, ignore_errors=True)


def last_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_declared_metrics_match_the_code(declared):
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(
        run.PER_LAYER
    )
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in declared["end_to_end"]
    )


def test_every_metric_is_printed_with_its_unit(declared, untraced, traced):
    for stdout, kind in ((untraced[0], "end_to_end"), (traced[0], "per_layer")):
        line = last_line(stdout)
        assert line["correct"] and line["failed"] == 0
        for workload in run.WORKLOADS:
            for metric in declared[kind]:
                entry = line["metrics"][f"{workload}/{metric['name']}"]
                assert entry["unit"] == metric["unit"]
                assert isinstance(entry["value"], float)
    for workload in run.WORKLOADS:
        for name, unit, _ in run.END_TO_END + run.EXTRA_END_TO_END:
            assert f"{workload}: {name} = " in untraced[0]
            assert any(
                line.startswith(f"{workload}: {name} = ")
                and line.endswith(f" {unit}")
                for line in untraced[0].splitlines()
            )


def test_error_rate_is_zero(untraced, traced):
    for _, path in (untraced, traced):
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        for result in report["workloads"].values():
            assert result["failed"] == 0, result["errors"]
            assert result["metrics"]["error_rate"]["value"] == 0.0


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_seeds_reproduce_input_digests(workload):
    for scale in inputs.SHAPES:
        first = inputs.build(workload, 7, scale, None)["digest"]
        assert inputs.build(workload, 7, scale, None)["digest"] == first
        assert inputs.build(workload, 8, scale, None)["digest"] != first
    assert inputs.build(workload, 0, "full", None)["digest"] == (
        PINNED["full"][workload]
    )


def test_host_speed_scales_by_the_probes_around_a_timing():
    probe = hostspeed.HostSpeed()
    probe.times = [0.0, 1.0, 2.0, 10.0]
    probe.speeds = [1.0, 0.5, 0.5, 0.25]
    assert probe.scaled(0.9, 2.1) == pytest.approx(1.2 * 0.5)
    assert probe.speed(0.0, 10.0) == pytest.approx(0.5625)
    # No probe within the margin: the window widens until it reaches one.
    assert probe.speed(5.0, 5.1) == pytest.approx(0.5)


def test_host_speed_probe_runs_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    probe = hostspeed.HostSpeed()
    probe.start()
    end = time.perf_counter() + 0.2
    while time.perf_counter() < end:
        pass
    probe.stop()
    assert len(probe.times) >= 5
    assert all(speed > 0 for speed in probe.speeds)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_times_sum_to_each_root(traced):
    with open(traced[1], encoding="utf-8") as handle:
        report = json.load(handle)
    for workload in run.WORKLOADS:
        checks = report["workloads"][workload]["trace_checks"]
        assert checks["traced_ops"] > 0
        assert checks["max_partition_error"] < 0.05
        path = os.path.join(HERE, "results", f"spans-{workload}-0.jsonl")
        spans = {}
        with open(path, encoding="utf-8") as handle:
            for raw in handle:
                record = json.loads(raw)
                if "id" in record:
                    spans[record["id"]] = record
        children = {}
        for span in spans.values():
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        by_root = {}
        for span in spans.values():
            top = span
            while top["parent"] is not None:
                top = spans[top["parent"]]
            if top["name"] != tracing.ROOT:
                continue
            duration = span["end"] - span["start"]
            inner = sum(c["end"] - c["start"] for c in children.get(span["id"], []))
            hot = sum(seconds for _, seconds in span["hot"].values())
            by_root.setdefault(top["id"], 0.0)
            by_root[top["id"]] += max(0.0, duration - inner - hot) + hot
        assert by_root
        for root_id, total in by_root.items():
            root = spans[root_id]
            duration = root["end"] - root["start"]
            assert abs(total - duration) <= 0.05 * duration


def test_wrappers_are_removed(traced):
    with open(traced[1], encoding="utf-8") as handle:
        report = json.load(handle)
    for result in report["workloads"].values():
        assert result["trace_checks"]["wrappers_left"] == 0
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.mpc.graph_store import DistributedGraph
    from repro.mpc.machine import Machine

    original = (Machine.memory_words, DistributedGraph.__dict__["load"])
    installation = tracing.install(tracing.Tracer())
    assert tracing.installed_count() == len(tracing.TARGETS)
    tracing.uninstall(installation)
    assert tracing.installed_count() == 0
    assert (Machine.memory_words, DistributedGraph.__dict__["load"]) == original


def test_compare_flags_a_regression(untraced, tmp_out):
    path = untraced[1]
    same = subprocess.run([sys.executable, RUN, "compare", path, path],
                          capture_output=True, text=True, timeout=60)
    assert same.returncode == 0, same.stdout
    assert " worse" not in same.stdout
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    metric = report["workloads"]["solve-er"]["metrics"]["latency_p50_s"]
    metric["value"] *= 2
    metric["runs"] = [x * 2 for x in metric["runs"]]
    slower = tmp_out("slower.json")
    with open(slower, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    worse = subprocess.run([sys.executable, RUN, "compare", path, slower],
                           capture_output=True, text=True, timeout=60)
    assert worse.returncode == 1
    assert any(line.startswith("solve-er") and "latency_p50_s" in line
               and line.endswith("worse") for line in worse.stdout.splitlines())


def test_refuses_to_run_without_the_program(tmp_out):
    bare = tmp_out("bare")
    shutil.copytree(HERE, os.path.join(bare, "benchmarks", "e2e"),
                    ignore=shutil.ignore_patterns(".work", "results"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = benchmark("--workload", "solve-er", cwd=bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
