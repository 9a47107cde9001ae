"""Tests for the repro-mpc command-line interface."""

import json

import pytest

from repro.cli import build_graph, main
from repro.errors import ReproError


class TestBuildGraph:
    @pytest.mark.parametrize("family,n,param", [
        ("gnp", 60, 8),
        ("powerlaw", 60, 0),
        ("tree", 60, 0),
        ("grid", 60, 6),
        ("regular", 60, 6),
        ("star", 20, 0),
        ("cycle", 12, 0),
    ])
    def test_families(self, family, n, param):
        graph = build_graph(family, n, param, seed=1)
        assert graph.num_vertices >= 1

    def test_unknown_family(self):
        with pytest.raises(ReproError):
            build_graph("hypercube", 8, 0, 0)


class TestCommands:
    def test_generate_and_solve_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert main([
            "generate", "--family", "gnp", "--n", "80", "--param", "8",
            "--out", str(out),
        ]) == 0
        assert out.exists()
        assert main([
            "solve", "--input", str(out),
            "--algorithm", "det-ruling", "--regime", "near-linear",
        ]) == 0
        captured = capsys.readouterr().out
        assert "rounds:" in captured
        assert "(2, 2)-ruling set" in captured

    def test_solve_json(self, capsys):
        assert main([
            "solve", "--family", "tree", "--n", "50",
            "--algorithm", "greedy-mis", "--json",
        ]) == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines() if line
        ]
        payload = json.loads(lines[-1])
        assert payload["algorithm"] == "greedy-mis"
        assert payload["size"] >= 1
        assert isinstance(payload["members"], list)

    def test_verify_valid_and_invalid(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        main([
            "generate", "--family", "cycle", "--n", "6", "--out", str(out),
        ])
        assert main([
            "verify", "--input", str(out), "--members", "0,2,4",
            "--beta", "1",
        ]) == 0
        assert "VALID" in capsys.readouterr().out
        assert main([
            "verify", "--input", str(out), "--members", "0,1",
            "--beta", "2",
        ]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_sweep(self, capsys):
        assert main([
            "sweep", "--family", "gnp", "--n", "60,80", "--param", "8",
            "--algorithms", "det-luby", "--regime", "near-linear",
        ]) == 0
        out = capsys.readouterr().out
        assert "gnp-60" in out and "gnp-80" in out

    def test_error_path_exit_code(self, capsys):
        assert main([
            "solve", "--family", "gnp", "--n", "40",
            "--algorithm", "nonsense",
        ]) == 2
        assert "error:" in capsys.readouterr().err


class TestTraceCommand:
    """``solve --trace-out [--chrome-out]``: exports plus budget audit."""

    def test_trace_writes_jsonl_and_chrome(self, tmp_path, capsys):
        jsonl = tmp_path / "run.trace.jsonl"
        chrome = tmp_path / "run.trace.json"
        assert main([
            "solve", "--family", "gnp", "--n", "60", "--param", "6",
            "--algorithm", "det-luby", "--regime", "near-linear",
            "--trace-out", str(jsonl), "--chrome-out", str(chrome),
        ]) == 0
        out = capsys.readouterr().out
        assert "min headroom:" in out
        assert "budget warnings: none (threshold 90% of S)" in out
        records = [
            json.loads(line) for line in jsonl.read_text().splitlines()
        ]
        assert records[0]["type"] == "meta"
        assert records[-1]["type"] == "summary"
        payload = json.loads(chrome.read_text())
        assert payload["traceEvents"]

    def test_trace_rejects_sequential_algorithm(self, tmp_path, capsys):
        assert main([
            "solve", "--family", "tree", "--n", "30",
            "--algorithm", "greedy-mis",
            "--trace-out", str(tmp_path / "t.jsonl"),
        ]) == 2
        assert "--trace-out needs an MPC algorithm" in capsys.readouterr().err
        assert not (tmp_path / "t.jsonl").exists()

    def test_budget_audit_lists_warnings(self, tmp_path):
        from types import SimpleNamespace

        from repro.cli import _write_trace
        from repro.mpc.config import MPCConfig
        from repro.mpc.simulator import Simulator
        from repro.mpc.trace import TraceRecorder

        # 8 of S = 8 words: at the 90% threshold, inside the budget.
        cfg = MPCConfig(num_machines=2, memory_words=8)
        sim = Simulator(cfg, trace=TraceRecorder(cfg))
        sim.communicate(
            lambda m: [(1, tuple(range(8)))] if m.mid == 0 else []
        )
        run = SimpleNamespace(trace=sim.trace, algorithm="det-luby")
        report = _write_trace(run, str(tmp_path / "t.jsonl"))
        assert "min headroom: 0 words (budget S=8)" in report
        assert "budget warnings (≥90% of S, 3 total):" in report
        assert "  ! round 1: machine 0 sent 8/8 words (100.0% of S)" in report

    def test_chrome_out_needs_trace_out(self, tmp_path, capsys):
        assert main([
            "solve", "--family", "gnp", "--n", "40", "--param", "6",
            "--chrome-out", str(tmp_path / "t.json"),
        ]) == 2
        assert "--chrome-out needs --trace-out" in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()

    def test_trace_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--family", "gnp", "--n", "40"])
        assert exc.value.code == 2

    def test_solve_trace_out(self, tmp_path, capsys):
        jsonl = tmp_path / "solve.trace.jsonl"
        assert main([
            "solve", "--family", "gnp", "--n", "60", "--param", "6",
            "--algorithm", "det-ruling", "--regime", "near-linear",
            "--trace-out", str(jsonl),
        ]) == 0
        assert "trace:" in capsys.readouterr().out
        records = [
            json.loads(line) for line in jsonl.read_text().splitlines()
        ]
        summary = records[-1]
        assert summary["type"] == "summary"
        assert summary["total_words"] == sum(
            r["words"] for r in records if r["type"] == "round"
        )


class TestBackendFlags:
    """Backend flags a run cannot honour are errors, never dropped."""

    GRAPH = ["--family", "gnp", "--n", "40", "--param", "6"]

    @pytest.mark.parametrize("backend", [[], ["--backend", "serial"]])
    def test_solve_shards_needs_shard_backend(self, backend, capsys):
        assert main(
            ["solve", *self.GRAPH, "--shards", "7", *backend]
        ) == 2
        assert "--shards 7" in capsys.readouterr().err

    def test_match_shards_needs_shard_backend(self, capsys):
        assert main(["match", *self.GRAPH, "--shards", "7"]) == 2
        assert "--shards 7" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "match"])
    def test_workers_is_not_a_shard_count(self, command, capsys):
        # The shard count has one name; --workers is the serve daemon's
        # thread count only.
        with pytest.raises(SystemExit) as exc:
            main([command, *self.GRAPH, "--backend", "shard", "--workers", "2"])
        assert exc.value.code == 2

    def test_numpy_kernel_without_numpy(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        assert main([
            "solve", *self.GRAPH, "--algorithm", "det-luby",
            "--kernel", "numpy",
        ]) == 2
        assert "NumPy is not importable" in capsys.readouterr().err

    def test_shard_backend_takes_shards(self, capsys):
        assert main([
            "solve", *self.GRAPH, "--algorithm", "det-luby",
            "--backend", "shard", "--shards", "2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["size"] >= 1

    def test_stream_rejects_other_backend(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        main(["generate", *self.GRAPH, "--out", str(path)])
        capsys.readouterr()
        assert main([
            "solve", "--stream", "--input", str(path),
            "--backend", "serial",
        ]) == 2
        assert "--backend serial" in capsys.readouterr().err
        assert main([
            "solve", "--stream", "--input", str(path),
            "--backend", "shard", "--shards", "2",
        ]) == 0

    @pytest.mark.parametrize("flag", ["--trace-out", "--chrome-out"])
    def test_stream_refuses_trace_exports(self, flag, tmp_path, capsys):
        path = tmp_path / "g.txt"
        main(["generate", *self.GRAPH, "--out", str(path)])
        capsys.readouterr()
        out = tmp_path / "t.out"
        assert main([
            "solve", "--stream", "--input", str(path), flag, str(out),
        ]) == 2
        assert f"{flag} cannot apply" in capsys.readouterr().err
        assert not out.exists()

    def test_stream_verify_needs_stream(self, capsys):
        assert main(["solve", *self.GRAPH, "--stream-verify"]) == 2
        assert "--stream-verify needs --stream" in capsys.readouterr().err

    def test_backend_choices_follow_registry(self):
        from repro.cli import make_parser
        from repro.mpc.backends import BACKENDS

        commands = make_parser()._subparsers._group_actions[0].choices
        for name in ("solve", "match"):
            (action,) = [
                a for a in commands[name]._actions if a.dest == "backend"
            ]
            assert list(action.choices) == sorted(BACKENDS)
