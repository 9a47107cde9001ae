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
    def test_trace_writes_jsonl_and_chrome(self, tmp_path, capsys):
        jsonl = tmp_path / "run.trace.jsonl"
        chrome = tmp_path / "run.trace.json"
        assert main([
            "trace", "--family", "gnp", "--n", "60", "--param", "6",
            "--algorithm", "det-luby", "--regime", "near-linear",
            "--out", str(jsonl), "--chrome-out", str(chrome),
        ]) == 0
        out = capsys.readouterr().out
        assert "min headroom:" in out
        assert "budget warnings" in out
        records = [
            json.loads(line) for line in jsonl.read_text().splitlines()
        ]
        assert records[0]["type"] == "meta"
        assert records[-1]["type"] == "summary"
        payload = json.loads(chrome.read_text())
        assert payload["traceEvents"]

    def test_trace_rejects_sequential_algorithm(self, tmp_path, capsys):
        assert main([
            "trace", "--family", "tree", "--n", "30",
            "--algorithm", "greedy-mis", "--out", str(tmp_path / "t.jsonl"),
        ]) == 2
        assert "error:" in capsys.readouterr().err

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
    def test_solve_workers_needs_shard_backend(self, backend, capsys):
        assert main(
            ["solve", *self.GRAPH, "--workers", "7", *backend]
        ) == 2
        assert "--workers 7" in capsys.readouterr().err

    def test_match_workers_needs_shard_backend(self, capsys):
        assert main(["match", *self.GRAPH, "--workers", "7"]) == 2
        assert "--workers 7" in capsys.readouterr().err

    def test_trace_workers_needs_shard_backend(self, tmp_path, capsys):
        assert main([
            "trace", *self.GRAPH, "--workers", "7",
            "--out", str(tmp_path / "t.jsonl"),
        ]) == 2
        assert "--workers 7" in capsys.readouterr().err
        assert not (tmp_path / "t.jsonl").exists()

    def test_numpy_kernel_without_numpy(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        assert main([
            "solve", *self.GRAPH, "--algorithm", "det-luby",
            "--kernel", "numpy",
        ]) == 2
        assert "NumPy is not importable" in capsys.readouterr().err

    def test_shard_backend_takes_workers(self, capsys):
        assert main([
            "solve", *self.GRAPH, "--algorithm", "det-luby",
            "--backend", "shard", "--workers", "2", "--json",
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
            "--backend", "shard", "--workers", "2",
        ]) == 0

    def test_backend_choices_follow_registry(self):
        from repro.cli import make_parser
        from repro.mpc.backends import BACKENDS

        commands = make_parser()._subparsers._group_actions[0].choices
        for name in ("solve", "trace", "match"):
            (action,) = [
                a for a in commands[name]._actions if a.dest == "backend"
            ]
            assert list(action.choices) == sorted(BACKENDS)
