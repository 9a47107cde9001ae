"""Smoke tests: every example script runs end-to-end at a small size.

Examples are part of the public deliverable; these tests execute each
one's ``main()`` with reduced parameters so a refactor that breaks an
example fails CI, not a reader.
"""

import importlib.util
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart(self, capsys):
        load_example("quickstart").main(n=80, seed=3)
        out = capsys.readouterr().out
        assert "ruling set size:" in out
        assert "MPC rounds:" in out

    def test_wireless_scheduling(self, capsys):
        load_example("wireless_scheduling").main(rows=8, cols=8)
        out = capsys.readouterr().out
        assert "cluster heads" in out
        assert "verified" in out

    def test_network_backbone(self, capsys):
        load_example("network_backbone").main(n=128)
        out = capsys.readouterr().out
        assert "landmarks" in out

    def test_derandomization_demo(self, capsys):
        load_example("derandomization_demo").main(n=40)
        out = capsys.readouterr().out
        assert "ACCEPT" in out
        assert "committed seed" in out

    def test_switch_scheduling(self, capsys):
        load_example("switch_scheduling").main(ports=10)
        out = capsys.readouterr().out
        assert "drained" in out
