"""Record ``tests/data/engine_parity.json`` from the current code.

Runs every cell of ``tests/core/test_engine_parity.py`` on the serial
backend under the reference kernel and writes the pinned fields.  Run
from the repository root::

    PYTHONPATH=src:. python tests/data/capture_engine_parity.py

Only re-record from a commit whose behaviour is the intended baseline.
"""

import json
import os
from pathlib import Path

from tests.core.test_engine_parity import CELLS, ORACLE_PATH, solve_cell


def main() -> None:
    if os.environ.get("REPRO_KERNEL", "python") != "python":
        raise SystemExit("capture under the reference kernel (unset REPRO_KERNEL)")
    oracle = {cell: solve_cell(cell) for cell in CELLS}
    Path(ORACLE_PATH).write_text(json.dumps(oracle, sort_keys=True) + "\n")
    print(f"wrote {len(oracle)} cells to {ORACLE_PATH}")


if __name__ == "__main__":
    main()
