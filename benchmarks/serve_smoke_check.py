"""CI check: the serve daemon end to end, against the batch path.

Exercises the persistent daemon's contract through the real CLI entry
points rather than in-process calls:

1. start ``repro-mpc serve`` as a subprocess, on a unix socket
   (``--transport unix``, the default) or on stdin/stdout
   (``--transport stdio``);
2. replay a small two-tenant request trace over that transport
   (pipelined, duplicates included), bracketed by ``ping`` / ``stats``
   / a clean ``shutdown``;
3. run the identical trace through ``repro-mpc batch`` (tenants
   stripped — the batch engine knows nothing of them) against a fresh
   cache;
4. assert every response is a served record, the daemon's counters
   account for every request, and each served record's deterministic
   part is **byte-identical** to the batch path's record for the same
   id once the ``_serve`` side channel is stripped — the daemon must
   only add queueing, never change an answer;
5. replay the trace a second time on the same daemon: every request is
   then a cache hit on a pooled graph, so every response must be
   answered at admission (the ``hits_at_admission`` stats counter) and
   still be byte-identical to the batch record.

Exit code 0 on success, 1 on any violation.  Usage::

    PYTHONPATH=src python -m benchmarks.serve_smoke_check
    PYTHONPATH=src python -m benchmarks.serve_smoke_check --transport stdio
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, List, Tuple

from repro.cli import main as cli_main
from repro.core.registry import DET_LUBY, DET_MATCHING, DET_RULING

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def requests() -> List[dict]:
    gnp = {"family": "gnp", "n": 96, "param": 8, "seed": 12}
    tree = {"family": "tree", "n": 80, "seed": 12}
    return [
        {"id": "r0", "tenant": "alpha", "graph": gnp,
         "algorithm": DET_RULING},
        {"id": "r1", "tenant": "bravo", "graph": gnp,
         "algorithm": DET_RULING},  # warm cache hit
        {"id": "r2", "tenant": "alpha", "graph": gnp,
         "algorithm": DET_LUBY},
        {"id": "r3", "tenant": "bravo", "graph": tree,
         "algorithm": DET_RULING, "beta": 3},
        {"id": "r4", "tenant": "alpha", "graph": tree,
         "algorithm": DET_MATCHING},
    ]


def strip_serve(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "_serve"}


def check(message: str, ok: bool) -> bool:
    print(("  OK  " if ok else "  FAIL") + f" {message}")
    return ok


def spawn_daemon(transport_args: List[str], cache_dir: Path, trace: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            *transport_args,
            "--cache-dir", str(cache_dir),
            "--trace-out", str(trace),
        ],
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def socket_talk(sock: Path) -> Callable[[List[dict], int], List[dict]]:
    """Each exchange on a fresh connection to the daemon's socket."""

    def talk(lines: List[dict], replies: int) -> List[dict]:
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        client.settimeout(120.0)
        client.connect(str(sock))
        try:
            with client.makefile("rw", encoding="utf-8") as wire:
                for line in lines:
                    wire.write(json.dumps(line) + "\n")
                wire.flush()
                return [json.loads(wire.readline()) for _ in range(replies)]
        finally:
            client.close()

    return talk


def stdio_talk(proc) -> Callable[[List[dict], int], List[dict]]:
    """Every exchange over the daemon's one stdin/stdout stream."""

    def talk(lines: List[dict], replies: int) -> List[dict]:
        for line in lines:
            proc.stdin.write(json.dumps(line) + "\n")
        proc.stdin.flush()
        return [json.loads(proc.stdout.readline()) for _ in range(replies)]

    return talk


def start_daemon(
    transport: str, base: Path, trace: Path
) -> Tuple[subprocess.Popen, Callable[[List[dict], int], List[dict]]]:
    """Launch ``repro-mpc serve``; returns the process and its talker."""
    if transport == "stdio":
        proc = spawn_daemon([], base / "serve-cache", trace)
        return proc, stdio_talk(proc)
    sock = base / "repro.sock"
    proc = spawn_daemon(["--socket", str(sock)], base / "serve-cache", trace)
    deadline = time.monotonic() + 30.0
    while not sock.exists():
        if proc.poll() is not None or time.monotonic() > deadline:
            _, err = proc.communicate(timeout=10)
            raise RuntimeError(f"daemon failed to start: {err}")
        time.sleep(0.05)
    return proc, socket_talk(sock)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--transport", choices=("unix", "stdio"), default="unix",
        help="how the daemon is reached (default: unix socket)",
    )
    transport = parser.parse_args(argv).transport
    trace_requests = requests()
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        base = Path(tmp)
        trace = base / "serve-trace.jsonl"
        proc, talk = start_daemon(transport, base, trace)

        ping = talk([{"op": "ping"}], 1)[0]
        served = talk(trace_requests, len(trace_requests))
        stats = talk([{"op": "stats"}], 1)[0]
        again = talk(trace_requests, len(trace_requests))
        stats_again = talk([{"op": "stats"}], 1)[0]
        down = talk([{"op": "shutdown"}], 1)[0]
        _, err = proc.communicate(timeout=60)
        code = proc.returncode

        # The same trace through the batch CLI (tenants stripped).
        batch_requests = base / "requests.jsonl"
        batch_requests.write_text("\n".join(
            json.dumps({k: v for k, v in r.items() if k != "tenant"})
            for r in trace_requests
        ) + "\n")
        batch_out = base / "batch.jsonl"
        if cli_main([
            "batch",
            "--requests", str(batch_requests),
            "--cache-dir", str(base / "batch-cache"),
            "--out", str(batch_out),
        ]) != 0:
            print("batch run failed")
            return 1
        batch = {
            record["id"]: strip_serve(record)
            for record in map(
                json.loads, batch_out.read_text().splitlines()
            )
        }

        counters = stats["stats"]["counters"]
        ok = True
        ok &= check(
            f"daemon answers ping over {transport}",
            ping.get("status") == "ok",
        )
        ok &= check(
            f"every request served ok ({len(served)} responses)",
            len(served) == len(trace_requests)
            and all(r.get("status") == "ok" for r in served),
        )
        ok &= check(
            "stats account for every request "
            f"(served={stats['stats']['served']}, refused="
            f"{stats['stats']['refused']})",
            stats["stats"]["served"] == len(trace_requests)
            and stats["stats"]["refused"] == 0,
        )
        unique = len({
            json.dumps(
                {k: v for k, v in r.items() if k not in ("id", "tenant")},
                sort_keys=True,
            )
            for r in trace_requests
        })
        ok &= check(
            f"duplicates hit the warm cache (executed="
            f"{counters['executed']}/{unique}, hits="
            f"{counters['cache_hit']})",
            counters["executed"] == unique
            and counters["cache_hit"] == len(trace_requests) - unique,
        )
        ok &= check(
            "served records bit-identical to repro-mpc batch "
            "(modulo _serve)",
            {r["id"]: strip_serve(r) for r in served} == batch,
        )
        at_admission = (
            stats_again["stats"]["hits_at_admission"]
            - stats["stats"]["hits_at_admission"]
        )
        ok &= check(
            f"second pass answered at admission ({at_admission}/"
            f"{len(trace_requests)} hits_at_admission)",
            at_admission == len(trace_requests)
            and all(
                r.get("_serve", {}).get("cache") == "hit" for r in again
            ),
        )
        ok &= check(
            "second-pass records bit-identical to repro-mpc batch "
            "(modulo _serve)",
            {r["id"]: strip_serve(r) for r in again} == batch,
        )
        ok &= check(
            "latency attribution recorded for every served request",
            stats["stats"]["latency"].get("count")
            == len(trace_requests),
        )
        ok &= check(
            "clean shutdown (exit 0, socket removed, trace written)",
            down.get("status") == "ok" and code == 0
            and not (base / "repro.sock").exists() and trace.exists(),
        )
        if not ok:
            print(f"daemon stderr:\n{err}")
            return 1
    print(f"serve smoke check passed ({transport})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
