"""Seeded inputs owned by the benchmark: graphs, edge files, serve trace.

Nothing here imports ``repro``: the workloads must not move when the
program's own generators (``repro.graph.generators``) or the older
experiment scripts change.  Every input is a pure function of the
workload seed, drawn from a SplitMix64 stream keyed by ``(seed, label)``,
and every generator reports a content digest, so a run can show which
inputs it measured.

``python3 benchmarks/e2e/inputs.py --seed N`` prints the digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

Edge = Tuple[int, int]
MASK64 = (1 << 64) - 1

#: Workload shapes per scale.  Changing one changes what every later
#: measurement means; the digests pinned in test_e2e.py catch that.
SHAPES: Dict[str, Dict[str, object]] = {
    "full": {
        "er": (1024, 6144),          # G(n, m)
        "rmat": (13, 8),             # scale, edge factor
        "circulant": (1024, (1, 5)),  # n, offsets
        "serve": (128, 384),         # n, ER edges (trees have n - 1)
        "graphs": {"solve-er": 6, "solve-rmat": 3, "stream-circulant": 6},
        "serve_requests": 1000,      # per client per process
    },
    "smoke": {
        "er": (256, 1024),
        "rmat": (9, 8),
        "circulant": (256, (1, 5)),
        "serve": (48, 120),
        "graphs": {"solve-er": 3, "solve-rmat": 3, "stream-circulant": 3},
        "serve_requests": 40,
    },
}
# Graph500 quadrant weights (0.57, 0.19, 0.19, 0.05) in 1/128ths, so one
# 64-bit draw feeds nine recursion levels of 7 bits each.
RMAT_QUADRANTS = (73, 24, 24, 7)
SERVE_HOT_GRAPHS = 4  # per family (ER and tree)
# Names of ``repro.core.registry`` constants, resolved by the worker: the
# registry is the only module that spells algorithm names.
SERVE_ALGORITHMS = ("DET_RULING", "DET_LUBY", "GP_RULING", "RAND_LUBY")
SERVE_MISS_PERCENT = 10


class SplitMix64:
    """Steele-Lea-Flood SplitMix64: small, exact, identical everywhere."""

    def __init__(self, state: int) -> None:
        self.state = state & MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform in ``[0, bound)`` (rejection sampling, no modulo bias)."""
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            value = self.next()
            if value < limit:
                return value % bound


def rng_for(seed: int, label: str) -> SplitMix64:
    """An independent stream per ``(seed, label)``."""
    blob = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    return SplitMix64(int.from_bytes(blob[:8], "little"))


# ---------------------------------------------------------------------------
# Graph families
# ---------------------------------------------------------------------------


def er_edges(n: int, m: int, rng: SplitMix64) -> List[Edge]:
    """Uniform G(n, m): ``m`` distinct pairs by rejection, O(m) expected."""
    seen = set()
    edges: List[Edge] = []
    while len(edges) < m:
        u, v = rng.below(n), rng.below(n)
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key not in seen:
            seen.add(key)
            edges.append(key)
    return edges


def rmat_edges(scale: int, edge_factor: int, rng: SplitMix64) -> List[Edge]:
    """R-MAT: ``edge_factor * 2^scale`` samples, duplicates and loops dropped."""
    a, b, c, _ = RMAT_QUADRANTS
    seen = set()
    edges: List[Edge] = []
    for _ in range(edge_factor << scale):
        u = v = 0
        bits = word = 0
        for _ in range(scale):
            if bits < 7:
                word, bits = rng.next(), 63
            roll = word & 127
            word >>= 7
            bits -= 7
            u <<= 1
            v <<= 1
            if roll < a:
                pass
            elif roll < a + b:
                v |= 1
            elif roll < a + b + c:
                u |= 1
            else:
                u |= 1
                v |= 1
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key not in seen:
            seen.add(key)
            edges.append(key)
    return edges


def tree_edges(n: int, rng: SplitMix64) -> List[Edge]:
    """Random recursive tree: vertex ``v`` hangs below a random ``u < v``."""
    return [(rng.below(v), v) for v in range(1, n)]


def permutation(n: int, rng: SplitMix64) -> List[int]:
    """Fisher-Yates shuffle of ``range(n)``."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def circulant_edges(
    n: int, offsets: Sequence[int], perm: Sequence[int]
) -> List[Edge]:
    """C_n(offsets) with vertex ``i`` relabelled ``perm[i]``."""
    edges: List[Edge] = []
    for d in offsets:
        for i in range(n):
            u, v = perm[i], perm[(i + d) % n]
            edges.append((u, v) if u < v else (v, u))
    return edges


# ---------------------------------------------------------------------------
# Files, digests, and the benchmark's own output check
# ---------------------------------------------------------------------------


def digest(n: int, edges: Sequence[Edge]) -> str:
    """Order-independent content digest of a simple undirected graph."""
    h = hashlib.sha256(f"{n}\n".encode())
    for u, v in sorted((u, v) if u < v else (v, u) for u, v in edges):
        h.update(f"{u} {v}\n".encode())
    return h.hexdigest()[:16]


def write_edges(path: str, n: int, edges: Sequence[Edge]) -> None:
    """The ``n m`` header + ``u v`` lines format ``repro`` reads."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"{n} {len(edges)}\n")
        handle.writelines(f"{u} {v}\n" for u, v in edges)


def read_edges(path: str) -> Tuple[int, List[Edge]]:
    """Inverse of :func:`write_edges` (the benchmark's own reader)."""
    with open(path, encoding="ascii") as handle:
        n, m = map(int, handle.readline().split())
        edges = [tuple(map(int, line.split())) for line in handle]
    if len(edges) != m:
        raise ValueError(f"{path}: header says {m} edges, read {len(edges)}")
    return n, edges


def adjacency(n: int, edges: Sequence[Edge]) -> List[List[int]]:
    adj: List[List[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def check_ruling_set(
    n: int, adj: Sequence[Sequence[int]], members: Sequence[int], beta: int
) -> str:
    """Independent (2, beta)-ruling-set check: '' if valid, else the defect.

    The benchmark's own checker, so no change to ``repro.core.verify``
    can make a wrong answer pass: members are distinct, in range,
    pairwise non-adjacent, and every vertex is within ``beta`` hops.
    """
    member_set = set(members)
    if len(member_set) != len(members):
        return "duplicate members"
    if any(not 0 <= v < n for v in member_set):
        return "member out of range"
    for v in member_set:
        if any(u in member_set for u in adj[v]):
            return f"members adjacent at vertex {v}"
    dist = [-1] * n
    frontier = sorted(member_set)
    for v in frontier:
        dist[v] = 0
    hops = 0
    while frontier and hops < beta:
        hops += 1
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if dist[u] < 0:
                    dist[u] = hops
                    nxt.append(u)
        frontier = nxt
    uncovered = dist.count(-1)
    if uncovered:
        return f"{uncovered} vertices farther than {beta} hops from the set"
    return ""


def members_digest(members: Sequence[int]) -> str:
    blob = ",".join(map(str, sorted(members))).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Per-workload inputs.  With ``workdir=None`` nothing is written; only
# the digests are computed.
# ---------------------------------------------------------------------------


def _graph(
    workdir: Optional[str], name: str, n: int, edges: Sequence[Edge]
) -> Dict[str, object]:
    info: Dict[str, object] = {
        "name": name, "n": n, "m": len(edges), "digest": digest(n, edges),
    }
    if workdir is not None:
        info["path"] = os.path.join(workdir, f"{name}.edges")
        write_edges(str(info["path"]), n, edges)
    return info


def solve_er_inputs(seed: int, scale: str, workdir: Optional[str]):
    n, m = SHAPES[scale]["er"]
    return {"graphs": [
        _graph(workdir, f"er-{i}", n, er_edges(n, m, rng_for(seed, f"er/{i}")))
        for i in range(SHAPES[scale]["graphs"]["solve-er"])
    ]}


def solve_rmat_inputs(seed: int, scale: str, workdir: Optional[str]):
    rmat_scale, factor = SHAPES[scale]["rmat"]
    return {"graphs": [
        _graph(
            workdir, f"rmat-{i}", 1 << rmat_scale,
            rmat_edges(rmat_scale, factor, rng_for(seed, f"rmat/{i}")),
        )
        for i in range(SHAPES[scale]["graphs"]["solve-rmat"])
    ]}


def stream_circulant_inputs(seed: int, scale: str, workdir: Optional[str]):
    n, offsets = SHAPES[scale]["circulant"]
    graphs = []
    for i in range(SHAPES[scale]["graphs"]["stream-circulant"]):
        perm = permutation(n, rng_for(seed, f"circulant/{i}"))
        graphs.append(
            _graph(workdir, f"circulant-{i}", n,
                   circulant_edges(n, offsets, perm))
        )
    return {"graphs": graphs}


def serve_inputs(
    seed: int, scale: str, workdir: Optional[str], processes: int,
    clients: int,
):
    """Hot graphs, the warm-up requests, and one trace per client.

    One request in every block of ``100 // SERVE_MISS_PERCENT`` is a
    miss, at a seeded position: it names a graph no other request names,
    so it must load, solve and store.  Misses walk through every
    (family, algorithm) pair in a seeded order before repeating one, so
    the miss mix, which sets throughput, is the same for every seed.
    Every other request picks uniformly from hot graphs x algorithms,
    all of which the warm-up pass has solved, so it is a cache hit.
    """
    n, m = SHAPES[scale]["serve"]
    length = int(SHAPES[scale]["serve_requests"])

    def graph(name: str, family: str):
        rng = rng_for(seed, f"serve/{name}")
        edges = er_edges(n, m, rng) if family == "er" else tree_edges(n, rng)
        return _graph(workdir, name, n, edges)

    hot = [
        graph(f"hot-{family}-{i}", family)
        for family in ("er", "tree")
        for i in range(SERVE_HOT_GRAPHS)
    ]
    warmup = [
        {"id": f"warm-{g['name']}-{algorithm}", "graph": g["name"],
         "algorithm": algorithm}
        for g in hot
        for algorithm in SERVE_ALGORITHMS
    ]
    graphs = {g["name"]: g for g in hot}
    block = 100 // SERVE_MISS_PERCENT
    kinds = [(family, algorithm) for family in ("er", "tree")
             for algorithm in SERVE_ALGORITHMS]
    traces = []
    for proc in range(processes):
        per_client = []
        for client in range(clients):
            rng = rng_for(seed, f"serve/trace/{proc}/{client}")
            trace = []
            pending_kinds: List[Tuple[str, str]] = []
            miss_at = 0
            for i in range(length):
                rid = f"p{proc}c{client}-{i}"
                if i % block == 0:
                    miss_at = i + rng.below(block)
                if i == miss_at:
                    if not pending_kinds:
                        pending_kinds = [kinds[j] for j in
                                         permutation(len(kinds), rng)]
                    family, algorithm = pending_kinds.pop()
                    g = graph(f"miss-{rid}", family)
                    graphs[g["name"]] = g
                else:
                    algorithm = SERVE_ALGORITHMS[
                        rng.below(len(SERVE_ALGORITHMS))
                    ]
                    g = hot[rng.below(len(hot))]
                trace.append(
                    {"id": rid, "graph": g["name"], "algorithm": algorithm}
                )
            per_client.append(trace)
        traces.append(per_client)
    h = hashlib.sha256()
    for name in sorted(graphs):
        h.update(f"{name} {graphs[name]['digest']}\n".encode())
    for request in warmup + [r for p in traces for c in p for r in c]:
        h.update(f"{request['id']} {request['graph']} "
                 f"{request['algorithm']}\n".encode())
    return {
        "graphs": graphs,
        "warmup": warmup,
        "traces": traces,
        "digest": h.hexdigest()[:16],
    }


def build(
    workload: str, seed: int, scale: str, workdir: Optional[str],
    processes: int = 3,
) -> Dict[str, object]:
    """Inputs of one workload, with a ``digest`` over all of them."""
    if workload == "serve-mixed":
        return serve_inputs(seed, scale, workdir, processes, clients=2)
    make = {
        "solve-er": solve_er_inputs,
        "solve-rmat": solve_rmat_inputs,
        "stream-circulant": stream_circulant_inputs,
    }[workload]
    spec = make(seed, scale, workdir)
    spec["digest"] = hashlib.sha256(
        " ".join(g["digest"] for g in spec["graphs"]).encode()
    ).hexdigest()[:16]
    return spec


WORKLOADS = ("solve-er", "solve-rmat", "stream-circulant", "serve-mixed")


def main() -> None:
    parser = argparse.ArgumentParser(description="Print input digests.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=sorted(SHAPES), default="full")
    args = parser.parse_args()
    print(json.dumps({
        name: build(name, args.seed, args.scale, None)["digest"]
        for name in WORKLOADS
    }, indent=1))


if __name__ == "__main__":
    main()
