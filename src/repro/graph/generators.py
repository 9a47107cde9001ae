"""Deterministic workload generators.

Every generator is a pure function of its arguments (including an explicit
``seed`` for the randomized families), so benchmark workloads are
reproducible bit-for-bit.  The suite spans the axes that ruling-set round
complexity depends on: size ``n``, maximum degree Δ, degree *skew*
(power-law vs regular), and structure (trees, grids, planted).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.graph import Graph
from repro.util.rng import SplitMix64


# ----------------------------------------------------------------------
# Deterministic structured families
# ----------------------------------------------------------------------
def path_graph(n: int) -> Graph:
    """Path on ``n`` vertices: ``0 - 1 - ... - (n-1)``.

    >>> path_graph(4).num_edges
    3
    """
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n >= 3`` vertices."""
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges)


def complete_graph(n: int) -> Graph:
    """Clique on ``n`` vertices."""
    return Graph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    )


def star_graph(n: int) -> Graph:
    """Star: centre 0 joined to ``n - 1`` leaves."""
    if n < 1:
        raise GraphError(f"star needs n >= 1, got {n}")
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def grid_graph(rows: int, cols: int) -> Graph:
    """2-D grid on ``rows * cols`` vertices, row-major ids.

    >>> grid_graph(2, 3).num_edges
    7
    """
    if rows < 1 or cols < 1:
        raise GraphError("grid needs rows, cols >= 1")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(rows * cols, edges)


def complete_binary_tree(n: int) -> Graph:
    """Heap-shaped binary tree: vertex ``i`` has children ``2i+1, 2i+2``."""
    edges = []
    for child in range(1, n):
        edges.append(((child - 1) // 2, child))
    return Graph.from_edges(n, edges)


def caterpillar_graph(spine: int, legs_per_vertex: int) -> Graph:
    """Caterpillar: a path of ``spine`` vertices each with pendant legs.

    Caterpillars are a classic adversarial family for greedy ruling-set
    heuristics because the spine forces long domination chains.
    """
    if spine < 1 or legs_per_vertex < 0:
        raise GraphError("need spine >= 1 and legs_per_vertex >= 0")
    builder = GraphBuilder(spine)
    for i in range(spine - 1):
        builder.add_edge(i, i + 1)
    next_id = spine
    for i in range(spine):
        for _ in range(legs_per_vertex):
            builder.add_edge(i, next_id)
            next_id += 1
    return builder.build()


def circulant_graph(n: int, offsets: List[int]) -> Graph:
    """Circulant graph: ``i ~ i ± d (mod n)`` for each offset ``d``.

    Deterministic regular graphs with tunable degree — the workhorse of the
    Δ-sweep experiment (E2).

    >>> circulant_graph(6, [1]).num_edges   # the 6-cycle
    6
    """
    if n < 3:
        raise GraphError(f"circulant needs n >= 3, got {n}")
    builder = GraphBuilder(n)
    for d in offsets:
        if not 1 <= d <= n // 2:
            raise GraphError(f"offset {d} out of range [1, {n // 2}]")
        for i in range(n):
            builder.add_edge(i, (i + d) % n)
    return builder.build()


def regular_graph(n: int, degree: int) -> Graph:
    """Deterministic ``degree``-regular graph via circulant offsets.

    Requires ``n > degree`` and ``n * degree`` even.  Odd degree uses the
    antipodal offset ``n/2`` (hence even ``n`` in that case).
    """
    if degree < 0 or degree >= n:
        raise GraphError(f"need 0 <= degree < n, got degree={degree}, n={n}")
    if (n * degree) % 2 != 0:
        raise GraphError("n * degree must be even for a regular graph")
    if degree == 0:
        return Graph.empty(n)
    offsets = list(range(1, degree // 2 + 1))
    if degree % 2 == 1:
        offsets.append(n // 2)
    return circulant_graph(n, offsets)


# ----------------------------------------------------------------------
# Seeded random families
# ----------------------------------------------------------------------
def gnp_random_graph(n: int, p_num: int, p_den: int, seed: int = 0) -> Graph:
    """Erdős–Rényi ``G(n, p)`` with exact rational edge probability.

    The probability is ``p_num / p_den`` so two runs with equal arguments
    produce the identical graph on every platform.

    >>> g = gnp_random_graph(50, 1, 10, seed=1)
    >>> g == gnp_random_graph(50, 1, 10, seed=1)
    True
    """
    if n < 0:
        raise GraphError("n must be >= 0")
    if p_den <= 0:
        raise GraphError(
            f"edge probability denominator must be positive, got p_den={p_den}"
        )
    if p_num < 0:
        raise GraphError(
            f"edge probability numerator must be >= 0, got p_num={p_num}"
        )
    if p_num > p_den:
        raise GraphError(
            f"edge probability p_num/p_den must be <= 1, got {p_num}/{p_den}"
        )
    rng = SplitMix64(seed=seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.bernoulli(p_num, p_den):
                edges.append((u, v))
    return Graph.from_edges(n, edges)


def random_tree(n: int, seed: int = 0) -> Graph:
    """Uniform-ish random tree: each vertex attaches to a random earlier one.

    (A random recursive tree — not uniform over all labelled trees, but a
    standard sparse benchmark family with logarithmic expected depth.)
    """
    if n < 0:
        raise GraphError("n must be >= 0")
    rng = SplitMix64(seed=seed)
    edges = []
    for v in range(1, n):
        edges.append((rng.next_below(v), v))
    return Graph.from_edges(n, edges)


def chung_lu_power_law(
    n: int, exponent_tenths: int = 25, max_weight: Optional[int] = None,
    seed: int = 0,
) -> Graph:
    """Chung–Lu graph with power-law expected degrees.

    Vertex ``i`` gets expected degree ``w_i ∝ (i + 1)^(-1/(gamma-1))``
    where ``gamma = exponent_tenths / 10`` (default 2.5), scaled so the
    heaviest vertex has expected degree ``≈ 2·sqrt(n)`` (``max_weight``
    overrides).  Edge ``{u, v}`` appears with probability
    ``min(1, w_u * w_v / W)`` — the standard skewed-degree benchmark.
    With ``w_max <= sqrt(W)`` the probabilities are genuine, so expected
    degrees really follow the power law (rather than saturating into a
    near-clique).
    """
    if n < 0:
        raise GraphError("n must be >= 0")
    if exponent_tenths <= 10:
        raise GraphError("exponent must exceed 1.0 (10 tenths)")
    gamma_minus_one = exponent_tenths - 10  # (gamma - 1) in tenths
    import math

    head = max_weight if max_weight is not None else 2 * math.isqrt(max(1, n))
    # w_i = head / (i+1)^(10/gm1), computed with exact integer roots.
    weights: List[int] = []
    for i in range(n):
        base = i + 1
        root = _int_nth_root(base**10, gamma_minus_one)
        weights.append(max(1, head // max(1, root)))
    total = sum(weights)
    rng = SplitMix64(seed=seed)
    builder = GraphBuilder(n)
    for u in range(n):
        for v in range(u + 1, n):
            num = weights[u] * weights[v]
            if rng.bernoulli(min(num, total), total):
                builder.add_edge(u, v)
    return builder.build()


def _int_nth_root(x: int, n: int) -> int:
    """floor(x**(1/n)) — local import-free copy to keep generators standalone."""
    from repro.util.mathx import int_nth_root_floor

    return int_nth_root_floor(x, n)


def rmat_graph(
    scale: int,
    edge_factor: int = 8,
    quadrants: Tuple[int, int, int, int] = (57, 19, 19, 5),
    seed: int = 0,
) -> Graph:
    """R-MAT / Kronecker graph: the standard big-graph benchmark family.

    ``n = 2^scale`` vertices; ``edge_factor * n`` edge samples, each
    placed by recursively descending the adjacency matrix with quadrant
    probabilities ``quadrants`` (percentages summing to 100; the default
    is the Graph500 (0.57, 0.19, 0.19, 0.05)).  Duplicates and
    self-loops are absorbed, so the final edge count is slightly below
    ``edge_factor * n``.  Produces the skewed, community-ish degree
    structure real web/social graphs have.

    >>> g = rmat_graph(6, edge_factor=4, seed=1)
    >>> g.num_vertices
    64
    """
    if scale < 1:
        raise GraphError(f"scale must be >= 1, got {scale}")
    if sum(quadrants) != 100 or any(q < 0 for q in quadrants):
        raise GraphError("quadrant percentages must be >= 0 and sum to 100")
    n = 1 << scale
    rng = SplitMix64(seed=seed)
    a, b, c, _ = quadrants
    builder = GraphBuilder(n)
    for _ in range(edge_factor * n):
        u = v = 0
        for _ in range(scale):
            roll = rng.next_below(100)
            u <<= 1
            v <<= 1
            if roll < a:
                pass  # top-left
            elif roll < a + b:
                v |= 1  # top-right
            elif roll < a + b + c:
                u |= 1  # bottom-left
            else:
                u |= 1
                v |= 1  # bottom-right
        builder.add_edge(u, v)
    return builder.build()


def barbell_graph(clique_size: int, path_length: int) -> Graph:
    """Two cliques joined by a path — a classic bottleneck topology.

    >>> g = barbell_graph(4, 2)
    >>> g.num_vertices
    10
    """
    if clique_size < 2 or path_length < 0:
        raise GraphError("need clique_size >= 2 and path_length >= 0")
    builder = GraphBuilder(2 * clique_size + path_length)
    for i in range(clique_size):
        for j in range(i + 1, clique_size):
            builder.add_edge(i, j)
            builder.add_edge(clique_size + path_length + i,
                             clique_size + path_length + j)
    chain = (
        [clique_size - 1]
        + list(range(clique_size, clique_size + path_length))
        + [clique_size + path_length]
    )
    for x, y in zip(chain, chain[1:]):
        builder.add_edge(x, y)
    return builder.build()


# ----------------------------------------------------------------------
# Hostile families (ROADMAP item 5)
# ----------------------------------------------------------------------
def components_then_giant(
    num_small: int,
    small_size: int,
    giant_size: int,
    extra_edges: int = 0,
    seed: int = 0,
) -> Graph:
    """Many small components first, one giant component last (by id).

    The adversarial *ordering* family from the related repo's hostile
    suite: vertex ids ``0 .. num_small*small_size - 1`` form
    ``num_small`` disjoint small cliques, and the giant component — a
    random recursive tree plus ``extra_edges`` random chords — occupies
    the highest ids.  Id-contiguous partitioners (owner maps, batch
    windows) see a long quiet prefix and then all the load at once,
    which is exactly what peak-hold throttling has to survive.
    """
    if num_small < 0 or small_size < 1 or giant_size < 1 or extra_edges < 0:
        raise GraphError(
            "need num_small >= 0, small_size >= 1, giant_size >= 1, "
            f"extra_edges >= 0, got num_small={num_small}, "
            f"small_size={small_size}, giant_size={giant_size}, "
            f"extra_edges={extra_edges}"
        )
    n = num_small * small_size + giant_size
    builder = GraphBuilder(n)
    for c in range(num_small):
        base = c * small_size
        for i in range(small_size):
            for j in range(i + 1, small_size):
                builder.add_edge(base + i, base + j)
    rng = SplitMix64(seed=seed)
    giant_base = num_small * small_size
    for offset in range(1, giant_size):
        builder.add_edge(
            giant_base + rng.next_below(offset), giant_base + offset
        )
    added = 0
    while added < extra_edges and giant_size >= 2:
        u = giant_base + rng.next_below(giant_size)
        v = giant_base + rng.next_below(giant_size)
        if u != v:
            builder.add_edge(u, v)
            added += 1
    return builder.build()


def relabeled_graph(graph: Graph, seed: int = 0) -> Graph:
    """The same graph under a seeded random permutation of vertex ids.

    Structure-preserving but order-hostile: any assumption that vertex
    ids correlate with structure (id-contiguous owner maps, id-windowed
    batching, id-ordered tie breaks) faces a different adversary on the
    relabeled twin.  Deterministic per ``(graph, seed)``.
    """
    n = graph.num_vertices
    perm = list(range(n))
    SplitMix64(seed=seed).shuffle(perm)
    return Graph.from_edges(
        n, [(perm[u], perm[v]) for u, v in graph.edges()]
    )


def hostile_suite(scale: int = 1, seed: int = 0) -> List[Tuple[str, Graph]]:
    """The named hostile workloads the fuzzing harness replays.

    Deterministic per ``(scale, seed)``: degree skew (power-law, RMAT,
    star), density (near-clique G(n, 1/2)), bottlenecks (barbell),
    domination chains (caterpillar), adversarial component orderings
    (small components before a giant one), and an id-permuted twin of
    the ordering family.  ``scale`` multiplies the sizes; scale 1 keeps
    every cell small enough for exhaustive all-solver replay in CI.
    """
    if scale < 1:
        raise GraphError(f"scale must be >= 1, got {scale}")
    ctg = components_then_giant(
        num_small=4 * scale,
        small_size=3,
        giant_size=24 * scale,
        extra_edges=12 * scale,
        seed=seed,
    )
    rmat_scale = 5 + max(0, scale - 1).bit_length()
    return [
        ("powerlaw", chung_lu_power_law(48 * scale, seed=seed)),
        ("rmat", rmat_graph(rmat_scale, edge_factor=4, seed=seed)),
        ("dense-gnp", gnp_random_graph(20 * scale, 1, 2, seed=seed)),
        ("star", star_graph(32 * scale)),
        ("caterpillar", caterpillar_graph(10 * scale, 3)),
        ("barbell", barbell_graph(6 * scale, 4)),
        ("components-then-giant", ctg),
        ("components-then-giant-relabeled", relabeled_graph(ctg, seed=seed + 1)),
    ]


def planted_ruling_set_graph(
    num_centers: int, spokes: int, chain: int, seed: int = 0
) -> Tuple[Graph, List[int]]:
    """Graph with a *planted* ``(2, chain)``-ruling set, plus the plant.

    Each of ``num_centers`` centres grows ``spokes`` paths of length
    ``chain``; centres are pairwise non-adjacent, and every vertex is within
    ``chain`` hops of its centre.  Returns ``(graph, centers)`` — used by
    tests and E4 to validate verifier and quality metrics against ground
    truth.

    >>> g, centers = planted_ruling_set_graph(3, 2, 2)
    >>> len(centers)
    3
    """
    if num_centers < 1 or spokes < 0 or chain < 1:
        raise GraphError("need num_centers >= 1, spokes >= 0, chain >= 1")
    builder = GraphBuilder()
    centers = []
    next_id = 0
    rng = SplitMix64(seed=seed)
    tails: List[int] = []
    for _ in range(num_centers):
        center = next_id
        next_id += 1
        builder.ensure_vertex(center)
        centers.append(center)
        for _ in range(spokes):
            prev = center
            for _ in range(chain):
                builder.add_edge(prev, next_id)
                prev = next_id
                next_id += 1
            tails.append(prev)
    # Join random pairs of tails from different centres so the graph is
    # connected-ish without shrinking any centre's domination radius.
    if len(tails) >= 2:
        for _ in range(len(tails) // 2):
            a = tails[rng.next_below(len(tails))]
            b = tails[rng.next_below(len(tails))]
            if a != b:
                builder.add_edge(a, b)
    return builder.build(), centers
