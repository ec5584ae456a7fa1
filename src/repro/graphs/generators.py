"""Graph generators with *certified* arboricity bounds.

The paper's theorems are parameterized by the arboricity α (Definition 3.1).
To test them we need workloads whose arboricity is known by construction:

- :func:`union_of_random_forests` is the canonical workload — by
  Nash-Williams, a union of k forests has arboricity <= k exactly.
- :func:`preferential_attachment` gives sparse graphs where the maximum
  degree Δ grows with n while α stays fixed — the motivating regime where
  arboricity-dependent coloring beats (Δ+1)-coloring.
- :func:`skewed_dependency_gadget` builds the Figure 2b counterexample:
  a graph whose natural β-partition has a long, thin dependency chain with
  huge fans hanging off it, defeating naive volume-based exploration.

All randomness flows from explicit seeds through SplitMix64.  Every
family builds its edge set as numpy arrays feeding
:meth:`Graph.from_arrays` directly.  The randomized families take their
draws as arrays (:meth:`SplitMix64.randrange_array`), which reproduce the
scalar draw sequences exactly, so a seed keeps producing the same graph;
only the Fisher-Yates swaps and preferential attachment's picks, each of
which reads the ones before it, stay Python loops.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.util.rng import SplitMix64

__all__ = [
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "grid_2d",
    "hypercube",
    "complete_ary_tree",
    "random_tree",
    "random_forest",
    "union_of_random_forests",
    "random_gnm",
    "preferential_attachment",
    "skewed_dependency_gadget",
]


def path_graph(n: int) -> Graph:
    """Path on ``n`` vertices (arboricity 1 for n >= 2)."""
    ids = np.arange(max(n - 1, 0), dtype=np.int64)
    return Graph.from_arrays(n, np.column_stack((ids, ids + 1)))


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n >= 3`` vertices (arboricity 2 by Nash-Williams... = ceil(n/(n-1)) = 2)."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    ids = np.arange(n, dtype=np.int64)
    return Graph.from_arrays(n, np.column_stack((ids, (ids + 1) % n)))


def complete_graph(n: int) -> Graph:
    """Clique K_n (arboricity ceil(n/2))."""
    upper = np.triu_indices(n, k=1)
    return Graph.from_arrays(n, np.column_stack(upper).astype(np.int64))


def star_graph(n: int) -> Graph:
    """Star with one hub and ``n - 1`` leaves (arboricity 1, Δ = n - 1)."""
    if n < 1:
        raise ValueError("star needs n >= 1")
    leaves = np.arange(1, n, dtype=np.int64)
    return Graph.from_arrays(n, np.column_stack((np.zeros_like(leaves), leaves)))


def grid_2d(rows: int, cols: int) -> Graph:
    """rows x cols grid (planar, arboricity <= 2... <= 3 in general; 2 for grids)."""
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    horizontal = np.column_stack((ids[:, :-1].ravel(), ids[:, 1:].ravel()))
    vertical = np.column_stack((ids[:-1, :].ravel(), ids[1:, :].ravel()))
    return Graph.from_arrays(rows * cols, np.concatenate((horizontal, vertical)))


def hypercube(dim: int) -> Graph:
    """Boolean hypercube Q_dim on 2^dim vertices."""
    n = 1 << dim
    ids = np.arange(n, dtype=np.int64)
    flips = ids[:, None] ^ (np.int64(1) << np.arange(dim, dtype=np.int64))[None, :]
    pairs = np.column_stack((np.repeat(ids, dim), flips.ravel()))
    return Graph.from_arrays(n, pairs[pairs[:, 0] < pairs[:, 1]])


def complete_ary_tree(arity: int, depth: int) -> Graph:
    """Complete ``arity``-ary tree of the given depth (root at vertex 0).

    Depth 0 is a single vertex.  Vertices are numbered level by level, so
    the children of v are ``arity * v + 1 .. arity * v + arity``.
    """
    if arity < 1:
        raise ValueError("arity must be >= 1")
    n = sum(arity**d for d in range(depth + 1))
    children = np.arange(1, n, dtype=np.int64)
    parents = (children - 1) // arity
    return Graph.from_arrays(n, np.column_stack((parents, children)))


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random-attachment tree: node i attaches to a random j < i."""
    children = np.arange(1, n, dtype=np.int64)
    parents = SplitMix64(seed).randrange_array(children).astype(np.int64)
    return Graph.from_arrays(n, np.column_stack((children, parents)), validate=False)


def random_forest(n: int, num_edges: int, seed: int) -> Graph:
    """Random forest on ``n`` vertices with exactly ``num_edges`` edges.

    Built by sampling a random attachment tree and keeping a random subset
    of its edges, so the result is always acyclic (arboricity <= 1).
    """
    if num_edges > n - 1:
        raise ValueError("a forest on n vertices has at most n-1 edges")
    if num_edges < 0:
        raise ValueError("num_edges must be non-negative")
    rng = SplitMix64(seed)
    children = np.arange(1, n, dtype=np.int64)
    parents = rng.randrange_array(children).astype(np.int64)
    # Shuffle the tree's edge indices the way the edges themselves were.
    kept = list(range(n - 1))
    rng.shuffle(kept)
    kept = np.asarray(kept[:num_edges], dtype=np.int64)
    return Graph.from_arrays(
        n, np.column_stack((children[kept], parents[kept])), validate=False
    )


def union_of_random_forests(n: int, k: int, seed: int) -> Graph:
    """Union of ``k`` independent random spanning trees: arboricity <= k.

    By Nash-Williams the edge set partitions into <= k forests, so
    α(G) <= k by construction.  Duplicate edges across trees are merged,
    which can only lower the arboricity.  For n moderately large the
    density m/(n-1) stays close to k, so α is close to k as well.

    Tree ``t`` shuffles the vertices into ``order`` on its own split
    stream, then attaches ``order[i]`` to ``order[j]`` for a random
    ``j < i``: a random tree with randomly labelled vertices.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    rng = SplitMix64(seed)
    slots = np.arange(1, n, dtype=np.int64)
    trees = [np.empty((0, 2), dtype=np.int64)]
    for _ in range(k):
        child = rng.split()
        order = list(range(n))
        child.shuffle(order)
        order = np.asarray(order, dtype=np.int64)
        picks = child.randrange_array(slots).astype(np.int64)
        trees.append(np.column_stack((order[slots], order[picks])))
    return Graph.from_arrays(n, np.concatenate(trees), validate=False)


def _gnm_pairs_needed(slots: int, wanted: int) -> int:
    """Draws of uniform pairs expected to hit ``wanted`` of ``slots`` unseen.

    The coupon collector's ``slots * (H(slots) - H(slots - wanted))``, with
    ``H(x) ~ ln(x + 1/2)``; a few percent of slack makes a second batch
    rare.
    """
    expected = slots * (np.log(slots + 0.5) - np.log(slots - wanted + 0.5))
    return int(expected * 1.05) + 64


def random_gnm(n: int, m: int, seed: int) -> Graph:
    """Erdos-Renyi G(n, m): exactly ``m`` distinct edges, uniform.

    Draws ``u`` then ``v`` (each ``randrange(n)``) per candidate, drops
    ``u == v``, and keeps the first ``m`` distinct edges in draw order,
    taking the draws in array batches until ``m`` have appeared.
    """
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise ValueError(f"G({n}, m) has at most {max_edges} edges")
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = SplitMix64(seed)
    # One int64 key per edge, lo * n + hi: n² fits in int64 for any n
    # whose CSR fits in memory.
    keys = np.empty(0, dtype=np.int64)
    first = keys
    while len(first) < m:
        pairs = _gnm_pairs_needed(max_edges - len(first), m - len(first))
        draws = rng.randrange_array(np.full(2 * pairs, n, dtype=np.int64))
        u, v = draws.astype(np.int64).reshape(pairs, 2).T
        loop = u == v
        lo = np.minimum(u, v)[~loop]
        hi = np.maximum(u, v)[~loop]
        keys = np.concatenate((keys, lo * n + hi))
        first = np.unique(keys, return_index=True)[1]
    lo, hi = np.divmod(keys[np.sort(first)[:m]], max(n, 1))
    return Graph.from_arrays(n, np.column_stack((lo, hi)), validate=False)


# Raw draws preferential_attachment takes from the stream per batch.
_PA_DRAW_CHUNK = 1 << 14


def preferential_attachment(n: int, links: int, seed: int) -> Graph:
    """Barabasi-Albert style graph: each new node attaches to ``links`` nodes.

    Arboricity <= degeneracy <= links (peel nodes newest-first), but the
    maximum degree grows roughly like sqrt(n) — exactly the sparse-but-
    high-degree regime motivating arboricity-dependent coloring.

    Inherently sequential: each pick indexes the endpoint list built by
    the picks before it.  The raw draws come in array chunks and the
    ``randrange`` rejection test runs inline.
    """
    if links < 1:
        raise ValueError("links must be >= 1")
    if n <= links:
        return complete_graph(n)
    rng = SplitMix64(seed)
    # Repeated-endpoints list implements degree-proportional sampling:
    # the seed clique's nodes, ``links`` times each, then per new node
    # its ``links`` targets followed by itself ``links`` times.
    endpoints: list[int] = []
    for u in range(links + 1):
        endpoints.extend([u] * links)
    seed_size = len(endpoints)
    raws: list[int] = []
    pos = 0
    for new in range(links + 1, n):
        size = len(endpoints)
        # randrange(size) rejects raw draws at or past the largest
        # multiple of size below 2^64.
        limit = (1 << 64) - (1 << 64) % size
        chosen: set[int] = set()
        while len(chosen) < links:
            if pos == len(raws):
                raws = rng.next_u64_array(_PA_DRAW_CHUNK).tolist()
                pos = 0
            value = raws[pos]
            pos += 1
            if value < limit:
                chosen.add(endpoints[value % size])
        # The set's iteration order decides the endpoint list's contents.
        endpoints.extend(chosen)
        endpoints.extend([new] * links)
    clique = np.column_stack(np.triu_indices(links + 1, k=1)).astype(np.int64)
    attached = np.asarray(endpoints[seed_size:], dtype=np.int64).reshape(-1, 2, links)
    grown = np.column_stack((attached[:, 1, :].ravel(), attached[:, 0, :].ravel()))
    return Graph.from_arrays(n, np.concatenate((clique, grown)), validate=False)


def skewed_dependency_gadget(
    beta: int, chain_length: int, fan: int, decoy_fan: int = 0
) -> tuple[Graph, list[int]]:
    """The Figure 2b counterexample to naive volume-based querying.

    Builds a graph whose natural β-partition contains a *chain*
    ``w_0, w_1, ..., w_L`` with strictly decreasing layers
    (layer(w_i) = L - i + 1), where every chain node additionally carries
    ``fan`` pendant leaves (layer 0).  The dependency graph of ``w_0``
    therefore descends the whole chain, but a coin-dropping strategy that
    splits coins uniformly over all ``fan + O(beta)`` neighbors runs out of
    coins after ~log_fan(x) chain steps, while the paper's adaptive
    forwarding rule spends only a 1/(beta+1) fraction per step.

    The decreasing layers are enforced with pendant *delay trees*: chain
    node ``w_i`` carries ``beta + 1`` complete (beta+1)-ary trees of depth
    ``L - i``, whose roots stay unlayered exactly until iteration ``L - i``
    of the induced-partition process (Definition 3.6), blocking ``w_i``
    until iteration ``L - i + 1`` regardless of what its chain neighbors do.

    ``decoy_fan > 0`` additionally attaches to ``w_0`` a *decoy* neighbor
    (vertex id ``chain_length``) carrying ``decoy_fan`` delay trees of
    depth L.  The decoy's layer equals w_0's, so it lies *outside*
    D(ℓ_β, w_0) — yet its degree is decoy_fan, so BFS drowns in its
    children and DFS can dive into its subtrees (the §2.1 failure modes),
    while the adaptive rule forwards it only 1/(β+1) of the coins and the
    decoy re-forwards to at most β+1 children per super-iteration.

    Returns ``(graph, chain)`` where ``chain[i]`` is the vertex id of w_i.
    ``w_0`` is always vertex 0.  Note the size grows like
    ``beta * (beta+1)^L`` plus ``decoy_fan * (beta+1)^L``, so keep
    ``chain_length`` small for large beta.
    """
    if beta < 2:
        raise ValueError("gadget needs beta >= 2")
    if chain_length < 1:
        raise ValueError("chain_length must be >= 1")
    if 0 < decoy_fan < beta:
        # Fewer than beta delay trees cannot hold the decoy at w_0's layer,
        # which would drop it *into* the dependency graph.
        raise ValueError("decoy_fan must be 0 or >= beta")
    edges: list[tuple[int, int]] = []
    next_id = chain_length  # chain occupies ids 0..chain_length-1
    chain = list(range(chain_length))

    def fresh() -> int:
        nonlocal next_id
        vid = next_id
        next_id += 1
        return vid

    def attach_delay_tree(parent: int, depth: int) -> None:
        """Attach a complete (beta+1)-ary tree of the given depth to parent."""
        root = fresh()
        edges.append((parent, root))
        frontier = [root]
        for _ in range(depth):
            next_frontier = []
            for node in frontier:
                for _ in range(beta + 1):
                    child = fresh()
                    edges.append((node, child))
                    next_frontier.append(child)
            frontier = next_frontier

    last = chain_length - 1
    if decoy_fan > 0:
        # Decoy gets the first fresh id (= chain_length), so adversarial
        # low-id-first exploration orders walk straight into it.
        decoy = fresh()
        edges.append((chain[0], decoy))
        for _ in range(decoy_fan):
            attach_delay_tree(decoy, last)
    for i in range(chain_length):
        if i + 1 < chain_length:
            edges.append((chain[i], chain[i + 1]))
        for _ in range(fan):
            leaf = fresh()
            edges.append((chain[i], leaf))
        # beta + 1 delay trees of depth (last - i) keep w_i at layer
        # last - i + 1: their roots stay unlayered through iteration
        # last - i, so w_i has > beta infinity-neighbors until then.
        for _ in range(beta + 1):
            attach_delay_tree(chain[i], last - i)
    return Graph.from_edges(next_id, edges), chain
