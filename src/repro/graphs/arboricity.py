"""Arboricity machinery: Definition 3.1, bounds, and exact computation.

The paper parameterizes everything by the arboricity

    alpha(G) = max over subgraphs H, |V(H)| >= 2 of ceil(m_H / (n_H - 1)),

equal (Nash-Williams 1964) to the minimum number of forests covering E(G).
We provide:

- :func:`degeneracy` / :func:`core_numbers` — the classic peeling bounds
  (alpha <= degeneracy <= 2*alpha - 1).  :func:`degeneracy_order` is the
  list bucket peel behind :func:`core_numbers` and the smallest-last
  greedy coloring; :func:`degeneracy` is the maximum of the compiled
  kernel's port of it (``repro_core_peel``, O(n + m)), or of the list
  peel itself when the kernel cannot load (the warned fallback) or its
  allocation fails;
- :func:`density_lower_bound` — ceil(m / (n-1)) on the whole graph;
- :func:`exact_arboricity` — exact value via matroid-union forest packing,
  which also returns an explicit partition of E into alpha forests
  (the constructive direction of Nash-Williams).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graphs.graph import Graph

__all__ = [
    "core_numbers",
    "degeneracy",
    "degeneracy_order",
    "density_lower_bound",
    "exact_arboricity",
    "forest_partition",
]


def degeneracy_order(graph: Graph) -> tuple[list[int], list[int]]:
    """Smallest-last vertex order and per-vertex core numbers.

    Returns ``(order, cores)`` where ``order`` lists vertices in peeling
    order and ``cores[v]`` is the core number of v.  The degeneracy is
    ``max(cores)``.

    Array bucket peel (Batagelj-Zaveršnik layout): vertices live in one
    flat array sorted by residual degree (``np.bincount`` histogram +
    stable argsort set up the buckets), and every removal decrements each
    surviving neighbor by an O(1) swap toward its new bucket.  Each
    extracted vertex has minimum *exact* residual degree — the same
    smallest-last guarantee as the :class:`~repro.util.bucket_queue.
    BucketQueue` peeler this replaces (kept as the test oracle), with a
    deterministic array-order tie-break instead of set-pop order.
    """
    n = graph.num_vertices
    if n == 0:
        return [], []
    offsets_arr, targets_arr = graph.csr()
    deg_arr = graph.degrees()
    max_deg = int(deg_arr.max(initial=0))
    # Bucket layout: vert = vertices sorted by degree (ties by id),
    # pos = inverse permutation, bin_start[d] = first slot of bucket d.
    vert_arr = np.argsort(deg_arr, kind="stable")
    pos_arr = np.empty(n, dtype=np.int64)
    pos_arr[vert_arr] = np.arange(n, dtype=np.int64)
    counts = np.bincount(deg_arr, minlength=max_deg + 1)
    starts = np.zeros(max_deg + 1, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    # The peel itself runs over plain lists: indexed swaps beat per-probe
    # numpy scalars by an order of magnitude at this access pattern.
    deg = deg_arr.tolist()
    vert = vert_arr.tolist()
    pos = pos_arr.tolist()
    bin_start = starts.tolist()
    offsets = offsets_arr.tolist()
    targets = targets_arr.tolist()
    cores = [0] * n
    current_core = 0
    for i in range(n):
        v = vert[i]
        dv = deg[v]
        bin_start[dv] = i + 1  # v leaves the front of its bucket
        if dv > current_core:
            current_core = dv
        cores[v] = current_core
        for w in targets[offsets[v]:offsets[v + 1]]:
            if pos[w] > i:  # w still unpeeled: exact residual decrement
                dw = deg[w]
                s = bin_start[dw]
                u = vert[s]
                if u != w:
                    pw = pos[w]
                    vert[s] = w
                    vert[pw] = u
                    pos[w] = s
                    pos[u] = pw
                bin_start[dw] = s + 1
                deg[w] = dw - 1
    return vert, cores


def core_numbers(graph: Graph) -> list[int]:
    """Core number of every vertex."""
    return degeneracy_order(graph)[1]


def degeneracy(graph: Graph) -> int:
    """The degeneracy d(G); satisfies alpha <= d <= 2*alpha - 1.

    Equal to ``max(degeneracy_order(graph)[1])``: the maximum of the
    compiled kernel's core numbers, or of the list peel's when the
    kernel cannot load or its allocation fails.
    """
    from repro.core import native

    if native.tail_compiled(None, "degeneracy"):
        cores = native.core_peel(*graph.csr())
        if cores is not None:
            return int(cores.max(initial=0))
    return max(degeneracy_order(graph)[1], default=0)


def density_lower_bound(graph: Graph) -> int:
    """ceil(m / (n - 1)), a lower bound on arboricity (whole-graph term)."""
    n, m = graph.num_vertices, graph.num_edges
    if n < 2 or m == 0:
        return 0
    return -(-m // (n - 1))


class _ForestPacking:
    """k mutable forests over a fixed vertex set, with edge insertion via
    matroid-union augmenting paths.

    ``try_insert(u, v)`` attempts to add edge {u, v} to one of the k forests,
    possibly reshuffling existing edges between forests (the exchange walk of
    the matroid-union algorithm).  Returns False when no augmenting sequence
    exists — which, by matroid union / Nash-Williams, happens iff the current
    edge set plus {u, v} is not coverable by k forests.
    """

    def __init__(self, n: int, k: int) -> None:
        self.n = n
        self.k = k
        # adjacency[i][v] = list of neighbors of v inside forest i
        self.adjacency: list[dict[int, list[int]]] = [dict() for _ in range(k)]
        self.forest_of: dict[tuple[int, int], int] = {}

    @staticmethod
    def _key(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    def _forest_path(self, i: int, u: int, v: int) -> list[tuple[int, int]] | None:
        """Edge path from u to v inside forest i, or None if disconnected."""
        if u == v:
            return []
        adj = self.adjacency[i]
        if u not in adj or v not in adj:
            return None
        parent: dict[int, int] = {u: u}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for y in adj.get(x, ()):
                if y not in parent:
                    parent[y] = x
                    if y == v:
                        path = []
                        cur = v
                        while cur != u:
                            path.append(self._key(parent[cur], cur))
                            cur = parent[cur]
                        path.reverse()
                        return path
                    queue.append(y)
        return None

    def _add(self, i: int, u: int, v: int) -> None:
        self.adjacency[i].setdefault(u, []).append(v)
        self.adjacency[i].setdefault(v, []).append(u)
        self.forest_of[self._key(u, v)] = i

    def _remove(self, i: int, u: int, v: int) -> None:
        self.adjacency[i][u].remove(v)
        self.adjacency[i][v].remove(u)
        del self.forest_of[self._key(u, v)]

    def try_insert(self, u: int, v: int) -> bool:
        """Insert edge {u, v}; return False if k forests cannot hold it."""
        start = self._key(u, v)
        if start in self.forest_of:
            raise ValueError(f"edge {start} already packed")
        # BFS over edges-to-place.  predecessor[e] = (previous edge, forest
        # whose cycle e lies on); used to unwind the exchange sequence.
        predecessor: dict[tuple[int, int], tuple[tuple[int, int] | None, int]] = {
            start: (None, -1)
        }
        queue = deque([start])
        while queue:
            edge = queue.popleft()
            a, b = edge
            for i in range(self.k):
                path = self._forest_path(i, a, b)
                if path is None:
                    # Forest i accepts this edge outright: unwind swaps.
                    self._apply_augmentation(edge, i, predecessor)
                    return True
                for cycle_edge in path:
                    if cycle_edge not in predecessor:
                        predecessor[cycle_edge] = (edge, i)
                        queue.append(cycle_edge)
        return False

    def _apply_augmentation(
        self,
        final_edge: tuple[int, int],
        free_forest: int,
        predecessor: dict[tuple[int, int], tuple[tuple[int, int] | None, int]],
    ) -> None:
        # Walk back: final_edge goes into free_forest; every predecessor
        # edge replaces its successor in the forest whose cycle linked them.
        edge: tuple[int, int] | None = final_edge
        target_forest = free_forest
        while edge is not None:
            prev_edge, via_forest = predecessor[edge]
            if edge in self.forest_of:
                self._remove(self.forest_of[edge], *edge)
            self._add(target_forest, *edge)
            target_forest = via_forest
            edge = prev_edge

    def forests(self) -> list[list[tuple[int, int]]]:
        """Return the packed edges grouped by forest index."""
        result: list[list[tuple[int, int]]] = [[] for _ in range(self.k)]
        for edge, i in self.forest_of.items():
            result[i].append(edge)
        return [sorted(f) for f in result]


def forest_partition(graph: Graph, k: int) -> list[list[tuple[int, int]]] | None:
    """Partition E(G) into at most ``k`` forests, or None if impossible.

    Matroid-union augmentation: exact, deterministic.  The returned list has
    exactly ``k`` entries (possibly empty ones).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if graph.num_edges == 0:
        return [[] for _ in range(k)]
    if k == 0:
        return None
    packing = _ForestPacking(graph.num_vertices, k)
    for u, v in graph.edges():
        if not packing.try_insert(u, v):
            return None
    return packing.forests()


def exact_arboricity(graph: Graph) -> int:
    """Exact Nash-Williams arboricity via incremental forest packing.

    Starts from the density lower bound and increases k until a k-forest
    packing exists.  Exact but superlinear; intended for validation and
    bench-scale graphs (up to a few thousand edges).
    """
    if graph.num_edges == 0:
        return 0
    k = max(1, density_lower_bound(graph))
    while True:
        if forest_partition(graph, k) is not None:
            return k
        k += 1
