"""Immutable undirected graph in CSR (compressed sparse row) form.

Every algorithm in this library reads graphs through this class.  The CSR
layout matches the paper's access model: the LCA / AMPC query interface is
"give me the i-th neighbor of v" and "give me deg(v)" (Section 3.1), both
O(1) on CSR.  Simple graphs only: no self-loops, no parallel edges.

The substrate is *array-native*: construction, subgraph extraction, and
bulk queries are single numpy passes (``np.lexsort`` / ``np.bincount`` /
fancy indexing), never per-edge Python loops.  The array API:

- :meth:`Graph.from_arrays` — build straight from an ``(m, 2)`` edge array.
- :meth:`Graph.edge_array` — all edges as an ``(m, 2)`` array with
  ``u < v``, lexicographically sorted (cached, read-only).
- :meth:`Graph.neighbors_of` — concatenated adjacency of a vertex batch.

Immutability is enforced, not just documented: the backing ``offsets`` /
``targets`` arrays are marked non-writeable at construction, so every view
handed out by :meth:`neighbors`, :meth:`degrees`, or :meth:`edge_array` is
read-only — attempting to mutate one raises ``ValueError``.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Graph"]


def _as_edge_array(edges: Iterable[tuple[int, int]] | np.ndarray) -> np.ndarray:
    """Coerce an edge iterable / array-like into an ``(m, 2)`` int64 array."""
    if isinstance(edges, np.ndarray):
        arr = np.ascontiguousarray(edges, dtype=np.int64)
        if arr.size == 0:
            return arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"edge array must have shape (m, 2), got {arr.shape}")
        return arr
    if not isinstance(edges, (list, tuple)):
        edges = list(edges)
    if not edges:
        return np.empty((0, 2), dtype=np.int64)
    return np.fromiter(
        chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges)
    ).reshape(len(edges), 2)


class Graph:
    """Undirected simple graph with integer vertices ``0..n-1``.

    Construct via :meth:`from_edges` or :meth:`from_arrays`.
    """

    __slots__ = ("_n", "_offsets", "_targets", "_degrees", "_edge_array")

    def __init__(self, n: int, offsets: np.ndarray, targets: np.ndarray) -> None:
        offsets.setflags(write=False)
        targets.setflags(write=False)
        self._n = int(n)
        self._offsets = offsets
        self._targets = targets
        self._degrees: np.ndarray | None = None
        self._edge_array: np.ndarray | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph on ``n`` vertices from an iterable of edges.

        Rejects self-loops and out-of-range endpoints; deduplicates parallel
        edges silently (the paper's model assumes simple graphs).
        """
        return cls.from_arrays(n, _as_edge_array(edges))

    @classmethod
    def from_arrays(
        cls, n: int, edge_array: np.ndarray, *, validate: bool = True
    ) -> "Graph":
        """Build a graph from an ``(m, 2)`` array of undirected edges.

        Edges may appear in either orientation and with duplicates; the CSR
        build canonicalizes, sorts, and deduplicates in bulk.  With
        ``validate=False`` the self-loop / range checks are skipped (for
        callers that construct provably clean arrays, e.g. subgraph
        extraction and the random generators).
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        arr = _as_edge_array(edge_array)
        if validate and arr.size:
            u, v = arr[:, 0], arr[:, 1]
            loops = u == v
            if loops.any():
                raise ValueError(f"self-loop at vertex {int(u[np.argmax(loops)])}")
            bad = (arr < 0) | (arr >= n)
            if bad.any():
                row = int(np.argmax(bad.any(axis=1)))
                raise ValueError(
                    f"edge ({int(u[row])}, {int(v[row])}) out of range for n={n}"
                )
        offsets, targets = _build_csr(n, arr)
        return cls(n, offsets, targets)

    # -- basic accessors ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return len(self._targets) // 2

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return int(self._offsets[v + 1] - self._offsets[v])

    def degrees(self) -> np.ndarray:
        """Vector of all vertex degrees (cached, read-only)."""
        if self._degrees is None:
            degrees = np.diff(self._offsets)
            degrees.setflags(write=False)
            self._degrees = degrees
        return self._degrees

    def max_degree(self) -> int:
        """Maximum degree Δ (0 for the empty graph)."""
        if self._n == 0:
            return 0
        return int(self.degrees().max(initial=0))

    def neighbor(self, v: int, i: int) -> int:
        """The ``i``-th neighbor of ``v`` (the paper's LCA query)."""
        if not 0 <= i < self.degree(v):
            raise IndexError(f"vertex {v} has no neighbor index {i}")
        return int(self._targets[self._offsets[v] + i])

    def neighbors(self, v: int) -> np.ndarray:
        """All neighbors of ``v`` as a sorted array (zero-copy, read-only)."""
        return self._targets[self._offsets[v]: self._offsets[v + 1]]

    def neighbors_of(self, vertices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated adjacency for a batch of vertices.

        Returns ``(targets, boundaries)`` where the neighbors of
        ``vertices[k]`` are ``targets[boundaries[k]:boundaries[k + 1]]``.
        One vectorized gather instead of ``len(vertices)`` slice calls.
        """
        idx = np.asarray(vertices, dtype=np.int64)
        starts = self._offsets[idx]
        counts = self._offsets[idx + 1] - starts
        boundaries = np.zeros(len(idx) + 1, dtype=np.int64)
        np.cumsum(counts, out=boundaries[1:])
        total = int(boundaries[-1])
        positions = np.arange(total, dtype=np.int64)
        positions += np.repeat(starts - boundaries[:-1], counts)
        return self._targets[positions], boundaries

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The raw CSR pair ``(offsets, targets)`` (zero-copy, read-only).

        ``targets[offsets[v]:offsets[v + 1]]`` lists the sorted neighbors
        of ``v``.  This is the substrate the columnar AMPC stores install
        directly instead of re-encoding adjacency pair by pair.
        """
        return self._offsets, self._targets

    def edge_array(self) -> np.ndarray:
        """All undirected edges as an ``(m, 2)`` array with ``u < v``.

        Rows are lexicographically sorted; the array is cached and
        read-only.  This is the bulk counterpart of :meth:`edges` and the
        substrate for the vectorized validators and subgraph extraction.
        """
        if self._edge_array is None:
            sources = np.repeat(
                np.arange(self._n, dtype=np.int64), self.degrees()
            )
            mask = sources < self._targets
            arr = np.column_stack((sources[mask], self._targets[mask]))
            arr.setflags(write=False)
            self._edge_array = arr
        return self._edge_array

    def has_edge(self, u: int, v: int) -> bool:
        """True if ``{u, v}`` is an edge (binary search on CSR)."""
        if u == v:
            return False
        nbrs = self.neighbors(u)
        pos = int(np.searchsorted(nbrs, v))
        return pos < len(nbrs) and int(nbrs[pos]) == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate each undirected edge once, as ``(u, v)`` with u < v."""
        for u, v in self.edge_array():
            yield int(u), int(v)

    def vertices(self) -> range:
        """Range over all vertex ids."""
        return range(self._n)

    # -- derived graphs ----------------------------------------------------

    def induced_subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Vertex-induced subgraph, without materializing an id mapping.

        Vertex ids in the subgraph are ``0..len(vertices)-1`` in the order
        given (duplicates rejected).  Extraction is a bulk index-remap over
        :meth:`edge_array`, not a per-vertex dict walk; ``vertices`` itself
        is the new->old inverse mapping (use :meth:`subgraph` when the
        old->new dict is needed).

        Strictly ascending ``vertices`` (what per-layer grouping yields)
        make the remap monotone: every gathered row stays sorted and
        duplicate-free, so the CSR is assembled straight from the kept
        neighbors and their prefix counts, with no sort or dedup.
        """
        verts = np.asarray(vertices, dtype=np.int64)
        if verts.ndim != 1:
            raise ValueError("subgraph takes a 1-D sequence of vertex ids")
        k = len(verts)
        if verts.size and (
            int(verts.min()) < 0 or int(verts.max()) >= self._n
        ):
            raise IndexError("subgraph vertex id out of range")
        remap = np.full(self._n, -1, dtype=np.int64)
        remap[verts] = np.arange(k, dtype=np.int64)
        if (verts[1:] > verts[:-1]).all():
            nbrs, boundaries = self.neighbors_of(verts)
            new_v = remap[nbrs]
            keep = new_v >= 0
            kept_before = np.zeros(len(keep) + 1, dtype=np.int64)
            np.cumsum(keep, out=kept_before[1:])
            return Graph(k, kept_before[boundaries], new_v[keep])
        if len(np.unique(verts)) != k:
            seen: set[int] = set()
            for old_id in verts:
                old_id = int(old_id)
                if old_id in seen:
                    raise ValueError(f"duplicate vertex {old_id}")
                seen.add(old_id)
        # Gather only the subset's adjacency (O(vol(S)), not O(m)); every
        # in-subgraph edge appears once per endpoint and the CSR build's
        # canonicalize-and-dedup collapses the pair.
        nbrs, boundaries = self.neighbors_of(verts)
        new_v = remap[nbrs]
        new_u = np.repeat(np.arange(k, dtype=np.int64), np.diff(boundaries))
        keep = new_v >= 0
        sub_edges = np.column_stack((new_u[keep], new_v[keep]))
        return Graph.from_arrays(k, sub_edges, validate=False)

    def subgraph(self, vertices: Sequence[int]) -> tuple["Graph", dict[int, int]]:
        """Vertex-induced subgraph plus the old->new id mapping.

        :meth:`induced_subgraph` with the old->new dict materialized on
        top; prefer that method on hot paths that do not need the dict.
        """
        sub = self.induced_subgraph(vertices)
        mapping = {int(old_id): new_id for new_id, old_id in enumerate(vertices)}
        return sub, mapping

    def connected_components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists.

        Vectorized hook-and-compress over :meth:`edge_array`: every pass
        pulls each component label to the minimum over edge endpoints
        (``np.minimum.at``) and then collapses label chains by pointer
        jumping, converging in O(log n) passes of O(n + m) array work —
        the per-vertex BFS this replaces is preserved in
        :mod:`repro.graphs.reference` as the equivalence oracle.  Output
        is identical: components sorted internally, ordered by smallest
        member.
        """
        n = self._n
        if n == 0:
            return []
        label = np.arange(n, dtype=np.int64)
        if self.num_edges:
            u, v = self.edge_array().T
            while True:
                lu, lv = label[u], label[v]
                np.minimum.at(label, lu, label[lv])
                np.minimum.at(label, lv, label[lu])
                # Pointer jumping: each chain halves until labels are roots.
                while True:
                    jumped = label[label]
                    if np.array_equal(jumped, label):
                        break
                    label = jumped
                if np.array_equal(label[u], label[v]):
                    break
        order = np.argsort(label, kind="stable")
        sorted_labels = label[order]
        boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
        return [grp.tolist() for grp in np.split(order, boundaries)]

    # -- dunder ------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self._n}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._targets, other._targets)
        )

    def __hash__(self) -> int:
        return hash((self._n, self._targets.tobytes()))


def _build_csr(n: int, edge_array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-pass vectorized CSR build from an ``(m, 2)`` edge array.

    Mirrors and replaces the seed per-edge insertion / per-vertex sort
    loops (kept verbatim in :mod:`repro.graphs.reference` as the
    equivalence-test oracle): duplicate edges collapse, every adjacency
    list comes out sorted, and the output is byte-identical to the seed
    builder's ``offsets`` / ``targets``.
    """
    if edge_array.size == 0:
        return np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    lo = np.minimum(edge_array[:, 0], edge_array[:, 1])
    hi = np.maximum(edge_array[:, 0], edge_array[:, 1])
    src = np.concatenate((lo, hi))
    dst = np.concatenate((hi, lo))
    if n <= 3_000_000_000:  # n² fits in int64: one fused-key sort
        key = src * n
        key += dst
        key.sort(kind="stable")
        # Adjacent duplicates are exactly the parallel-edge copies.
        keep = np.empty(len(key), dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
        src, targets = np.divmod(key, n)
    else:  # pragma: no cover - astronomically large n
        order = np.lexsort((dst, src))
        src = src[order]
        dst = dst[order]
        keep = np.empty(len(src), dtype=bool)
        keep[0] = True
        np.not_equal(src[1:], src[:-1], out=keep[1:])
        np.logical_or(keep[1:], dst[1:] != dst[:-1], out=keep[1:])
        src = src[keep]
        targets = dst[keep]
    degrees = np.bincount(src, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    return offsets, targets
