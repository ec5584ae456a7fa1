"""Array-backed data stores for the columnar round loop.

A :class:`ColumnStore` holds one D_i of Theorem 1.2 as typed numpy
columns over the vertex universe ``0..n-1``, written and read in bulk
only:

- ``("deg", v)`` / ``("adj", v, j)`` — the residual graph G_i as one CSR
  pair (offsets, targets) over the full universe, installed by
  :meth:`~ColumnStore.load_residual_csr`; a degree is an offsets
  difference;
- ``("layer", v)`` — the round's layer minima plus a write-count column,
  installed once by :meth:`~ColumnStore.install_layer_column` after the
  kernel has min-folded every proposal (the DDS-side merge of
  Lemma 4.10).

There is no per-key API: machines that read and write one key at a time
run against the dict-backed :class:`~repro.ampc.dds.DataStore`, the
semantics oracle.  The two stores share only the accounting the round
loop records — :meth:`~ColumnStore.reduce_per_key`,
:meth:`~ColumnStore.total_words` (which matches the oracle's logical
pair count store for store) and :meth:`~ColumnStore.held_words`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ColumnStore"]


class ColumnStore:
    """Array-backed D_i over a fixed vertex universe ``0..n-1``."""

    def __init__(self, num_vertices: int, name: str = "") -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self.name = name
        self.num_vertices = int(num_vertices)
        # One ("deg", v) word per alive vertex; the degrees themselves are
        # the CSR offsets' differences.
        self._deg_words = 0
        # ("adj", v, j) family: CSR over the full universe.
        self._adj_offsets: np.ndarray | None = None
        self._adj_targets: np.ndarray | None = None
        # ("layer", v) family: min-folded values + write counts.
        self._layer: np.ndarray | None = None
        self._layer_count: np.ndarray | None = None

    def load_residual_csr(
        self,
        alive: np.ndarray,
        offsets: np.ndarray,
        targets: np.ndarray,
    ) -> None:
        """Install the residual graph G_i as deg/adj columns.

        ``offsets``/``targets`` form a CSR over the *full* vertex universe
        (dead vertices have empty ranges); ``alive`` lists the vertices
        whose ``("deg", v)`` keys exist.  One call replaces the
        O(vol(G_i)) per-pair Python writes of the dict path.
        """
        if len(offsets) != self.num_vertices + 1:
            raise ValueError("offsets must cover the full vertex universe")
        self._adj_offsets = offsets
        self._adj_targets = targets
        self._deg_words = int(len(alive))

    def adjacency_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The installed residual CSR (offsets, targets)."""
        if self._adj_offsets is None or self._adj_targets is None:
            raise KeyError("no adjacency column installed")
        return self._adj_offsets, self._adj_targets

    def install_layer_column(self, minima: np.ndarray, counts: np.ndarray) -> None:
        """Install the round's folded layer minima and their write counts.

        ``minima[v]`` is the smallest layer proposed for v (``inf`` when
        none was) and ``counts[v]`` how many proposals were written.  The
        layer column is written exactly once per store; a second install
        raises rather than silently replacing the first.
        """
        if len(minima) != self.num_vertices or len(counts) != self.num_vertices:
            raise ValueError("layer columns must cover the vertex universe")
        if self._layer is not None:
            raise NotImplementedError(
                "layer column already populated; install_layer_column is "
                "single-install"
            )
        self._layer = minima
        self._layer_count = counts

    def layer_assignments(self) -> tuple[np.ndarray, np.ndarray]:
        """``(vertices, layers)`` arrays of every written layer key."""
        if self._layer is None:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0)
        written = np.flatnonzero(self._layer_count)
        return written, self._layer[written]

    def reduce_per_key(self, reducer) -> None:
        """Collapse each layer key's proposals to one word.

        The installed column already holds each key's minimum, so only
        ``min`` is a valid reducer once a layer key holds more than one
        proposal — any other reducer raises rather than silently
        returning the minimum.
        """
        if self._layer_count is None:
            return
        if reducer is not min and (self._layer_count > 1).any():
            raise NotImplementedError(
                "layer proposals are min-folded before install; "
                f"reducer {reducer!r} cannot be replayed on them"
            )
        np.minimum(self._layer_count, 1, out=self._layer_count)

    def total_words(self) -> int:
        """Total stored key-value pairs (the model's space unit)."""
        words = self._deg_words
        if self._adj_targets is not None:
            words += int(len(self._adj_targets))
        if self._layer_count is not None:
            words += int(self._layer_count.sum())
        return words

    def held_words(self) -> int:
        """Real words the backing arrays hold (array lengths, not pairs).

        ``total_words`` counts logical key-value pairs — the model's
        space unit and the quantity the dict oracle matches bit for bit.
        This counts what is genuinely resident: the CSR offset and
        target arrays and the dense layer/count columns, whatever their
        logical occupancy.  Strict-budget parity audits check S against
        this, not the flattering logical count.
        """
        return sum(
            int(len(column))
            for column in (
                self._adj_offsets, self._adj_targets,
                self._layer, self._layer_count,
            )
            if column is not None
        )
