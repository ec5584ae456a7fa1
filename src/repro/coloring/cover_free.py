"""Polynomial cover-free families for Linial-style color reduction.

One Arb-Linial round maps an m-coloring to a q²-coloring, where q is a
prime with q > d·β and q^{d+1} >= m: encode each color as a distinct
polynomial of degree <= d over F_q (base-q digits as coefficients); a
vertex v with out-degree <= β finds an evaluation point a where its
polynomial differs from all out-neighbors' polynomials (it agrees with
each on <= d points, and d·β < q points cannot cover F_q); the new color
is the pair (a, p_v(a)).

This file provides the parameter selection (minimizing the new palette
q² over the degree d) and the reduction step over all vertices at once:
a C loop in the compiled kernel, or the numpy pass that is its oracle.
Correctness is
*one-sided*: a vertex only needs its out-neighbors' colors, which is what
lets the AMPC wrapper simulate many rounds in one ball collection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.coloring.layers import Layer, whole_layer
from repro.core import native
from repro.graphs.graph import Graph
from repro.util.primes import next_prime

__all__ = ["CoverFreeFamily", "choose_family"]

# The compiled round computes in int64 (Horner steps ``x * a + c`` and
# new colors ``a * q + x``, all below q²), so it takes families up to this
# q (q² < 2**63); larger ones run the numpy round.
_MAX_COMPILED_Q = 3_037_000_499


@dataclass(frozen=True)
class CoverFreeFamily:
    """Parameters of one reduction round: F_q polynomials of degree <= d."""

    q: int  # prime field size
    d: int  # polynomial degree
    source_colors: int  # m: colors the encoding must distinguish

    @property
    def target_colors(self) -> int:
        """Size of the new palette, q²."""
        return self.q * self.q

    def digits(self, colors) -> np.ndarray:
        """Base-q digits of every color: row i holds the d+1 coefficients
        of ``colors[i]``'s polynomial, lowest degree first."""
        colors = np.asarray(colors, dtype=np.int64)
        outside = (colors < 0) | (colors >= self.source_colors)
        if outside.any():
            raise ValueError(
                f"color {int(colors[outside][0])} outside palette "
                f"[0, {self.source_colors})"
            )
        out = np.empty((colors.size, self.d + 1), dtype=np.int64)
        value = colors.copy()
        for k in range(self.d + 1):
            out[:, k] = value % self.q
            value //= self.q
        if value.any():
            raise AssertionError("q^(d+1) >= m violated; family misconstructed")
        return out

    def coefficients(self, color: int) -> list[int]:
        """Base-q digits of ``color``: the polynomial's d+1 coefficients."""
        return self.digits([color])[0].tolist()

    def evaluate(self, color: int, a: int) -> int:
        """p_color(a) over F_q (Horner)."""
        return int(_horner(self.digits([color]), a, self.q)[0])

    def reduce_colors(
        self,
        colors,
        layer: Layer,
        beta: int,
        engine: str | None = None,
    ) -> np.ndarray:
        """One reduction round for every vertex of ``layer`` at once.

        ``colors`` is the current coloring, by layer position (a
        :class:`~repro.coloring.layers.Layer`; :func:`whole_layer` of a
        graph, or of an orientation's CSR, for a whole-graph round).
        Vertex v must avoid its out-neighbors in the layer, the
        same-label targets of its row of the layer's CSR, and no vertex
        may have more than β of them.  The coloring must be proper on
        these edges.  Each vertex v gets ``a * q + p_v(a)`` for the
        smallest point a where p_v differs from every out-neighbor's
        polynomial.

        ``engine`` None or "compiled" runs the round as the kernel's C
        loop (:func:`repro.core.native.cover_free_round`), in place on
        the layer's CSR; "batched" or "scalar" runs the numpy pass, the
        oracle, on the layer's arcs by position
        (:meth:`~repro.coloring.layers.Layer.local_csr`): points are
        tried in increasing order, each as one Horner sweep over the
        digit matrix, and only vertices that still clash (and their
        edges) go on to the next point.
        """
        colors = np.asarray(colors, dtype=np.int64)
        if colors.shape != (layer.size,):
            raise ValueError("need one color per layer vertex")
        if self.d * beta >= self.q:
            raise ValueError("family too small: need q > d·β")
        if (
            native.tail_compiled(engine, "CoverFreeFamily.reduce_colors")
            and self.q <= _MAX_COMPILED_Q
            and colors.size
            # Colors :meth:`digits` would reject take the numpy round,
            # which raises its error.
            and 0 <= int(colors.min())
            and int(colors.max()) < min(self.source_colors, self.q ** (self.d + 1))
        ):
            new = native.cover_free_round(
                layer, colors, self.d + 1, self.q, beta
            )
            if new is not None:
                return new
        offsets, targets = layer.local_csr()
        degrees = np.diff(offsets)
        if targets.size and int(degrees.max()) > beta:
            raise ValueError("more out-neighbors than β")
        src = np.repeat(np.arange(colors.size, dtype=np.int64), degrees)
        return self._reduce_colors_numpy(self.digits(colors), src, targets)

    def _reduce_colors_numpy(
        self, digits: np.ndarray, src: np.ndarray, dst: np.ndarray
    ) -> np.ndarray:
        """The numpy round: one Horner sweep per point."""
        n = digits.shape[0]
        new = np.empty(n, dtype=np.int64)
        pending = np.arange(n, dtype=np.int64)
        clash = np.zeros(n, dtype=bool)
        for a in range(self.q):
            val = _horner(digits, a, self.q)
            clash[src[val[src] == val[dst]]] = True
            hit = clash[pending]
            done = pending[~hit]
            new[done] = a * self.q + val[done]
            pending = pending[hit]
            if not pending.size:
                return new
            keep = clash[src]
            src, dst = src[keep], dst[keep]
            clash[pending] = False
        raise AssertionError(
            "no distinguishing point found; inputs were not a proper coloring"
        )

    def reduce_color(self, color: int, out_neighbor_colors: list[int], beta: int) -> int:
        """New color of one vertex given its out-neighbors' current colors
        (:meth:`reduce_colors` on a star, read at its center)."""
        k = len(out_neighbor_colors)
        colors = np.array([color, *out_neighbor_colors], dtype=np.int64)
        leaves = np.arange(1, k + 1, dtype=np.int64)
        star = Graph.from_arrays(
            k + 1, np.column_stack((np.zeros(k, dtype=np.int64), leaves))
        )
        return int(self.reduce_colors(colors, whole_layer(star), beta)[0])


def _horner(digits: np.ndarray, a: int, q: int) -> np.ndarray:
    """Every row's polynomial evaluated at ``a`` over F_q."""
    val = digits[:, -1].copy()
    for k in range(digits.shape[1] - 2, -1, -1):
        val *= a
        val += digits[:, k]
        val %= q
    return val


def choose_family(m: int, beta: int, max_degree: int = 64) -> CoverFreeFamily:
    """Smallest-q family able to reduce an m-coloring at out-degree β.

    Scans degrees d = 1.. and keeps the d minimizing q (hence the new
    palette q²), subject to q > d·β and q^{d+1} >= m.
    """
    if m < 2:
        raise ValueError("nothing to reduce with fewer than 2 colors")
    if beta < 1:
        raise ValueError("beta must be >= 1")
    best: CoverFreeFamily | None = None
    for d in range(1, max_degree + 1):
        # Smallest q compatible with both constraints at this degree.
        root = int(round(m ** (1.0 / (d + 1))))
        while root**(d + 1) < m:
            root += 1
        q = next_prime(max(d * beta + 1, root, 2))
        if best is None or q < best.q:
            best = CoverFreeFamily(q=q, d=d, source_colors=m)
        if root <= d * beta + 1:
            break  # larger d can only raise the d·β constraint
    assert best is not None
    return best
