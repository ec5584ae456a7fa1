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

from repro.coloring.layers import Layer, one_label
from repro.core import native
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
        offsets: np.ndarray,
        targets: np.ndarray,
        beta: int,
        engine: str | None = None,
        layer: Layer | None = None,
    ) -> np.ndarray:
        """One reduction round for every vertex at once.

        ``colors`` is the current coloring; the constraints are a CSR:
        vertex v must avoid its out-neighbors
        ``targets[offsets[v]:offsets[v + 1]]``, and no vertex may have
        more than β of them.  The coloring must be proper on these edges.
        Each vertex v gets ``a * q + p_v(a)`` for the smallest point a
        where p_v differs from every out-neighbor's polynomial.

        With ``layer`` (a :class:`~repro.coloring.layers.Layer`;
        ``offsets``/``targets`` are then its graph's CSR) the round is
        that of the layer's induced subgraph: ``colors`` are by layer
        position, and each vertex avoids only its neighbors in the layer.

        ``engine`` None or "compiled" runs the round as the kernel's C
        loop (:func:`repro.core.native.cover_free_round`), in place on
        the whole CSR for a layer; "batched" or "scalar" runs the numpy
        pass, the oracle, on the layer's induced subgraph: points are
        tried in increasing order, each as one Horner sweep over the
        digit matrix, and only vertices that still clash (and their
        edges) go on to the next point.
        """
        colors = np.asarray(colors, dtype=np.int64)
        n = colors.size
        if layer is None:
            offsets = np.asarray(offsets, dtype=np.int64)
            targets = np.asarray(targets, dtype=np.int64)
            degrees = np.diff(offsets)
            if (
                offsets.size != n + 1 or offsets[0] != 0
                or offsets[-1] != targets.size or (degrees < 0).any()
            ):
                raise ValueError(
                    "offsets and targets are not a CSR over the colors"
                )
            if targets.size and int(degrees.max()) > beta:
                raise ValueError("more out-neighbors than β")
        elif n != layer.size:
            raise ValueError("need one color per layer vertex")
        if self.d * beta >= self.q:
            raise ValueError("family too small: need q > d·β")
        if (
            native.tail_compiled(engine, "CoverFreeFamily.reduce_colors")
            and self.q <= _MAX_COMPILED_Q
            and n
            and (layer is not None or (
                targets.size
                and 0 <= int(targets.min()) and int(targets.max()) < n
            ))
            # Colors :meth:`digits` would reject take the numpy round,
            # which raises its error.
            and 0 <= int(colors.min())
            and int(colors.max()) < min(self.source_colors, self.q ** (self.d + 1))
        ):
            vertices, labels = (
                one_label(n) if layer is None
                else (layer.vertices, layer.labels)
            )
            new = native.cover_free_round(
                offsets, targets, vertices, labels, colors, self.d + 1,
                self.q, beta,
            )
            if new is not None:
                return new
        if layer is not None:
            return self.reduce_colors(
                colors, *layer.induced().csr(), beta, engine="batched"
            )
        src = np.repeat(np.arange(n, dtype=np.int64), degrees)
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
        (:meth:`reduce_colors` on a single out-star)."""
        k = len(out_neighbor_colors)
        colors = np.array([color, *out_neighbor_colors], dtype=np.int64)
        offsets = np.full(k + 2, k, dtype=np.int64)
        offsets[0] = 0
        targets = np.arange(1, k + 1, dtype=np.int64)
        return int(self.reduce_colors(colors, offsets, targets, beta)[0])


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
