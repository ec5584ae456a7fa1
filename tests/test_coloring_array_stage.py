"""Differential tests: the array coloring stage against per-vertex oracles.

Linial, Arb-Linial, Kuhn-Wattenhofer and the partition orientation run
as whole-array kernels in ``src/``, and the first three also as the
compiled kernel's C loops (``engine`` None or "compiled"; "batched" is
the numpy tail).  The per-vertex loops they replaced live here as the
oracles: every test runs both tail engines, each must reproduce its
oracle's colors, palette size and LOCAL round count bit for bit, and
raise on the same bad inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tail_engines import TAIL_ENGINES, tail

from repro.coloring.arb_linial import arb_linial_coloring, linial_undirected_coloring
from repro.coloring.cover_free import choose_family
from repro.coloring.kuhn_wattenhofer import kw_color_reduction
from repro.coloring.layers import whole_layer
from repro.core.orientation import orient_by_partition
from repro.graphs.generators import (
    preferential_attachment,
    random_gnm,
    star_graph,
    union_of_random_forests,
)
from repro.graphs.graph import Graph
from repro.partition.beta_partition import INFINITY, PartialBetaPartition

# ----------------------------------------------------------------------
# Per-vertex oracles
# ----------------------------------------------------------------------


def oracle_reduce_color(family, color, out_neighbor_colors, beta):
    """New color of one vertex: smallest point a where p_color differs
    from every out-neighbor's polynomial, as ``a * q + p_color(a)``."""
    q, d = family.q, family.d
    if len(out_neighbor_colors) > beta:
        raise ValueError("more out-neighbors than β")
    if d * beta >= q:
        raise ValueError("family too small: need q > d·β")

    def coefficients(c):
        if not 0 <= c < family.source_colors:
            raise ValueError(f"color {c} outside palette")
        digits = []
        for _ in range(d + 1):
            digits.append(c % q)
            c //= q
        return digits

    def evaluate(coefs, a):
        val = 0
        for coef in reversed(coefs):
            val = (val * a + coef) % q
        return val

    own = coefficients(color)
    others = [coefficients(c) for c in out_neighbor_colors]
    for a in range(q):
        mine = evaluate(own, a)
        if all(evaluate(coefs, a) != mine for coefs in others):
            return a * q + mine
    raise AssertionError("no distinguishing point found")


def oracle_linial(n, out_lists, bound, initial_colors=None, initial_palette=None,
                  max_rounds=64):
    """Cover-free rounds to the fixed point; vertex v avoids out_lists[v]."""
    if initial_colors is None:
        colors, palette = list(range(n)), max(n, 2)
    else:
        colors = list(initial_colors)
        palette = initial_palette if initial_palette is not None else max(colors) + 1
    rounds = 0
    while rounds < max_rounds and palette > 2:
        family = choose_family(palette, bound)
        if family.target_colors >= palette:
            break
        old = colors
        colors = [
            oracle_reduce_color(family, old[v], [old[w] for w in out_lists[v]], bound)
            for v in range(n)
        ]
        palette = family.target_colors
        rounds += 1
    return colors, palette, rounds


def oracle_kw(graph, colors, max_degree, palette=None):
    """Kuhn-Wattenhofer with one Python set per mover per sub-round."""
    delta_plus_1 = max_degree + 1
    colors = list(colors)
    m = palette if palette is not None else max(colors, default=0) + 1
    if any(not 0 <= c < m for c in colors):
        raise ValueError("colors outside declared palette")
    rounds = 0
    while m > delta_plus_1:
        block = 2 * delta_plus_1
        for j in range(delta_plus_1):
            new_colors = list(colors)
            for v in graph.vertices():
                c = colors[v]
                base = (c // block) * block
                if c - base == delta_plus_1 + j:
                    taken = {
                        colors[int(w)] for w in graph.neighbors(v)
                        if base <= colors[int(w)] < base + delta_plus_1
                    }
                    new_colors[v] = next(
                        cand for cand in range(base, base + delta_plus_1)
                        if cand not in taken
                    )
            colors = new_colors
            rounds += 1
        colors = [(c // block) * delta_plus_1 + (c % block) for c in colors]
        num_blocks = -(-m // block)
        m = num_blocks * delta_plus_1
        if num_blocks == 1:
            m = min(m, delta_plus_1)
    return colors, m, rounds


def oracle_orient(graph, partition):
    """Out-neighbor lists: (layer, id) rises along every oriented edge."""
    out = [[] for _ in range(graph.num_vertices)]
    for v in graph.vertices():
        lay_v = partition.layer(v)
        if lay_v == INFINITY:
            raise ValueError(f"vertex {v} is unlayered")
        for w in graph.neighbors(v):
            w = int(w)
            if (partition.layer(w), w) > (lay_v, v):
                out[v].append(w)
    return out


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


@st.composite
def graphs(draw):
    kind = draw(st.sampled_from(["gnm", "pa", "forests", "star"]))
    n = draw(st.integers(1, 80))
    seed = draw(st.integers(0, 2**31))
    if kind == "gnm":
        m = draw(st.integers(0, min(3 * n, n * (n - 1) // 2)))
        return random_gnm(n, m, seed)
    if kind == "pa":
        return preferential_attachment(n, draw(st.integers(1, 4)), seed)
    if kind == "forests":
        return union_of_random_forests(n, draw(st.integers(1, 4)), seed)
    return star_graph(n)


@st.composite
def layered(draw):
    """A graph plus a complete partition with random layers."""
    graph = draw(graphs())
    layers = draw(st.lists(
        st.integers(0, 3), min_size=graph.num_vertices,
        max_size=graph.num_vertices,
    ))
    return graph, PartialBetaPartition(dict(enumerate(layers)))


betas = st.integers(1, 40)


@st.composite
def initial_colorings(draw, n):
    """None (vertex ids), or distinct colors from a palette of up to 10⁶,
    so that several reduction rounds run even on small graphs."""
    if draw(st.booleans()):
        return None, None
    palette = draw(st.integers(max(n, 2), 10**6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.choice(palette, size=n, replace=False).tolist(), palette


# ----------------------------------------------------------------------
# Bit-identity
# ----------------------------------------------------------------------


class TestMatchesOracle:
    @given(layered())
    @settings(max_examples=60, deadline=None)
    def test_orientation(self, case):
        graph, partition = case
        ori = orient_by_partition(graph, partition)
        assert ori.out_neighbors == oracle_orient(graph, partition)
        assert ori.max_out_degree() == max(map(len, ori.out_neighbors), default=0)

    @given(layered(), betas, st.data())
    @settings(max_examples=60, deadline=None)
    def test_arb_linial(self, case, beta, data):
        graph, partition = case
        ori = orient_by_partition(graph, partition)
        beta = max(beta, ori.max_out_degree(), 1)
        initial = data.draw(initial_colorings(graph.num_vertices))
        colors, palette, rounds = oracle_linial(
            graph.num_vertices, ori.out_neighbors, beta, *initial
        )
        for engine in TAIL_ENGINES:
            with tail(engine):
                res = arb_linial_coloring(ori, beta, *initial, engine=engine)
            assert res.colors.dtype == np.int64, engine
            np.testing.assert_array_equal(res.colors, colors, err_msg=engine)
            assert (res.num_colors, res.local_rounds) == (
                palette, rounds
            ), engine

    @given(graphs(), betas, st.data())
    @settings(max_examples=60, deadline=None)
    def test_linial_then_kw(self, graph, beta, data):
        # The Section 6.3 per-layer stage: Linial, then KW from its output.
        bound = max(beta, graph.max_degree())
        initial = data.draw(initial_colorings(graph.num_vertices))
        neighbors = [graph.neighbors(v).tolist() for v in graph.vertices()]
        colors, palette, rounds = oracle_linial(
            graph.num_vertices, neighbors, bound, *initial
        )
        want_kw = oracle_kw(graph, colors, bound, palette=palette)
        for engine in TAIL_ENGINES:
            with tail(engine):
                lin = linial_undirected_coloring(
                    graph, bound, *initial, engine=engine
                )
                kw = kw_color_reduction(
                    graph, lin.colors, bound, palette=lin.num_colors,
                    engine=engine,
                )
            assert lin.colors.dtype == kw.colors.dtype == np.int64, engine
            np.testing.assert_array_equal(lin.colors, colors, err_msg=engine)
            assert (lin.num_colors, lin.local_rounds) == (
                palette, rounds
            ), engine
            np.testing.assert_array_equal(
                kw.colors, want_kw[0], err_msg=engine
            )
            assert (kw.num_colors, kw.local_rounds) == want_kw[1:], engine

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_kw_from_ids(self, graph):
        delta = graph.max_degree()
        ids = list(range(graph.num_vertices))
        want = oracle_kw(graph, ids, delta)
        for engine in TAIL_ENGINES:
            with tail(engine):
                res = kw_color_reduction(graph, ids, delta, engine=engine)
            np.testing.assert_array_equal(res.colors, want[0], err_msg=engine)
            assert (res.num_colors, res.local_rounds) == want[1:], engine

    @given(st.integers(2, 500), betas, st.data())
    @settings(max_examples=60, deadline=None)
    def test_reduce_color(self, m, beta, data):
        family = choose_family(m, beta)
        color = data.draw(st.integers(0, m - 1))
        others = data.draw(st.lists(
            st.integers(0, m - 1).filter(lambda c: c != color), max_size=beta,
        ))
        want = oracle_reduce_color(family, color, others, beta)
        k = len(others)
        colors = np.array([color, *others])
        # Vertex 0 avoids vertices 1..k; they avoid nothing.
        out_star = whole_layer(
            star_graph(k + 1), csr=([0] + [k] * (k + 1), np.arange(1, k + 1))
        )
        for engine in TAIL_ENGINES:
            with tail(engine):
                got = family.reduce_colors(
                    colors, out_star, beta, engine=engine
                )
            assert int(got[0]) == want, engine
        assert family.reduce_color(color, others, beta) == want


# ----------------------------------------------------------------------
# Error paths
# ----------------------------------------------------------------------


class TestErrorPaths:
    """Both tail engines raise the same error on each bad input."""

    def test_out_degree_above_beta(self):
        graph = star_graph(12)
        # Every leaf in layer 1: the hub (layer 0) points at all 11.
        partition = PartialBetaPartition({0: 0, **{v: 1 for v in range(1, 12)}})
        ori = orient_by_partition(graph, partition)
        family = choose_family(100, 2)
        for engine in TAIL_ENGINES:
            with pytest.raises(ValueError, match="exceeds"):
                arb_linial_coloring(ori, 10, engine=engine)
            with pytest.raises(ValueError, match="more out-neighbors"):
                # A large palette, so that a reduction round runs at all.
                linial_undirected_coloring(
                    graph, 10, list(range(12)), 10**6, engine=engine
                )
            with pytest.raises(ValueError, match="more out-neighbors"):
                family.reduce_colors(
                    np.arange(4),
                    whole_layer(
                        star_graph(4), csr=([0, 3, 3, 3, 3], np.arange(1, 4))
                    ),
                    2, engine=engine,
                )

    def test_constraints_not_a_csr(self):
        family = choose_family(100, 3)
        for engine in TAIL_ENGINES:
            for offsets in ([0, 2, 2], [1, 2, 2, 2], [0, 2, 1, 2], [0, 2, 2, 3]):
                with pytest.raises(ValueError, match="not a CSR"):
                    family.reduce_colors(
                        np.array([5, 1, 4]),
                        whole_layer(star_graph(3), csr=(offsets, [1, 2])),
                        3, engine=engine,
                    )

    def test_colors_outside_the_palette(self):
        graph = random_gnm(30, 60, seed=4)
        delta = graph.max_degree()
        bad = list(range(30))
        bad[7] = 40
        ori = orient_by_partition(graph, PartialBetaPartition(dict.fromkeys(range(30), 0)))
        for engine in TAIL_ENGINES:
            with pytest.raises(ValueError, match="palette"):
                kw_color_reduction(graph, bad, delta, palette=30, engine=engine)
            with pytest.raises(ValueError, match="palette"):
                linial_undirected_coloring(
                    graph, delta, bad[:7] + [10**6] + bad[8:],
                    initial_palette=10**6, engine=engine,
                )
            with pytest.raises(ValueError, match="palette"):
                arb_linial_coloring(
                    ori, 30, bad, initial_palette=30, engine=engine
                )
            with pytest.raises(ValueError, match="palette"):
                kw_color_reduction(graph, [-1] + bad[1:], delta, engine=engine)

    def test_improper_input_coloring(self):
        graph = random_gnm(30, 60, seed=5)
        delta = graph.max_degree()
        flat = [0] * 30
        ori = orient_by_partition(graph, PartialBetaPartition(dict.fromkeys(range(30), 0)))
        family = choose_family(100, 3)
        for engine in TAIL_ENGINES:
            with pytest.raises(AssertionError, match="no distinguishing point"):
                linial_undirected_coloring(
                    graph, delta, flat, initial_palette=10**6, engine=engine
                )
            with pytest.raises(AssertionError, match="no distinguishing point"):
                arb_linial_coloring(
                    ori, delta, flat, initial_palette=10**6, engine=engine
                )
            with pytest.raises(AssertionError, match="no distinguishing point"):
                family.reduce_colors(
                    np.array([5, 1, 5]),
                    whole_layer(star_graph(3), csr=([0, 2, 2, 2], [1, 2])),
                    3, engine=engine,
                )
        with pytest.raises(AssertionError, match="no distinguishing point"):
            family.reduce_color(5, [1, 5], 3)

    def test_kw_degree_above_its_bound(self):
        # K_4 with Δ claimed 1: color 2 moves into block 0's lower half
        # {0, 1}, which its neighbors 0 and 1 both hold.
        graph = Graph.from_arrays(4, np.column_stack(np.triu_indices(4, k=1)))
        for engine in TAIL_ENGINES:
            with pytest.raises(AssertionError, match="no free color"):
                kw_color_reduction(graph, [0, 1, 2, 3], 1, engine=engine)
            with pytest.raises(ValueError, match="max_degree"):
                kw_color_reduction(graph, [0, 1, 2, 3], -1, engine=engine)
            with pytest.raises(ValueError, match="one color per vertex"):
                kw_color_reduction(graph, [0, 1, 2], 3, engine=engine)
            # An orientation's CSR: the C loop would read out-arcs only.
            directed = whole_layer(graph, csr=([0, 3, 5, 6, 6], [1, 2, 3, 2, 3, 3]))
            with pytest.raises(ValueError, match="its graph's CSR"):
                kw_color_reduction(directed, [0, 1, 2, 3], 3, engine=engine)

    def test_unlayered_vertex(self):
        graph = random_gnm(10, 20, seed=6)
        partial = PartialBetaPartition(dict.fromkeys(range(9), 0))
        with pytest.raises(ValueError, match="vertex 9 is unlayered"):
            orient_by_partition(graph, partial)
