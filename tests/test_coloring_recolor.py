"""Tests for cross-layer greedy recoloring (Section 6.3)."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from tail_engines import TAIL_ENGINES, tail

from repro.coloring import recolor
from repro.core import native
from repro.coloring.recolor import (
    greedy_recolor_by_layers,
    recoloring_ampc_rounds,
)
from repro.graphs.generators import path_graph, union_of_random_forests
from repro.graphs.graph import Graph
from repro.graphs.validation import is_proper_coloring
from repro.partition.beta_partition import PartialBetaPartition
from repro.partition.induced import natural_beta_partition


def _per_layer_greedy(graph, partition, beta):
    """A simple proper-within-layer initial coloring for tests."""
    colors = [0] * graph.num_vertices
    for v in sorted(graph.vertices()):
        taken = {
            colors[int(w)]
            for w in graph.neighbors(v)
            if partition.layer(int(w)) == partition.layer(v) and int(w) < v
        }
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return colors


# Palette widths around the int64 mask limit: on the numpy tail, β+1 <= 62
# colors take the class-at-a-time pass, wider palettes the Python-int
# walk; the compiled walk takes them all.
CLASS_BETAS = (6, 52, 53, 61)
WALK_BETAS = (62, 63, 100)


def _forests_plus_cliques(seed, beta):
    """Two random forests beside two disjoint cliques K_{β+1}.

    Clique degrees are exactly β, so the natural β-partition is complete.
    Each clique needs all β+1 colors, which pushes picks into the
    palette's top bit under either ``pick``, and matching vertices of the
    two cliques share an initial color, so those classes have two members.
    """
    forests = union_of_random_forests(45, 2, seed=seed)
    size = beta + 1
    clique = np.column_stack(np.triu_indices(size, k=1))
    edges = (forests.edge_array(), clique + 45, clique + 45 + size)
    return Graph.from_arrays(45 + 2 * size, np.concatenate(edges))


class TestRecolor:
    @given(st.integers(min_value=0, max_value=2**31), st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_proper_with_beta_plus_one_colors(self, seed, alpha):
        g = union_of_random_forests(70, alpha, seed=seed)
        beta = math.ceil(3 * alpha)
        p = natural_beta_partition(g, beta)
        initial = _per_layer_greedy(g, p, beta)
        res = greedy_recolor_by_layers(g, p, initial, beta)
        assert is_proper_coloring(g, res.colors)
        assert res.num_colors <= beta + 1
        assert all(0 <= c <= beta for c in res.colors)

    def test_lowest_pick_variant(self):
        g = union_of_random_forests(50, 2, seed=1)
        beta = 6
        p = natural_beta_partition(g, beta)
        initial = _per_layer_greedy(g, p, beta)
        res = greedy_recolor_by_layers(g, p, initial, beta, pick="lowest")
        assert is_proper_coloring(g, res.colors)
        assert res.num_colors <= beta + 1

    def test_order_processes_layers_top_down(self):
        g = union_of_random_forests(40, 2, seed=2)
        beta = 6
        p = natural_beta_partition(g, beta)
        initial = _per_layer_greedy(g, p, beta)
        res = greedy_recolor_by_layers(g, p, initial, beta)
        layers_in_order = [p.layer(v) for v in res.processed_order]
        assert layers_in_order == sorted(layers_in_order, reverse=True)

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.sampled_from(CLASS_BETAS + WALK_BETAS),
    )
    @settings(max_examples=10, deadline=None)
    @example(seed=1, beta=6)
    @example(seed=2, beta=52)
    @example(seed=3, beta=53)
    @example(seed=4, beta=61)
    @example(seed=5, beta=62)
    @example(seed=6, beta=63)
    @example(seed=7, beta=100)
    def test_bitmap_palettes_match_blocked_set_reference(self, seed, beta):
        """Every tail picks the same colors as neighbor sets.

        The compiled walk serves every β.  On the numpy tail, β+1 <= 62
        runs the class-at-a-time pass and wider palettes must take the
        Python-int walk.  All equal the vertex-by-vertex walk.
        """
        g = _forests_plus_cliques(seed, beta)
        p = natural_beta_partition(g, beta)
        initial = _per_layer_greedy(g, p, beta)
        for engine, pick in itertools.product(
            TAIL_ENGINES, ("highest", "lowest")
        ):
            with pytest.MonkeyPatch.context() as patch:
                if engine == "batched" and beta in WALK_BETAS:
                    patch.setattr(recolor, "_recolor_by_class", None)
                with tail(engine):
                    res = greedy_recolor_by_layers(
                        g, p, initial, beta, pick=pick, engine=engine
                    )
            walk = recolor._recolor_walk(g, res.processed_order, beta, pick)
            np.testing.assert_array_equal(res.colors, walk)
            assert res.num_colors == len(set(walk))
            assert is_proper_coloring(g, res.colors)
            # The cliques force picks into the palette's top bit.
            assert max(res.colors) == beta
            # Reference: the seed per-vertex blocked-set construction.
            final: list[int | None] = [None] * g.num_vertices
            palette = (
                range(beta, -1, -1) if pick == "highest" else range(beta + 1)
            )
            for v in res.processed_order:
                blocked = {
                    final[int(w)]
                    for w in g.neighbors(v)
                    if final[int(w)] is not None
                }
                final[v] = next(c for c in palette if c not in blocked)
            np.testing.assert_array_equal(res.colors, final)

    def test_exhausted_palette_asserts_on_both_paths(self):
        # K_4 in one layer has no proper 3-coloring: the compiled walk,
        # the class pass and the Python-int walk all trip the
        # palette-exhausted assertion.
        g = Graph.from_arrays(4, np.column_stack(np.triu_indices(4, k=1)))
        p = PartialBetaPartition({v: 0 for v in range(4)})
        for engine, pick in itertools.product(
            TAIL_ENGINES, ("highest", "lowest")
        ):
            with pytest.raises(AssertionError, match="palette exhausted"):
                greedy_recolor_by_layers(
                    g, p, [0, 1, 2, 3], beta=2, pick=pick, engine=engine
                )
        if native.available():
            offsets, targets = g.csr()
            assert native.recolor_walk(
                offsets, targets, np.arange(4), 2, lowest=False
            ) is None
        with pytest.raises(AssertionError, match="palette exhausted"):
            recolor._recolor_walk(g, [3, 2, 1, 0], 2, "highest")

    @pytest.mark.skipif(not native.available(), reason="kernel not loaded")
    def test_huge_beta_on_the_compiled_walk(self):
        # β = 10^9: the compiled walk and the color count stay within the
        # degree-sized window, so the call allocates well under a
        # megabyte (a count sized by the colors' values would take 8 GB
        # under "highest").  Above the max degree a "highest" walk's
        # picks sit a fixed distance below β, and a "lowest" walk's do not
        # depend on β, so β = 70 on the Python-int walk is the oracle.
        g = union_of_random_forests(60, 3, seed=8)
        p = natural_beta_partition(g, 6)
        initial = _per_layer_greedy(g, p, 6)
        huge, small = 10**9, 70
        for pick, shift in (("highest", huge - small), ("lowest", 0)):
            tracemalloc.start()
            try:
                with tail("compiled"):
                    got = greedy_recolor_by_layers(
                        g, p, initial, beta=huge, pick=pick, engine="compiled"
                    )
                __, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, pick
            want = greedy_recolor_by_layers(
                g, p, initial, beta=small, pick=pick, engine="batched"
            )
            np.testing.assert_array_equal(
                got.colors, want.colors + shift, err_msg=pick
            )
            assert got.num_colors == want.num_colors
            np.testing.assert_array_equal(
                got.processed_order, want.processed_order
            )

    def test_unknown_pick_rejected(self):
        g = path_graph(3)
        p = PartialBetaPartition({0: 0, 1: 0, 2: 0})
        with pytest.raises(ValueError, match="pick"):
            greedy_recolor_by_layers(g, p, [0, 1, 0], beta=2, pick="middle")

    def test_initial_colors_may_exceed_beta_palette(self):
        # Section 6.4 variant: initial palette 4*beta is allowed.
        g = path_graph(6)
        p = PartialBetaPartition({v: 0 for v in range(6)})
        initial = [10, 20, 10, 20, 10, 20]
        res = greedy_recolor_by_layers(g, p, initial, beta=2)
        assert is_proper_coloring(g, res.colors)
        assert res.num_colors <= 3

    def test_unlayered_vertex_rejected(self):
        g = path_graph(3)
        p = PartialBetaPartition({0: 0, 1: 0})
        with pytest.raises(ValueError):
            greedy_recolor_by_layers(g, p, [0, 1, 0], beta=2)

    def test_improper_within_layer_rejected(self):
        g = path_graph(3)
        p = PartialBetaPartition({0: 0, 1: 0, 2: 0})
        with pytest.raises(ValueError):
            greedy_recolor_by_layers(g, p, [0, 0, 1], beta=2)

    def test_wrong_length_rejected(self):
        g = path_graph(3)
        p = PartialBetaPartition({0: 0, 1: 0, 2: 0})
        with pytest.raises(ValueError):
            greedy_recolor_by_layers(g, p, [0, 1], beta=2)

    def test_callers_same_layer_mask_serves_the_conflict_check(self):
        # The pipeline hands over its same-layer edge mask: the result is
        # the one computed without it, a within-layer conflict is still
        # caught, and a mask of the wrong shape is rejected.
        g = path_graph(4)
        p = PartialBetaPartition({0: 1, 1: 0, 2: 0, 3: 0})
        same = np.array([False, True, True])  # edges (0,1), (1,2), (2,3)
        want = greedy_recolor_by_layers(g, p, [0, 0, 1, 0], beta=2)
        got = greedy_recolor_by_layers(
            g, p, [0, 0, 1, 0], beta=2, same_layer=same
        )
        np.testing.assert_array_equal(got.colors, want.colors)
        np.testing.assert_array_equal(
            got.processed_order, want.processed_order
        )
        with pytest.raises(ValueError, match="not proper within layer"):
            greedy_recolor_by_layers(
                g, p, [0, 0, 0, 1], beta=2, same_layer=same
            )
        with pytest.raises(ValueError, match="same_layer"):
            greedy_recolor_by_layers(
                g, p, [0, 0, 1, 0], beta=2, same_layer=same[:2]
            )


class TestRoundFormula:
    def test_zero_layers(self):
        assert recoloring_ampc_rounds(0, 5, 0.5, 100) == 0

    def test_more_layers_more_rounds(self):
        few = recoloring_ampc_rounds(4, 5, 0.5, 1000)
        many = recoloring_ampc_rounds(40, 5, 0.5, 1000)
        assert many >= few

    def test_larger_beta_more_rounds(self):
        small = recoloring_ampc_rounds(20, 3, 0.5, 10**6)
        large = recoloring_ampc_rounds(20, 300, 0.5, 10**6)
        assert large >= small
