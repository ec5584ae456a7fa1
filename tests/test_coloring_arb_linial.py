"""Tests for Arb-Linial coloring on low-out-degree orientations."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tail_engines import TAIL_ENGINES

from repro.coloring.arb_linial import (
    ampc_rounds_for_simulation,
    arb_linial_coloring,
    linial_undirected_coloring,
)
from repro.core.orientation import Orientation, orient_by_partition
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    union_of_random_forests,
)
from repro.graphs.validation import is_proper_coloring
from repro.partition.induced import natural_beta_partition


def _setup(alpha: int, seed: int, n: int = 80):
    g = union_of_random_forests(n, alpha, seed=seed)
    beta = math.ceil(3 * alpha)
    p = natural_beta_partition(g, beta)
    return g, beta, orient_by_partition(g, p)


class TestArbLinial:
    @given(st.integers(min_value=0, max_value=2**31), st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_proper_and_quadratic_palette(self, seed, alpha):
        g, beta, ori = _setup(alpha, seed)
        res = arb_linial_coloring(ori, beta)
        assert is_proper_coloring(g, res.colors)
        assert all(0 <= c < res.num_colors for c in res.colors)
        # O(beta^2): the final palette is q^2 with q = O(beta).
        assert res.num_colors <= 16 * (beta + 1) ** 2

    def test_log_star_rounds(self):
        g, beta, ori = _setup(2, seed=1, n=200)
        res = arb_linial_coloring(ori, beta)
        assert res.local_rounds <= 6  # log* flavored

    def test_rejects_under_reported_beta(self):
        g, beta, ori = _setup(2, seed=2)
        with pytest.raises(ValueError):
            arb_linial_coloring(ori, 1)

    def test_initial_colors_respected(self):
        g, beta, ori = _setup(1, seed=3)
        start = arb_linial_coloring(ori, beta)
        res = arb_linial_coloring(
            ori, beta, initial_colors=start.colors, initial_palette=start.num_colors
        )
        assert is_proper_coloring(g, res.colors)
        assert res.num_colors <= start.num_colors

    def test_invalid_initial_colors_rejected(self):
        g, beta, ori = _setup(1, seed=4)
        with pytest.raises(ValueError):
            arb_linial_coloring(ori, beta, initial_colors=[5] * g.num_vertices,
                                initial_palette=3)

    @pytest.mark.parametrize("target", [-300, -1, 300, 10**6])
    @pytest.mark.parametrize("engine", TAIL_ENGINES)
    def test_target_outside_the_vertices_rejected(self, target, engine):
        # A negative target used to wrap around to another vertex (an
        # improper coloring, silently) and one past n to raise
        # IndexError; both now fail the orientation's layer build.
        g = path_graph(300)
        outs = [[v + 1] for v in range(299)] + [[]]
        outs[10] = [target]
        with pytest.raises(ValueError, match=r"targets must lie in \[0, 300\)"):
            arb_linial_coloring(Orientation(g, outs), 2, engine=engine)

    def test_schedule_palettes_decrease(self):
        g, beta, ori = _setup(2, seed=5, n=300)
        res = arb_linial_coloring(ori, beta)
        palettes = [fam.source_colors for fam in res.schedule]
        assert palettes == sorted(palettes, reverse=True)


class TestLinialUndirected:
    def test_proper_on_cycle(self):
        g = cycle_graph(20)
        res = linial_undirected_coloring(g, 2)
        assert is_proper_coloring(g, res.colors)

    def test_proper_on_clique(self):
        g = complete_graph(6)
        res = linial_undirected_coloring(g, 5)
        assert is_proper_coloring(g, res.colors)

    def test_edgeless_single_color(self):
        from repro.graphs.graph import Graph

        g = Graph.from_edges(5, [])
        res = linial_undirected_coloring(g, 0)
        np.testing.assert_array_equal(res.colors, [0] * 5)

    @pytest.mark.parametrize("engine", TAIL_ENGINES)
    def test_colors_outside_the_declared_palette_rejected(self, engine):
        # Both Linial entry points share the palette check: colors 5 in
        # a declared palette of 3 used to come back as they went in.
        bad = [0, 5, 0, 5, 0, 5]
        with pytest.raises(ValueError, match="declared palette"):
            linial_undirected_coloring(
                path_graph(6), 2, initial_colors=bad, initial_palette=3,
                engine=engine,
            )
        ori = Orientation(path_graph(6), [[v + 1] for v in range(5)] + [[]])
        with pytest.raises(ValueError, match="declared palette"):
            arb_linial_coloring(
                ori, 1, initial_colors=bad, initial_palette=3, engine=engine
            )

    def test_empty_initial_colors_on_no_vertices(self):
        g = path_graph(0)
        for res in (
            linial_undirected_coloring(g, 2, initial_colors=[]),
            arb_linial_coloring(Orientation(g, []), 1, initial_colors=[]),
        ):
            assert res.colors.size == 0 and res.local_rounds == 0

    def test_quadratic_palette(self):
        g = union_of_random_forests(150, 2, seed=6)
        delta = g.max_degree()
        res = linial_undirected_coloring(g, delta)
        assert is_proper_coloring(g, res.colors)
        assert res.num_colors <= 16 * (delta + 1) ** 2


class TestSimulationRounds:
    def test_zero_local_rounds(self):
        assert ampc_rounds_for_simulation(0, 5, 100) == 0

    def test_big_space_collapses_to_one_round(self):
        assert ampc_rounds_for_simulation(5, 2, 2**40) == 1

    def test_small_space_one_per_round(self):
        assert ampc_rounds_for_simulation(7, 10, 10) == 7

    def test_intermediate(self):
        # fanout 4, space 64: 3 LOCAL rounds per AMPC round.
        assert ampc_rounds_for_simulation(9, 4, 64) == 3

    def test_fanout_one(self):
        assert ampc_rounds_for_simulation(5, 1, 10) == 1
