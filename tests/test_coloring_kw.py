"""Tests for Kuhn-Wattenhofer color reduction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.kuhn_wattenhofer import kw_color_reduction
from repro.coloring.greedy import greedy_coloring
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_gnm,
    union_of_random_forests,
)
from repro.graphs.validation import is_proper_coloring


class TestKWReduction:
    def test_path_down_to_three(self):
        g = path_graph(20)
        initial = list(range(20))  # trivial n-coloring
        res = kw_color_reduction(g, initial, max_degree=2)
        assert is_proper_coloring(g, res.colors)
        assert res.num_colors == 3
        assert max(res.colors) < 3

    def test_clique_needs_all_colors(self):
        g = complete_graph(5)
        res = kw_color_reduction(g, list(range(5)), max_degree=4)
        assert is_proper_coloring(g, res.colors)
        assert len(set(res.colors)) == 5

    def test_already_small_palette_untouched(self):
        g = cycle_graph(6)
        colors = [0, 1, 0, 1, 0, 1]
        res = kw_color_reduction(g, colors, max_degree=2, palette=3)
        np.testing.assert_array_equal(res.colors, colors)
        assert res.local_rounds == 0

    def test_invalid_colors_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            kw_color_reduction(g, [0, 5, 1], max_degree=2, palette=3)

    def test_round_bound(self):
        # O(Delta * log(m / Delta)) rounds.
        g = union_of_random_forests(100, 2, seed=1)
        delta = g.max_degree()
        res = kw_color_reduction(g, list(range(100)), max_degree=delta)
        import math

        passes = math.ceil(math.log2(100 / (delta + 1))) + 1
        assert res.local_rounds <= (delta + 1) * passes

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_random_graphs_reach_delta_plus_one(self, seed):
        g = random_gnm(50, 90, seed=seed)
        delta = g.max_degree()
        res = kw_color_reduction(g, list(range(50)), max_degree=delta)
        assert is_proper_coloring(g, res.colors)
        assert res.num_colors <= delta + 1

    def test_starting_from_proper_non_trivial_coloring(self):
        g = random_gnm(60, 100, seed=3)
        base = greedy_coloring(g)
        palette = max(base) + 1
        delta = g.max_degree()
        res = kw_color_reduction(g, base, max_degree=delta, palette=palette)
        assert is_proper_coloring(g, res.colors)
        assert res.num_colors <= delta + 1
