"""Tests for coloring and forest validators."""

from __future__ import annotations

import numpy as np

from repro.graphs.generators import cycle_graph, path_graph
from repro.graphs.validation import (
    count_colors,
    is_forest,
    is_proper_coloring,
)


class TestProperColoring:
    def test_proper(self):
        g = path_graph(4)
        assert is_proper_coloring(g, [0, 1, 0, 1])

    def test_improper(self):
        g = path_graph(3)
        assert not is_proper_coloring(g, [0, 0, 1])

    def test_dict_colors(self):
        g = path_graph(3)
        assert is_proper_coloring(g, {0: 0, 1: 1, 2: 0})
        assert not is_proper_coloring(g, {0: 0, 1: 1})  # missing vertex

    def test_count_colors(self):
        g = cycle_graph(4)
        assert count_colors(g, [0, 1, 0, 1]) == 2

    def test_count_colors_of_arrays_whatever_their_values(self):
        # Arrays count in O(n) memory: a bincount over a span of at most
        # n colors (here a window just below 10^9), a sort over a wider
        # one; both agree with the set count.  Entries past n are ignored.
        g = path_graph(5)
        cases = [
            [10**9 - 3, 10**9, 10**9 - 3, 10**9 - 1, 10**9],
            [0, 10**12, 7, 10**12, -(2**62)],
            [3, 3, 3, 3, 3, 99],
        ]
        for colors in cases:
            arr = np.array(colors, dtype=np.int64)
            assert count_colors(g, arr) == len(set(colors[:5]))
        assert count_colors(path_graph(0), np.array([], dtype=np.int64)) == 0


class TestForestCheck:
    def test_forest(self):
        assert is_forest(4, [(0, 1), (1, 2)])

    def test_cycle_not_forest(self):
        assert not is_forest(3, [(0, 1), (1, 2), (2, 0)])

    def test_empty(self):
        assert is_forest(3, [])

