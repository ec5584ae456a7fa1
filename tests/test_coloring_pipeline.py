"""Tests for the end-to-end Theorem 1.3 pipelines."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tail_engines import TAIL_ENGINES, tail

from repro.coloring.pipeline import (
    PipelineResult,
    _finish,
    color_graph,
    coloring_alpha_squared,
    coloring_alpha_squared_eps,
    coloring_large_alpha,
    coloring_two_plus_eps,
)
from repro.graphs.generators import (
    grid_2d,
    preferential_attachment,
    random_gnm,
    random_tree,
    union_of_random_forests,
)
from repro.graphs.graph import Graph
from repro.graphs.validation import is_proper_coloring


class TestAlphaSquaredEps:
    def test_proper_and_bounded(self):
        alpha = 3
        g = union_of_random_forests(100, alpha, seed=1)
        res = coloring_alpha_squared_eps(g, alpha, eps=1.0)
        assert is_proper_coloring(g, res.colors)
        # O(alpha^{2+eps}) with the beta = max(a^{1+e}, 2a+1) floor.
        assert res.palette_bound <= 16 * (res.beta + 1) ** 2

    def test_trivial_edgeless(self):
        res = coloring_alpha_squared_eps(Graph.from_edges(4, []), 1)
        assert res.num_colors == 1
        assert res.total_rounds == 0


class TestAlphaSquared:
    @given(st.integers(min_value=0, max_value=2**31), st.integers(1, 3))
    @settings(max_examples=8, deadline=None)
    def test_proper_with_quadratic_palette(self, seed, alpha):
        g = union_of_random_forests(80, alpha, seed=seed)
        res = coloring_alpha_squared(g, alpha, eps=1.0)
        assert is_proper_coloring(g, res.colors)
        assert res.palette_bound <= 16 * (res.beta + 1) ** 2
        assert res.beta == max(math.ceil(3 * alpha), 2)

    def test_round_breakdown_sums(self):
        g = union_of_random_forests(60, 2, seed=2)
        res = coloring_alpha_squared(g, 2)
        assert res.total_rounds == res.partition_rounds + res.coloring_rounds


class TestTwoPlusEps:
    @given(st.integers(min_value=0, max_value=2**31), st.integers(1, 3))
    @settings(max_examples=6, deadline=None)
    def test_headline_color_bound(self, seed, alpha):
        """The paper's flagship: at most (2+eps)*alpha + 1 colors."""
        g = union_of_random_forests(70, alpha, seed=seed)
        res = coloring_two_plus_eps(g, alpha, eps=1.0)
        assert is_proper_coloring(g, res.colors)
        assert res.num_colors <= res.beta + 1
        assert res.beta == max(math.ceil(3 * alpha), 2)

    def test_mpc_initializer_variant(self):
        g = union_of_random_forests(60, 2, seed=3)
        res = coloring_two_plus_eps(g, 2, initial_method="mpc")
        assert is_proper_coloring(g, res.colors)
        assert res.num_colors <= res.beta + 1
        assert res.details["initial_method"] == "mpc"

    def test_unknown_method_rejected(self):
        g = random_tree(10, seed=4)
        with pytest.raises(ValueError):
            coloring_two_plus_eps(g, 1, initial_method="bogus")

    def test_tree_four_colors_with_eps_one(self):
        # alpha=1, eps=1: (2+1)*1 + 1 = 4 colors max.
        g = random_tree(120, seed=5)
        res = coloring_two_plus_eps(g, 1, eps=1.0)
        assert res.num_colors <= 4

    def test_grid(self):
        g = grid_2d(7, 7)
        res = coloring_two_plus_eps(g, 2, eps=1.0)
        assert is_proper_coloring(g, res.colors)
        assert res.num_colors <= 7


class TestLargeAlpha:
    def test_proper_with_fresh_palettes(self):
        alpha = 2
        g = union_of_random_forests(60, alpha, seed=6)
        res = coloring_large_alpha(g, alpha, eps=1.0)
        assert is_proper_coloring(g, res.colors)
        assert res.num_colors <= res.palette_bound

    def test_layers_use_disjoint_ranges(self):
        g = union_of_random_forests(60, 2, seed=7)
        res = coloring_large_alpha(g, 2, eps=1.0)
        # cross-layer edges can never be monochromatic by construction;
        # properness already checked, but palette must cover all colors.
        assert max(res.colors) < res.palette_bound


class TestColorGraphDispatcher:
    def test_auto_uses_degeneracy(self):
        g = preferential_attachment(80, 2, seed=8)
        res = color_graph(g)
        assert is_proper_coloring(g, res.colors)
        assert res.variant == "two_plus_eps"

    @pytest.mark.parametrize(
        "variant",
        ["two_plus_eps", "alpha_squared", "alpha_squared_eps", "large_alpha"],
    )
    def test_all_variants_dispatch(self, variant):
        g = union_of_random_forests(40, 2, seed=9)
        res = color_graph(g, variant=variant, alpha=2)
        assert is_proper_coloring(g, res.colors)
        assert res.variant == variant

    def test_unknown_variant_rejected(self):
        g = random_tree(10, seed=10)
        with pytest.raises(ValueError):
            color_graph(g, variant="nope")

    def test_explicit_alpha_overrides_estimate(self):
        g = random_tree(50, seed=11)
        res = color_graph(g, variant="two_plus_eps", alpha=1)
        assert res.alpha == 1
        assert res.num_colors <= 4


class TestFinishChecks:
    def _result(self, colors, palette_bound):
        return PipelineResult(
            variant="probe", colors=colors, num_colors=0,
            palette_bound=palette_bound, beta=1, alpha=1, eps=1.0,
            partition_rounds=0, coloring_rounds=0, num_layers=1,
        )

    def test_palette_bound_is_checked(self):
        # A proper 3-coloring of a path, against a 2-color bound.
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(AssertionError, match="palette bound 2"):
            _finish(g, self._result([0, 1, 2], 2))
        res = _finish(g, self._result([0, 1, 2], 3))
        assert res.num_colors == 3

    def test_improper_coloring_is_checked(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(AssertionError, match="improper"):
            _finish(g, self._result([0, 0], 2))


PIPELINES = [
    coloring_alpha_squared_eps,
    coloring_alpha_squared,
    coloring_two_plus_eps,
    coloring_large_alpha,
]


class TestParameterChecks:
    """Theorem 1.3 needs ε > 0 and α >= 1; bad values fail up front."""

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_nonpositive_eps_rejected(self, pipeline):
        g = union_of_random_forests(30, 2, seed=3)
        for eps in (0.0, -1.0):
            with pytest.raises(ValueError, match="eps must be > 0"):
                pipeline(g, 2, eps=eps)
        with pytest.raises(ValueError, match="eps must be > 0"):
            pipeline(Graph.from_edges(3, []), 1, eps=0.0)

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_alpha_below_one_rejected_only_with_edges(self, pipeline):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        for alpha in (0, -2):
            with pytest.raises(ValueError, match="alpha must be >= 1"):
                pipeline(g, alpha)
        res = pipeline(Graph.from_edges(4, []), 0)
        np.testing.assert_array_equal(res.colors, [0, 0, 0, 0])
        assert res.partition_rounds == 0

    def test_color_graph_rejects_alpha_zero(self):
        g = union_of_random_forests(50, 2, seed=4)
        with pytest.raises(ValueError, match="alpha must be >= 1"):
            color_graph(g, alpha=0)


class TestTailEngines:
    """The coloring tail on the compiled kernel's C loops and on the
    numpy passes gives the same colors and round counts."""

    @pytest.mark.parametrize("variant", ["two_plus_eps", "alpha_squared"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_gnm(600, 1_200, seed=7),
            lambda: preferential_attachment(400, 3, seed=7),
            lambda: union_of_random_forests(500, 3, seed=7),
        ],
        ids=["gnm", "pa", "forests"],
    )
    def test_compiled_equals_batched(self, make, variant):
        g = make()
        results = {}
        for engine in TAIL_ENGINES:
            with tail(engine):
                results[engine] = color_graph(
                    g, variant=variant, workers=1, engine=engine
                )
        got, want = results["compiled"], results["batched"]
        np.testing.assert_array_equal(got.colors, want.colors)
        for field in ("num_colors", "palette_bound", "num_layers",
                      "partition_rounds", "coloring_rounds"):
            assert getattr(got, field) == getattr(want, field), field
        for key in ("init_local_rounds", "init_ampc_rounds",
                    "linial_local_rounds"):
            assert got.details.get(key) == want.details.get(key), key
