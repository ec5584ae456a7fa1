"""End-to-end integration tests crossing all subsystems."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.coloring.pipeline import color_graph, coloring_two_plus_eps
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.core.guessing import beta_partition_unknown_alpha
from repro.core.orientation import orient_by_partition
from repro.graphs.arboricity import exact_arboricity, forest_partition
from repro.graphs.generators import (
    grid_2d,
    hypercube,
    preferential_attachment,
    skewed_dependency_gadget,
    union_of_random_forests,
)
from repro.graphs.validation import is_forest, is_proper_coloring
from repro.lca.partial_partition_lca import PartialPartitionLCA
from repro.partition.beta_partition import INFINITY


class TestFullStackOnWorkloads:
    """Exact arboricity -> Theorem 1.2 -> orientation -> Theorem 1.3(3),
    every intermediate certificate checked."""

    @pytest.mark.parametrize(
        "make_graph",
        [
            lambda: union_of_random_forests(90, 2, seed=41),
            lambda: grid_2d(9, 9),
            lambda: hypercube(5),
            lambda: preferential_attachment(90, 2, seed=42),
        ],
        ids=["forests", "grid", "hypercube", "pref-attach"],
    )
    def test_pipeline_with_exact_alpha(self, make_graph):
        g = make_graph()
        alpha = exact_arboricity(g)
        # Certificate: alpha forests cover the edges.
        forests = forest_partition(g, alpha)
        assert forests is not None
        for f in forests:
            assert is_forest(g.num_vertices, f)

        beta = math.ceil(3 * alpha)
        outcome = beta_partition_ampc(g, beta)
        assert outcome.partition.is_valid(g, beta)
        assert not outcome.partition.is_partial(g.vertices())

        orientation = orient_by_partition(g, outcome.partition)
        assert orientation.max_out_degree() <= beta
        assert orientation.is_acyclic()

        result = coloring_two_plus_eps(g, alpha, eps=1.0)
        assert is_proper_coloring(g, result.colors)
        assert result.num_colors <= beta + 1


class TestLCAIntoAMPCConsistency:
    def test_standalone_lca_merge_matches_first_ampc_round(self):
        """The AMPC algorithm's first round assigns exactly the vertices
        the standalone min-merged LCA certifies (same x, beta)."""
        g = union_of_random_forests(70, 2, seed=43)
        beta, x = 6, 49
        lca = PartialPartitionLCA(g, x=x, beta=beta)
        merged, __ = lca.query_all()
        outcome = beta_partition_ampc(g, beta, x=x)
        hist = outcome.unlayered_per_round
        expected_after_first = sum(
            1 for v in g.vertices() if merged.layer(v) == INFINITY
        )
        if len(hist) > 1:
            assert hist[1] == expected_after_first
        else:
            assert expected_after_first == 0


class TestGadgetEndToEnd:
    def test_gadget_partition_and_coloring(self):
        beta = 3
        g, chain = skewed_dependency_gadget(beta, 3, fan=8, decoy_fan=6)
        outcome = beta_partition_ampc(g, beta)
        assert outcome.partition.is_valid(g, beta)
        result = color_graph(g, variant="two_plus_eps", alpha=1)
        assert is_proper_coloring(g, result.colors)
        assert result.num_colors <= 4  # trees need at most (2+e)a+1 = 4


class TestUnknownAlphaEndToEnd:
    def test_guess_then_color(self):
        g = union_of_random_forests(80, 3, seed=44)
        guessed = beta_partition_unknown_alpha(g)
        beta = guessed.outcome.beta
        orientation = orient_by_partition(g, guessed.outcome.partition)
        assert orientation.max_out_degree() <= beta
        from repro.coloring.greedy import orientation_greedy_coloring

        colors = orientation_greedy_coloring(orientation)
        assert is_proper_coloring(g, colors)
        assert max(colors) <= beta


class TestDeterminismAcrossRuns:
    def test_everything_is_reproducible(self):
        g = union_of_random_forests(60, 2, seed=45)
        a = color_graph(g, variant="two_plus_eps", alpha=2)
        b = color_graph(g, variant="two_plus_eps", alpha=2)
        np.testing.assert_array_equal(a.colors, b.colors)
        assert a.total_rounds == b.total_rounds
