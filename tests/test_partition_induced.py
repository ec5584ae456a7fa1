"""Tests for S-induced β-partitions: Definition 3.6 and Lemmas 3.7/3.8/3.13/3.14."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import (
    complete_ary_tree,
    complete_graph,
    path_graph,
    star_graph,
    union_of_random_forests,
)
from repro.partition.beta_partition import INFINITY
from repro.partition.dependency import dependency_set
from repro.partition.induced import (
    induced_beta_partition,
    induced_partition_from_view,
    natural_beta_partition,
)
from repro.util.rng import SplitMix64


class TestDefinition36:
    def test_path_all_layer_zero(self):
        g = path_graph(5)
        p = natural_beta_partition(g, 2)
        assert all(p.layer(v) == 0 for v in g.vertices())

    def test_star_with_beta_one(self):
        g = star_graph(6)
        p = natural_beta_partition(g, 1)
        # Leaves peel at step 0; hub has 5 infinity-neighbors at step 0,
        # then 0 at step 1.
        assert all(p.layer(v) == 0 for v in range(1, 6))
        assert p.layer(0) == 1

    def test_clique_stalls_below_threshold(self):
        g = complete_graph(6)
        p = natural_beta_partition(g, 3)
        # Every vertex has 5 > 3 infinity-neighbors forever: all infinity.
        assert all(p.layer(v) == INFINITY for v in g.vertices())

    def test_clique_peels_at_threshold(self):
        g = complete_graph(6)
        p = natural_beta_partition(g, 5)
        assert all(p.layer(v) == 0 for v in g.vertices())

    def test_ary_tree_depth_layers(self):
        beta = 3
        g = complete_ary_tree(beta + 1, 3)
        p = natural_beta_partition(g, beta)
        # Depth-3 (β+1)-ary tree: layer = height of the vertex.
        assert p.layer(0) == 3
        assert p.size() == 4

    def test_outside_subset_is_infinity(self):
        g = path_graph(4)
        p = induced_beta_partition(g, [0, 1], 2)
        assert p.layer(2) == INFINITY
        assert p.layer(3) == INFINITY

    def test_subset_neighbors_outside_count_forever(self):
        # Vertex 1 in a K4 with S={0,1}: 2 outside neighbors always count
        # as infinity, so with beta=1 it can never be layered... with
        # beta=2 it can once 0 is layered? 0 also has 2 outside + 1.
        g = complete_graph(4)
        p = induced_beta_partition(g, [0, 1], 2)
        # Both have 2 outside-infinity + 1 inside-infinity = 3 > 2 at step
        # 0... wait: inside neighbor is each other. deg = 3, outside = 2.
        # At step 0: 3 infinity-neighbors > 2 -> blocked forever.
        assert p.layer(0) == INFINITY
        assert p.layer(1) == INFINITY
        p2 = induced_beta_partition(g, [0, 1], 3)
        assert p2.layer(0) == 0

    def test_beta_below_one_rejected(self):
        with pytest.raises(ValueError):
            induced_partition_from_view({}, {}, 0)

    def test_view_not_closed_rejected(self):
        with pytest.raises(ValueError):
            induced_partition_from_view({0: [1]}, {0: 1}, 2)

    def test_degree_smaller_than_view_rejected(self):
        with pytest.raises(ValueError):
            induced_partition_from_view({0: [1], 1: [0]}, {0: 0, 1: 1}, 2)


class TestLemma34:
    """The natural β-partition at β = ⌈(2+ε)α⌉ is the H-partition."""

    def test_forest_union_completes(self):
        alpha, eps = 3, 1.0
        g = union_of_random_forests(150, alpha, seed=20)
        beta = math.ceil((2 + eps) * alpha)
        p = natural_beta_partition(g, beta)
        assert not p.is_partial(g.vertices())
        assert p.is_valid(g, beta)

    def test_size_logarithmic_bound(self):
        # Each peel keeps < 2α/β of the vertices, so the number of layers
        # is at most log_{β/2α}(n) + 1.
        alpha, eps = 2, 1.0
        g = union_of_random_forests(400, alpha, seed=21)
        beta = math.ceil((2 + eps) * alpha)
        p = natural_beta_partition(g, beta)
        bound = math.log(g.num_vertices) / math.log(beta / (2 * alpha)) + 1
        assert p.size() <= bound


class TestLemma37:
    """Properties i-iii of Lemma 3.7 on random instances."""

    @given(st.integers(min_value=0, max_value=2**31), st.integers(3, 9))
    @settings(max_examples=25, deadline=None)
    def test_properties(self, seed, beta):
        g = union_of_random_forests(50, 3, seed=seed)
        rng = SplitMix64(seed ^ 0xABC)
        subset = {v for v in g.vertices() if rng.next_u64() < 0.7 * 2**64}
        sigma = induced_beta_partition(g, subset, beta)
        for v in subset:
            lay = sigma.layer(v)
            nbr_layers = [sigma.layer(int(w)) for w in g.neighbors(v)]
            if lay == INFINITY:
                # (i) at least beta+1 infinity neighbors
                assert sum(1 for L in nbr_layers if L == INFINITY) >= beta + 1
            else:
                # (ii) at most beta neighbors with layer >= lay
                assert sum(1 for L in nbr_layers if L >= lay) <= beta
                # (iii) if deg >= beta+1, at least beta+1 neighbors with
                # layer >= lay - 1
                if g.degree(v) >= beta + 1:
                    assert (
                        sum(1 for L in nbr_layers if L >= lay - 1) >= beta + 1
                    )


class TestLemma38Monotonicity:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_larger_subset_smaller_layers(self, seed):
        g = union_of_random_forests(60, 2, seed=seed)
        beta = 5
        rng = SplitMix64(seed)
        small = {v for v in g.vertices() if rng.next_u64() < 0.4 * 2**64}
        grow = {v for v in g.vertices() if rng.next_u64() < 0.5 * 2**64}
        large = small | grow
        sigma_small = induced_beta_partition(g, small, beta)
        sigma_large = induced_beta_partition(g, large, beta)
        for v in g.vertices():
            assert sigma_small.layer(v) >= sigma_large.layer(v)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_lemma_3_13_natural_is_minimum(self, seed):
        g = union_of_random_forests(60, 2, seed=seed)
        beta = 5
        rng = SplitMix64(seed ^ 0x123)
        subset = {v for v in g.vertices() if rng.next_u64() < 0.6 * 2**64}
        sigma = induced_beta_partition(g, subset, beta)
        natural = natural_beta_partition(g, beta)
        for v in g.vertices():
            assert sigma.layer(v) >= natural.layer(v)


class TestLemma314:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_dependency_superset_gives_exact_layers(self, seed):
        g = union_of_random_forests(50, 2, seed=seed)
        beta = 5
        natural = natural_beta_partition(g, beta)
        rng = SplitMix64(seed)
        v = rng.randrange(g.num_vertices)
        dep = dependency_set(g, natural, v)
        if not dep:
            return
        # S = D(l, v) plus random extras.
        extras = {u for u in g.vertices() if rng.next_u64() < 0.3 * 2**64}
        sigma = induced_beta_partition(g, dep | extras, beta)
        for w in dep:
            assert sigma.layer(w) == natural.layer(w)
