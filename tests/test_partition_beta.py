"""Tests for PartialBetaPartition (Definition 3.5) and min-merge (Lemma 4.10)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import (
    complete_graph,
    path_graph,
    union_of_random_forests,
)
from repro.partition.beta_partition import INFINITY, PartialBetaPartition, merge_min
from repro.partition.induced import induced_beta_partition
from repro.util.rng import SplitMix64


class TestBasics:
    def test_layer_defaults_to_infinity(self):
        p = PartialBetaPartition({0: 1})
        assert p.layer(0) == 1
        assert p.layer(5) == INFINITY

    def test_size_counts_distinct_finite_layers(self):
        p = PartialBetaPartition({0: 0, 1: 0, 2: 3, 3: INFINITY})
        assert p.size() == 2
        assert p.max_layer() == 3

    def test_max_layer_empty(self):
        assert PartialBetaPartition({}).max_layer() == -1

    def test_assigned_and_infinity_vertices(self):
        p = PartialBetaPartition({0: 1, 1: INFINITY})
        assert p.assigned_vertices() == [0]
        assert p.infinity_vertices([0, 1, 2]) == [1, 2]

    def test_is_partial(self):
        p = PartialBetaPartition({0: 0, 1: 1})
        assert not p.is_partial([0, 1])
        assert p.is_partial([0, 1, 2])

    def test_copy_independent(self):
        p = PartialBetaPartition({0: 1})
        q = p.copy()
        q.layers[0] = 2
        assert p.layer(0) == 1

    def test_carried_vector_is_read_only_and_dropped_by_copy(self):
        vec = np.array([1.0, INFINITY, 0.0])
        p = PartialBetaPartition({0: 1, 2: 0}, vector=vec)
        assert p.layer_array(3) is vec
        with pytest.raises(ValueError):
            p.layer_array(3)[0] = 5.0
        # Another length falls back to the dict; equality ignores the vector.
        assert p.layer_array(4).tolist() == [1.0, INFINITY, 0.0, INFINITY]
        assert p.size() == 2
        assert p == PartialBetaPartition({0: 1, 2: 0})
        q = p.copy()
        assert q.vector is None
        q.layers[1] = 3
        assert q.layer_array(3).tolist() == [1.0, 3.0, 0.0]

    def test_vector_only_partition_builds_its_dict_on_first_read(self):
        # The columnar loop's form: the dict is {v: int(layer)} over the
        # finite entries, ascending ids, and every dict-reading method
        # answers as on the dict-built partition.
        vec = np.array([2.0, INFINITY, 0.0, 1.0])
        p = PartialBetaPartition(vector=vec)
        built = PartialBetaPartition({0: 2, 2: 0, 3: 1})
        assert p.layer_array(4) is vec and p.size() == 3
        assert p.layers == {0: 2, 2: 0, 3: 1}
        assert all(type(lay) is int for lay in p.layers.values())
        assert p == built and p.copy() == built and p.copy().vector is None
        assert p.assigned_vertices() == [0, 2, 3]
        assert p.layer(1) == INFINITY and p.layer(3) == 1
        assert merge_min([p, {1: 5}]).layers == {0: 2, 2: 0, 3: 1, 1: 5}
        assert PartialBetaPartition().layers == {}


class TestValidation:
    def test_valid_two_layer_path(self):
        g = path_graph(3)
        p = PartialBetaPartition({0: 0, 1: 1, 2: 0})
        assert p.is_valid(g, 1)

    def test_infinity_neighbors_count_as_higher(self):
        # Vertex 1 of a K3 has two neighbors at infinity: violates beta=1.
        g = complete_graph(3)
        p = PartialBetaPartition({1: 0})
        assert p.violations(g, 1) == [1]
        assert p.is_valid(g, 2)

    @given(st.integers(0, 2**31), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_violations_match_the_definition(self, seed, beta):
        # Random layers 0..3 plus ∞ and unassigned vertices, checked
        # against Definition 3.5 vertex by vertex.
        g = union_of_random_forests(40, 3, seed=seed)
        rng = SplitMix64(seed)
        layers = {}
        for v in g.vertices():
            pick = rng.randrange(6)
            if pick < 4:
                layers[v] = pick
            elif pick == 4:
                layers[v] = INFINITY
        p = PartialBetaPartition(layers)
        want = [
            v for v in g.vertices()
            if p.layer(v) != INFINITY
            and sum(p.layer(int(w)) >= p.layer(v) for w in g.neighbors(v))
            > beta
        ]
        assert p.violations(g, beta) == want

    def test_infinity_vertices_never_violate(self):
        g = complete_graph(5)
        p = PartialBetaPartition({})
        assert p.is_valid(g, 1)

    def test_is_valid_on_subset_ignores_outside(self):
        g = complete_graph(4)
        # 0 and 1 layered; their 2 outside-subset neighbors don't count.
        p = PartialBetaPartition({0: 0, 1: 1})
        assert p.is_valid_on_subset(g, 1, {0, 1})
        assert not p.is_valid_on_subset(g, 1, {0, 1, 2})  # 2 unlayered


class TestMergeMin:
    def test_pointwise_minimum(self):
        a = PartialBetaPartition({0: 3, 1: 1})
        b = PartialBetaPartition({0: 2, 2: 0})
        merged = merge_min([a, b])
        assert merged.layer(0) == 2
        assert merged.layer(1) == 1
        assert merged.layer(2) == 0

    def test_finite_wins_over_missing(self):
        a = PartialBetaPartition({0: 5})
        merged = merge_min([a, PartialBetaPartition({})])
        assert merged.layer(0) == 5

    def test_accepts_plain_mappings(self):
        merged = merge_min([{0: 2}, {0: 1}])
        assert merged.layer(0) == 1

    @given(st.integers(min_value=0, max_value=2**31), st.integers(2, 4))
    @settings(max_examples=20, deadline=None)
    def test_lemma_4_10_merge_is_partial_beta_partition(self, seed, k):
        """Min-merge of induced partitions stays a partial β-partition."""
        g = union_of_random_forests(60, 2, seed=seed)
        beta = 2 * 2 + 1
        rng = SplitMix64(seed)
        parts = []
        for _ in range(k):
            subset = [v for v in g.vertices() if rng.next_u64() < 0.5 * 2**64]
            parts.append(induced_beta_partition(g, subset, beta))
        merged = merge_min(parts)
        assert merged.is_valid(g, beta)
        # Moreover: finite in any input => finite in the merge.
        for part in parts:
            for v in part.assigned_vertices():
                assert merged.layer(v) != INFINITY
