"""Tests for degeneracy, forest packing, and exact arboricity."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graphs.arboricity import (
    core_numbers,
    degeneracy,
    degeneracy_order,
    density_lower_bound,
    exact_arboricity,
    forest_partition,
)
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    grid_2d,
    hypercube,
    path_graph,
    random_gnm,
    random_tree,
    star_graph,
    union_of_random_forests,
)
from repro.graphs.graph import Graph
from repro.graphs.validation import is_forest

from peel_shapes import cherries_on_a_cycle, disjoint_union, peel_shapes


def _brute_force_arboricity(g: Graph) -> int:
    """Nash-Williams Definition 3.1 by subset enumeration (tiny n only)."""
    best = 0
    vertices = list(g.vertices())
    for size in range(2, len(vertices) + 1):
        for subset in itertools.combinations(vertices, size):
            sub, __ = g.subgraph(list(subset))
            if sub.num_edges:
                best = max(best, math.ceil(sub.num_edges / (size - 1)))
    return best


class TestDegeneracy:
    def test_tree_degeneracy_one(self):
        assert degeneracy(random_tree(30, seed=1)) == 1

    def test_cycle_degeneracy_two(self):
        assert degeneracy(cycle_graph(10)) == 2

    def test_clique_degeneracy(self):
        assert degeneracy(complete_graph(6)) == 5

    def test_grid_degeneracy_two(self):
        assert degeneracy(grid_2d(5, 5)) == 2

    def test_empty_graph(self):
        assert degeneracy(Graph.from_edges(0, [])) == 0
        assert degeneracy(Graph.from_edges(3, [])) == 0

    def test_core_numbers_monotone_in_subgraph(self):
        g = complete_graph(5)
        cores = core_numbers(g)
        assert cores == [4] * 5

    def test_degeneracy_order_is_permutation(self):
        g = union_of_random_forests(50, 2, seed=2)
        order, cores = degeneracy_order(g)
        assert sorted(order) == list(range(50))
        assert len(cores) == 50

    def test_order_property(self):
        # Each vertex has <= degeneracy neighbors later in the order.
        g = union_of_random_forests(60, 3, seed=3)
        order, __ = degeneracy_order(g)
        d = degeneracy(g)
        position = {v: i for i, v in enumerate(order)}
        for v in g.vertices():
            later = sum(1 for w in g.neighbors(v) if position[int(w)] > position[v])
            assert later <= d

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_exact_smallest_last_randomized(self, seed):
        """Every peeled vertex has minimum exact residual degree."""
        from repro.graphs.generators import random_gnm

        n = 2 + seed % 40
        m = min((seed // 7) % (2 * n), n * (n - 1) // 2)
        g = random_gnm(n, m, seed=seed)
        order, __ = degeneracy_order(g)
        assert sorted(order) == list(range(n))
        alive = [True] * n
        residual = [g.degree(v) for v in range(n)]
        for v in order:
            minimum = min(residual[u] for u in range(n) if alive[u])
            assert residual[v] == minimum
            alive[v] = False
            for w in g.neighbors(v):
                w = int(w)
                if alive[w]:
                    residual[w] -= 1

    @given(peel_shapes)
    @settings(max_examples=60, deadline=None)
    @example(Graph.from_edges(0, []))
    @example(Graph.from_edges(90, []))
    @example(disjoint_union(complete_graph(9), path_graph(300), star_graph(120)))
    @example(cherries_on_a_cycle(40))
    def test_cores_match_bucket_queue_oracle(self, g):
        """Core numbers equal the seed BucketQueue peeler's, exactly, and
        :func:`degeneracy` (the compiled peel when the kernel loads)
        equals their maximum."""
        from repro.util.bucket_queue import BucketQueue

        n = g.num_vertices
        queue = BucketQueue(max(g.max_degree(), 1))
        remaining = [g.degree(v) for v in range(n)]
        for v in range(n):
            queue.insert(v, remaining[v])
        cores_ref = [0] * n
        removed = [False] * n
        current = 0
        while len(queue):
            v, key = queue.pop_min()
            current = max(current, key)
            cores_ref[v] = current
            removed[v] = True
            for w in g.neighbors(v):
                w = int(w)
                if not removed[w]:
                    remaining[w] -= 1
                    queue.decrease_key(w, remaining[w])
        __, cores = degeneracy_order(g)
        assert cores == cores_ref
        assert degeneracy(g) == max(cores_ref, default=0)


class TestForestPartition:
    def test_tree_needs_one_forest(self):
        g = random_tree(25, seed=4)
        forests = forest_partition(g, 1)
        assert forests is not None
        assert sum(len(f) for f in forests) == g.num_edges

    def test_cycle_needs_two(self):
        g = cycle_graph(8)
        assert forest_partition(g, 1) is None
        forests = forest_partition(g, 2)
        assert forests is not None
        for f in forests:
            assert is_forest(8, f)

    def test_partition_covers_all_edges_disjointly(self):
        g = union_of_random_forests(40, 3, seed=5)
        k = exact_arboricity(g)
        forests = forest_partition(g, k)
        assert forests is not None
        all_edges = sorted(e for f in forests for e in f)
        assert all_edges == sorted(g.edges())

    def test_each_class_is_a_forest(self):
        g = complete_graph(7)
        forests = forest_partition(g, 4)  # alpha(K7) = ceil(21/6) = 4
        assert forests is not None
        for f in forests:
            assert is_forest(7, f)

    def test_k_zero_with_edges_impossible(self):
        assert forest_partition(cycle_graph(3), 0) is None

    def test_k_zero_without_edges_fine(self):
        assert forest_partition(Graph.from_edges(3, []), 0) == []

    def test_extra_forests_allowed(self):
        g = path_graph(5)
        forests = forest_partition(g, 3)
        assert forests is not None
        assert len(forests) == 3


class TestExactArboricity:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (path_graph(6), 1),
            (cycle_graph(7), 2),
            (complete_graph(4), 2),
            (complete_graph(5), 3),
            (complete_graph(6), 3),
            (complete_graph(7), 4),
            (star_graph(10), 1),
            (grid_2d(4, 4), 2),
        ],
    )
    def test_known_values(self, graph, expected):
        assert exact_arboricity(graph) == expected

    def test_hypercube_q4(self):
        # Q4: 32 edges, 16 vertices; alpha = ceil(32/15) = 3 (known).
        assert exact_arboricity(hypercube(4)) == 3

    def test_empty(self):
        assert exact_arboricity(Graph.from_edges(5, [])) == 0

    def test_sandwich_against_degeneracy(self):
        for seed in range(3):
            g = union_of_random_forests(40, 2 + seed, seed=seed)
            alpha = exact_arboricity(g)
            d = degeneracy(g)
            assert alpha <= max(d, 1)
            assert alpha >= (d + 1) / 2

    @given(
        st.integers(min_value=2, max_value=7).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                    .filter(lambda e: e[0] != e[1]),
                    max_size=12,
                ),
            )
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_nash_williams(self, data):
        n, edges = data
        g = Graph.from_edges(n, edges)
        if g.num_edges == 0:
            assert exact_arboricity(g) == 0
        else:
            assert exact_arboricity(g) == _brute_force_arboricity(g)


class TestDensityLowerBound:
    def test_simple(self):
        assert density_lower_bound(complete_graph(4)) == 2
        assert density_lower_bound(path_graph(5)) == 1
        assert density_lower_bound(Graph.from_edges(3, [])) == 0

    def test_never_exceeds_exact(self):
        for seed in range(3):
            g = union_of_random_forests(30, 3, seed=seed)
            assert density_lower_bound(g) <= exact_arboricity(g)
