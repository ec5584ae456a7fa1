"""Tests for the CSR Graph class."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.graph import Graph
from repro.graphs.reference import reference_csr_from_edges

edge_lists = st.integers(min_value=2, max_value=20).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda e: e[0] != e[1]),
            max_size=40,
        ),
    )
)


class TestConstruction:
    def test_from_edges_basic(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.num_vertices == 4
        assert g.num_edges == 3

    def test_duplicate_edges_merged(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])

    def test_empty_graph(self):
        g = Graph.from_edges(0, [])
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.max_degree() == 0

    def test_isolated_vertices(self):
        g = Graph.from_edges(5, [(0, 1)])
        assert g.degree(4) == 0
        assert list(g.neighbors(4)) == []


class TestAccessors:
    def test_neighbors_sorted(self):
        g = Graph.from_edges(5, [(2, 4), (2, 0), (2, 3)])
        assert list(g.neighbors(2)) == [0, 3, 4]

    def test_neighbor_indexing(self):
        g = Graph.from_edges(4, [(1, 0), (1, 3)])
        assert g.neighbor(1, 0) == 0
        assert g.neighbor(1, 1) == 3
        with pytest.raises(IndexError):
            g.neighbor(1, 2)

    def test_has_edge(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(1, 1)

    def test_edges_iterates_each_once(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        g = Graph.from_edges(3, edges)
        assert sorted(g.edges()) == sorted(edges)

    def test_degrees_vector(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        assert list(g.degrees()) == [2, 1, 1]
        assert g.max_degree() == 2

    @given(edge_lists)
    @settings(max_examples=60)
    def test_handshake_and_symmetry(self, data):
        n, edges = data
        g = Graph.from_edges(n, edges)
        assert int(g.degrees().sum()) == 2 * g.num_edges
        for u in range(n):
            for w in g.neighbors(u):
                assert g.has_edge(int(w), u)


class TestSubgraph:
    def test_induced_subgraph(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub, mapping = g.subgraph([1, 2, 3])
        assert sub.num_vertices == 3
        assert sub.num_edges == 2
        assert mapping == {1: 0, 2: 1, 3: 2}

    def test_subgraph_drops_outside_edges(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        sub, __ = g.subgraph([0, 2])
        assert sub.num_edges == 0

    def test_duplicate_vertices_rejected(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.subgraph([0, 0])

    @staticmethod
    def _rebuilt(g, vertices):
        """The same induced subgraph through ``Graph.from_arrays``."""
        verts = np.asarray(vertices, dtype=np.int64)
        remap = np.full(g.num_vertices, -1, dtype=np.int64)
        remap[verts] = np.arange(len(verts), dtype=np.int64)
        ends = remap[g.edge_array()]
        inside = (ends >= 0).all(axis=1)
        return Graph.from_arrays(len(verts), ends[inside])

    @staticmethod
    def _assert_same(a, b):
        assert a == b
        for x, y in zip(a.csr(), b.csr()):
            assert x.dtype == y.dtype

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_ascending_subsets_match_from_arrays(self, seed):
        """Strictly ascending input takes the sort-free CSR assembly."""
        from repro.graphs.generators import random_gnm

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        m = int(rng.integers(0, min(3 * n, n * (n - 1) // 2) + 1))
        g = random_gnm(n, m, seed=seed)
        subset = np.flatnonzero(rng.random(n) < rng.random())
        self._assert_same(g.induced_subgraph(subset), self._rebuilt(g, subset))
        # Shuffled input keeps the sort-and-dedup path; same edges.
        shuffled = rng.permutation(subset)
        self._assert_same(
            g.induced_subgraph(shuffled), self._rebuilt(g, shuffled)
        )

    def test_ascending_edge_cases(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)])
        for subset in ([], [3], [0, 1, 2, 3], [0, 1, 4], [1, 2, 5], [0, 4, 5]):
            self._assert_same(g.induced_subgraph(subset), self._rebuilt(g, subset))
        # The last rows keep no neighbor: offsets must still close at m.
        sub = g.induced_subgraph([0, 1, 2, 4])
        assert sub.csr()[0].tolist() == [0, 1, 3, 4, 4]

    def test_unsorted_duplicates_still_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        for bad in ([2, 1, 2], [1, 1], [3, 0, 3]):
            with pytest.raises(ValueError, match="duplicate"):
                g.induced_subgraph(bad)
        with pytest.raises(IndexError):
            g.induced_subgraph([0, 4])

    @given(edge_lists)
    @settings(max_examples=40)
    def test_full_subgraph_is_isomorphic_identity(self, data):
        n, edges = data
        g = Graph.from_edges(n, edges)
        sub, mapping = g.subgraph(list(range(n)))
        assert mapping == {v: v for v in range(n)}
        assert sub == g


class TestComponents:
    def test_connected_path(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.connected_components() == [[0, 1, 2, 3]]

    def test_two_components_plus_isolated(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        assert g.connected_components() == [[0, 1], [2, 3], [4]]

    def test_empty_and_edgeless(self):
        assert Graph.from_edges(0, []).connected_components() == []
        assert Graph.from_edges(3, []).connected_components() == [[0], [1], [2]]

    def test_long_path_many_jump_rounds(self):
        # A path stresses the pointer-jumping convergence (diameter n).
        from repro.graphs.reference import reference_connected_components

        g = Graph.from_edges(257, [(i, i + 1) for i in range(256)])
        assert g.connected_components() == reference_connected_components(g)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_matches_reference_bfs_randomized(self, seed):
        from repro.graphs.generators import random_gnm
        from repro.graphs.reference import reference_connected_components

        rng_n = 1 + seed % 80
        rng_m = min((seed // 80) % (2 * rng_n + 1), rng_n * (rng_n - 1) // 2)
        g = random_gnm(rng_n, rng_m, seed=seed)
        assert g.connected_components() == reference_connected_components(g)


class TestArrayApi:
    def test_from_arrays_matches_from_edges(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        a = Graph.from_edges(4, edges)
        b = Graph.from_arrays(4, np.array(edges, dtype=np.int64))
        assert a == b

    def test_from_arrays_canonicalizes_and_dedupes(self):
        arr = np.array([[1, 0], [0, 1], [2, 1]], dtype=np.int64)
        g = Graph.from_arrays(3, arr)
        assert g.num_edges == 2

    def test_from_arrays_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop at vertex 2"):
            Graph.from_arrays(3, np.array([[0, 1], [2, 2]]))

    def test_from_arrays_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_arrays(3, np.array([[0, 3]]))

    def test_from_arrays_bad_shape(self):
        with pytest.raises(ValueError):
            Graph.from_arrays(3, np.zeros((2, 3), dtype=np.int64))

    def test_edge_array_sorted_canonical(self):
        g = Graph.from_edges(4, [(3, 2), (1, 0), (0, 2)])
        assert g.edge_array().tolist() == [[0, 1], [0, 2], [2, 3]]

    def test_edge_array_matches_edges_iter(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert [tuple(e) for e in g.edge_array()] == list(g.edges())

    def test_neighbors_of_batch(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        targets, boundaries = g.neighbors_of([0, 3, 2])
        assert boundaries.tolist() == [0, 2, 3, 5]
        assert targets[0:2].tolist() == [1, 2]  # N(0)
        assert targets[2:3].tolist() == [4]  # N(3)
        assert targets[3:5].tolist() == [0, 1]  # N(2)

    def test_neighbors_of_empty_batch(self):
        g = Graph.from_edges(3, [(0, 1)])
        targets, boundaries = g.neighbors_of(np.empty(0, dtype=np.int64))
        assert len(targets) == 0 and boundaries.tolist() == [0]


class TestImmutability:
    """The satellite bugfix: no accessor may hand out a writable view."""

    def _graph(self):
        return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])

    def test_neighbors_view_is_read_only(self):
        g = self._graph()
        with pytest.raises(ValueError):
            g.neighbors(1)[0] = 99
        assert g.neighbor(1, 0) == 0  # unchanged

    def test_degrees_view_is_read_only(self):
        g = self._graph()
        with pytest.raises(ValueError):
            g.degrees()[0] = 99
        assert g.degree(0) == 1

    def test_edge_array_is_read_only(self):
        g = self._graph()
        with pytest.raises(ValueError):
            g.edge_array()[0, 0] = 99
        assert g.edge_array()[0, 0] == 0

    def test_backing_arrays_frozen(self):
        g = self._graph()
        assert not g._offsets.flags.writeable
        assert not g._targets.flags.writeable


class TestReferenceEquivalence:
    """The vectorized CSR builder must be byte-identical to the seed one."""

    @given(edge_lists)
    @settings(max_examples=120)
    def test_byte_identical_to_seed_builder(self, data):
        n, edges = data
        g = Graph.from_edges(n, edges)
        ref_offsets, ref_targets = reference_csr_from_edges(n, edges)
        assert g._offsets.dtype == ref_offsets.dtype
        assert g._targets.dtype == ref_targets.dtype
        assert g._offsets.tobytes() == ref_offsets.tobytes()
        assert g._targets.tobytes() == ref_targets.tobytes()

    @given(edge_lists)
    @settings(max_examples=40)
    def test_subgraph_matches_seed_semantics(self, data):
        n, edges = data
        g = Graph.from_edges(n, edges)
        keep = [v for v in range(n) if v % 2 == 0]
        sub, mapping = g.subgraph(keep)
        assert mapping == {old: new for new, old in enumerate(keep)}
        expected = {
            (min(mapping[u], mapping[v]), max(mapping[u], mapping[v]))
            for u, v in g.edges()
            if u in mapping and v in mapping
        }
        assert set(sub.edges()) == expected


class TestEquality:
    def test_equal_graphs(self):
        a = Graph.from_edges(3, [(0, 1), (1, 2)])
        b = Graph.from_edges(3, [(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_unequal_graphs(self):
        a = Graph.from_edges(3, [(0, 1)])
        b = Graph.from_edges(3, [(0, 2)])
        assert a != b
