"""Tests for disjoint-set union."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.dsu import DisjointSetUnion


class TestBasics:
    def test_initial_state(self):
        dsu = DisjointSetUnion(5)
        assert dsu.components == 5
        assert all(dsu.find(i) == i for i in range(5))

    def test_union_merges(self):
        dsu = DisjointSetUnion(4)
        assert dsu.union(0, 1)
        assert dsu.connected(0, 1)
        assert dsu.components == 3

    def test_union_same_set_returns_false(self):
        dsu = DisjointSetUnion(3)
        dsu.union(0, 1)
        assert not dsu.union(1, 0)
        assert dsu.components == 2

    def test_transitive_connectivity(self):
        dsu = DisjointSetUnion(5)
        dsu.union(0, 1)
        dsu.union(1, 2)
        assert dsu.connected(0, 2)
        assert not dsu.connected(0, 3)

    def test_set_size(self):
        dsu = DisjointSetUnion(6)
        dsu.union(0, 1)
        dsu.union(1, 2)
        assert dsu.set_size(2) == 3
        assert dsu.set_size(5) == 1

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            DisjointSetUnion(-1)


class TestInvariant:
    @given(
        st.lists(
            st.tuples(st.integers(0, 19), st.integers(0, 19)),
            max_size=60,
        )
    )
    @settings(max_examples=100)
    def test_components_count_matches_reference(self, unions):
        n = 20
        dsu = DisjointSetUnion(n)
        # Reference: naive label propagation.
        labels = list(range(n))
        for a, b in unions:
            dsu.union(a, b)
            la, lb = labels[a], labels[b]
            if la != lb:
                labels = [la if x == lb else x for x in labels]
        assert dsu.components == len(set(labels))
        for a in range(n):
            for b in range(a + 1, n):
                assert dsu.connected(a, b) == (labels[a] == labels[b])
