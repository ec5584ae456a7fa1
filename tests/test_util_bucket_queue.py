"""Tests for the bucket priority queue."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.bucket_queue import BucketQueue


class TestBasics:
    def test_insert_pop_single(self):
        q = BucketQueue(10)
        q.insert(7, 3)
        assert q.pop_min() == (7, 3)
        assert len(q) == 0

    def test_pop_orders_by_key(self):
        q = BucketQueue(10)
        q.insert(1, 5)
        q.insert(2, 2)
        q.insert(3, 8)
        assert q.pop_min() == (2, 2)
        assert q.pop_min() == (1, 5)
        assert q.pop_min() == (3, 8)

    def test_contains_and_key_of(self):
        q = BucketQueue(5)
        q.insert(4, 2)
        assert 4 in q
        assert 5 not in q
        assert q.key_of(4) == 2

    def test_duplicate_insert_rejected(self):
        q = BucketQueue(5)
        q.insert(1, 1)
        with pytest.raises(ValueError):
            q.insert(1, 2)

    def test_pop_empty_raises(self):
        q = BucketQueue(5)
        with pytest.raises(IndexError):
            q.pop_min()

    def test_negative_max_key_rejected(self):
        with pytest.raises(ValueError):
            BucketQueue(-1)


class TestDecreaseKey:
    def test_decrease_moves_item(self):
        q = BucketQueue(10)
        q.insert(1, 9)
        q.insert(2, 5)
        q.decrease_key(1, 0)
        assert q.pop_min() == (1, 0)

    def test_decrease_below_cursor_still_found(self):
        # Pop once (cursor advances), then decrease another item below the
        # cursor: the queue must rewind.
        q = BucketQueue(10)
        q.insert(1, 3)
        q.insert(2, 6)
        assert q.pop_min() == (1, 3)
        q.decrease_key(2, 1)
        assert q.pop_min() == (2, 1)

    def test_increase_is_noop(self):
        q = BucketQueue(10)
        q.insert(1, 2)
        q.decrease_key(1, 7)  # not a decrease: ignored
        assert q.key_of(1) == 2


class TestAgainstSortedReference:
    @given(
        st.lists(
            st.tuples(st.integers(0, 99), st.integers(0, 20)),
            min_size=1,
            max_size=50,
            unique_by=lambda t: t[0],
        )
    )
    @settings(max_examples=100)
    def test_pop_sequence_is_sorted_by_key(self, items):
        q = BucketQueue(20)
        for item, key in items:
            q.insert(item, key)
        popped = []
        while len(q):
            popped.append(q.pop_min())
        assert [k for __, k in popped] == sorted(k for __, k in items)
        assert {i for i, __ in popped} == {i for i, __ in items}
