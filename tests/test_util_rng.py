"""Tests for the SplitMix64 PRNG."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import GAMMA, SplitMix64, mix64, mix64_array


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]

    def test_different_seeds_differ(self):
        a = SplitMix64(1)
        b = SplitMix64(2)
        assert [a.next_u64() for _ in range(5)] != [b.next_u64() for _ in range(5)]

    def test_known_reference_value(self):
        # SplitMix64 with seed 0: first output is a fixed constant of the
        # algorithm (regression pin so the stream never silently changes).
        assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF

    def test_split_gives_independent_stream(self):
        a = SplitMix64(7)
        child = a.split()
        assert child.next_u64() != a.next_u64()


class TestDistributions:
    @given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=0))
    @settings(max_examples=100)
    def test_randrange_in_range(self, n, seed):
        rng = SplitMix64(seed)
        for _ in range(10):
            assert 0 <= rng.randrange(n) < n

    def test_randrange_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(0).randrange(0)

    def test_randrange_covers_all_residues(self):
        rng = SplitMix64(11)
        seen = {rng.randrange(7) for _ in range(500)}
        assert seen == set(range(7))


class TestShuffleSample:
    def test_shuffle_is_permutation(self):
        rng = SplitMix64(5)
        items = list(range(50))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # overwhelmingly likely

    def test_shuffle_empty_and_single(self):
        rng = SplitMix64(5)
        empty: list[int] = []
        rng.shuffle(empty)
        assert empty == []
        single = [1]
        rng.shuffle(single)
        assert single == [1]

    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=0))
    @settings(max_examples=50)
    def test_shuffle_matches_scalar_fisher_yates(self, n, seed):
        a, b = SplitMix64(seed), SplitMix64(seed)
        items = list(range(n))
        a.shuffle(items)
        twin = list(range(n))
        for i in range(n - 1, 0, -1):
            j = b.randrange(i + 1)
            twin[i], twin[j] = twin[j], twin[i]
        assert items == twin
        assert a.next_u64() == b.next_u64()


def _scalar_twin(seed: int, bounds: list[int]) -> tuple[list[int], SplitMix64]:
    rng = SplitMix64(seed)
    return [rng.randrange(b) for b in bounds], rng


# 2^63 + 1 rejects every raw draw at or past 2^64 - (2^63 - 1): about half.
_HALF_REJECT = 2**63 + 1


class TestArrayDraws:
    """The array draws equal runs of scalar calls, state included."""

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=0))
    @settings(max_examples=50)
    def test_next_u64_array_matches_scalar(self, count, seed):
        a, b = SplitMix64(seed), SplitMix64(seed)
        assert a.next_u64_array(count).tolist() == [b.next_u64() for _ in range(count)]
        assert a.next_u64() == b.next_u64()

    def test_next_u64_array_dtype_and_reference_value(self):
        draws = SplitMix64(0).next_u64_array(3)
        assert draws.dtype == np.uint64
        assert int(draws[0]) == 0xE220A8397B1DCDAF

    def test_next_u64_array_rejects_negative_count(self):
        with pytest.raises(ValueError):
            SplitMix64(0).next_u64_array(-1)

    @pytest.mark.parametrize(
        "bounds",
        [
            [_HALF_REJECT] * 300,
            [2**64 - 1] * 50,
            [1] * 20,
            [2**63 + 3, 5, 1, 2**64 - 1, _HALF_REJECT, 7, 2**62 + 1] * 40,
            list(range(1, 200)),
            [],
        ],
        ids=["half-reject", "max", "one", "mixed", "ascending", "empty"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 12345])
    def test_randrange_array_matches_scalar(self, bounds, seed):
        expected, twin = _scalar_twin(seed, bounds)
        rng = SplitMix64(seed)
        got = rng.randrange_array(bounds)
        assert got.dtype == np.uint64
        assert got.tolist() == expected
        # Rejected raw draws were consumed, and no more than those.
        assert [rng.next_u64() for _ in range(5)] == [twin.next_u64() for _ in range(5)]

    def test_half_reject_bound_rejects(self):
        # Guard the guard: this bound does reach the rejection path.
        rng = SplitMix64(3)
        raw = rng.next_u64_array(400)
        assert (raw >= np.uint64(2**64 - (2**64 % _HALF_REJECT))).sum() > 100

    def test_randrange_array_over_window_boundaries(self):
        # Long enough to cross several comparison windows, rejecting half.
        bounds = [_HALF_REJECT, 3] * 40_000
        expected, twin = _scalar_twin(9, bounds)
        rng = SplitMix64(9)
        assert rng.randrange_array(np.array(bounds, dtype=np.uint64)).tolist() == expected
        assert rng.next_u64() == twin.next_u64()

    @given(
        st.lists(st.integers(min_value=1, max_value=2**64 - 1), max_size=60),
        st.integers(min_value=0),
    )
    @settings(max_examples=60)
    def test_randrange_array_any_bounds(self, bounds, seed):
        expected, twin = _scalar_twin(seed, bounds)
        rng = SplitMix64(seed)
        assert rng.randrange_array(bounds).tolist() == expected
        assert rng.next_u64() == twin.next_u64()

    @pytest.mark.parametrize(
        "bounds", [[0], [3, 0, 2], [-1], np.array([4, -2]), np.array([0], dtype=np.uint64)]
    )
    def test_randrange_array_rejects_nonpositive(self, bounds):
        with pytest.raises(ValueError):
            SplitMix64(0).randrange_array(bounds)


class TestMixer:
    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=30))
    @settings(max_examples=50)
    def test_array_form_matches_scalar(self, values):
        mixed = mix64_array(np.array(values, dtype=np.uint64))
        assert mixed.tolist() == [mix64(v) for v in values]

    def test_next_u64_is_the_mix_of_the_state(self):
        assert SplitMix64(0).next_u64() == mix64(GAMMA)

    def test_scalar_form_reduces_mod_2_64(self):
        assert mix64(2**64 + 5) == mix64(5)
