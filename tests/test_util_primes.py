"""Tests for primality utilities."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.primes import is_prime, next_prime

_SMALL_PRIMES = {
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
}


class TestIsPrime:
    def test_small_range_exact(self):
        for n in range(100):
            assert is_prime(n) == (n in _SMALL_PRIMES), n

    def test_negative_and_edge(self):
        assert not is_prime(-7)
        assert not is_prime(0)
        assert not is_prime(1)

    def test_known_large_prime(self):
        assert is_prime(2**31 - 1)  # Mersenne prime M31

    def test_known_large_composite(self):
        assert not is_prime(2**32 + 1)  # 641 * 6700417 (Euler)

    def test_carmichael_numbers_rejected(self):
        for carmichael in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_prime(carmichael), carmichael

    def test_squares_of_primes_rejected(self):
        for p in (101, 103, 10007):
            assert not is_prime(p * p)

    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=100)
    def test_agrees_with_trial_division(self, n):
        reference = all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_prime(n) == reference


class TestNextPrime:
    def test_returns_input_when_prime(self):
        assert next_prime(13) == 13

    def test_advances_to_next(self):
        assert next_prime(14) == 17
        assert next_prime(90) == 97

    def test_small_inputs(self):
        assert next_prime(0) == 2
        assert next_prime(2) == 2
        assert next_prime(3) == 3

    @given(st.integers(min_value=2, max_value=10**5))
    @settings(max_examples=100)
    def test_result_is_prime_and_minimal(self, n):
        p = next_prime(n)
        assert p >= n
        assert is_prime(p)
        assert all(not is_prime(q) for q in range(n, p))
