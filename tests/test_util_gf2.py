"""Tests for GF(2) linear algebra against brute-force enumeration."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.gf2 import GF2System, gf2_rank, gf2_solution_count_log2


def _brute_count(rows: list[int], rhs: list[int], nvars: int) -> int:
    count = 0
    for bits in itertools.product((0, 1), repeat=nvars):
        value = sum(b << i for i, b in enumerate(bits))
        if all(
            bin(row & value).count("1") % 2 == b for row, b in zip(rows, rhs)
        ):
            count += 1
    return count


class TestRank:
    def test_empty(self):
        assert gf2_rank([]) == 0

    def test_identity(self):
        assert gf2_rank([0b001, 0b010, 0b100]) == 3

    def test_dependent_rows(self):
        assert gf2_rank([0b011, 0b101, 0b110]) == 2  # third = xor of first two

    def test_zero_rows_ignored(self):
        assert gf2_rank([0, 0, 0b1]) == 1


class TestSolutionCount:
    def test_unconstrained(self):
        assert gf2_solution_count_log2([], [], 4) == 4

    def test_single_equation_halves(self):
        assert gf2_solution_count_log2([0b11], [0], 4) == 3

    def test_inconsistent_returns_none(self):
        # x1 = 0 and x1 = 1
        assert gf2_solution_count_log2([0b1, 0b1], [0, 1], 3) is None

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda nv: st.tuples(
                st.just(nv),
                st.lists(
                    st.tuples(
                        st.integers(0, 2**nv - 1), st.integers(0, 1)
                    ),
                    max_size=6,
                ),
            )
        )
    )
    @settings(max_examples=100)
    def test_matches_brute_force(self, data):
        nvars, eqs = data
        rows = [r for r, __ in eqs]
        rhs = [b for __, b in eqs]
        log2 = gf2_solution_count_log2(rows, rhs, nvars)
        brute = _brute_count(rows, rhs, nvars)
        if log2 is None:
            assert brute == 0
        else:
            assert brute == 2**log2


class TestGF2System:
    def test_incremental_matches_batch(self):
        sys = GF2System(4)
        sys.add_equation(0b0011, 1)
        sys.add_equation(0b0101, 0)
        assert sys.solution_count_log2() == 2
        assert sys.consistent

    def test_inconsistency_flag(self):
        sys = GF2System(2)
        sys.add_equation(0b01, 0)
        sys.add_equation(0b01, 1)
        assert not sys.consistent
        assert sys.solution_count_log2() is None

    def test_probability_with_unconditional(self):
        sys = GF2System(3)
        # P[x0 = 0] over uniform 3-bit strings = 1/2.
        assert sys.probability_with([0b001], [0]) == pytest.approx(0.5)

    def test_probability_with_conditioning(self):
        sys = GF2System(3)
        sys.add_equation(0b001, 1)  # x0 = 1
        # P[x0 xor x1 = 1 | x0 = 1] = P[x1 = 0] = 1/2.
        assert sys.probability_with([0b011], [1]) == pytest.approx(0.5)
        # P[x0 = 0 | x0 = 1] = 0.
        assert sys.probability_with([0b001], [0]) == 0.0

    def test_probability_of_implied_event_is_one(self):
        sys = GF2System(3)
        sys.add_equation(0b011, 1)
        assert sys.probability_with([0b011], [1]) == 1.0

    def test_copy_is_independent(self):
        sys = GF2System(3)
        sys.add_equation(0b001, 1)
        clone = sys.copy()
        clone.add_equation(0b010, 0)
        assert sys.rank == 1
        assert clone.rank == 2

    def test_conditioning_on_inconsistent_raises(self):
        sys = GF2System(1)
        sys.add_equation(0b1, 0)
        sys.add_equation(0b1, 1)
        with pytest.raises(ValueError):
            sys.probability_with([0b1], [0])

    @given(
        st.lists(
            st.tuples(st.integers(0, 31), st.integers(0, 1)), max_size=6
        ),
        st.lists(
            st.tuples(st.integers(0, 31), st.integers(0, 1)),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=100)
    def test_probability_matches_brute_force(self, base_eqs, query_eqs):
        nvars = 5
        sys = GF2System(nvars)
        for row, b in base_eqs:
            sys.add_equation(row, b)
        if not sys.consistent:
            return
        base_rows = [r for r, __ in base_eqs]
        base_rhs = [b for __, b in base_eqs]
        joint_rows = base_rows + [r for r, __ in query_eqs]
        joint_rhs = base_rhs + [b for __, b in query_eqs]
        base_count = _brute_count(base_rows, base_rhs, nvars)
        joint_count = _brute_count(joint_rows, joint_rhs, nvars)
        expected = joint_count / base_count
        assert sys.probability_with(
            [r for r, __ in query_eqs], [b for __, b in query_eqs]
        ) == pytest.approx(expected)
