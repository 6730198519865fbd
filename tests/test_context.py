"""Tests for precision contexts and decimal serialization."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from superosc import Context


class TestContext:
    def test_minimum_digits_enforced(self):
        with pytest.raises(ValueError):
            Context(digits=10)

    def test_fast_mode_tolerances(self):
        ctx = Context(15)
        assert ctx.rank_tolerance == mpf("1e-10")
        assert ctx.trust_floor == mpf("1e-9")

    def test_string_conversion_exact_at_precision(self):
        ctx = Context(40)
        x = ctx.real("0.1")
        with ctx.workprec():
            assert abs(x - mpf(1) / 10) < mpf(10) ** -50


class TestDecimalRoundTrip:
    @given(st.floats(allow_nan=False, allow_infinity=False,
                     min_value=-1e200, max_value=1e200))
    @settings(max_examples=50, deadline=None)
    def test_floats_round_trip(self, value):
        ctx = Context(15)
        x = ctx.real(value)
        assert ctx.from_decimal(ctx.to_decimal(x)) == x

    @pytest.mark.parametrize("digits", [15, 30, 100])
    def test_random_mpf_round_trip(self, digits):
        ctx = Context(digits)
        rng = random.Random(digits)
        with ctx.workprec():
            for _ in range(40):
                x = (mpf(rng.uniform(-1, 1)) * mp.pi) ** rng.randint(1, 5) \
                    * mpf(10) ** rng.randint(-80, 80)
                assert ctx.from_decimal(ctx.to_decimal(x)) == x

    def test_tiny_eigenvalue_scale_round_trips(self):
        ctx = Context(100)
        with ctx.workprec():
            x = mpf("2.36786e-26") * mp.pi
        assert ctx.from_decimal(ctx.to_decimal(x)) == x
