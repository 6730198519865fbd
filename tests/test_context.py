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
    @pytest.mark.parametrize("value", [3, -2, 0.5, 1e-300])
    def test_non_mpf_serializes_as_its_mpf(self, value):
        ctx = Context(30)
        assert ctx.to_decimal(value) == ctx.to_decimal(mpf(value))

    @given(st.floats(allow_nan=False, allow_infinity=False,
                     min_value=-1e200, max_value=1e200))
    @settings(max_examples=50, deadline=None)
    def test_floats_round_trip(self, value):
        ctx = Context(15)
        x = ctx.real(value)
        assert ctx.real(ctx.to_decimal(x)) == x

    @pytest.mark.parametrize("digits", [15, 30, 100])
    def test_random_mpf_round_trip(self, digits):
        ctx = Context(digits)
        rng = random.Random(digits)
        with ctx.workprec():
            for _ in range(40):
                x = (mpf(rng.uniform(-1, 1)) * mp.pi) ** rng.randint(1, 5) \
                    * mpf(10) ** rng.randint(-80, 80)
                assert ctx.real(ctx.to_decimal(x)) == x

    def test_tiny_eigenvalue_scale_round_trips(self):
        ctx = Context(100)
        with ctx.workprec():
            x = mpf("2.36786e-26") * mp.pi
        assert ctx.real(ctx.to_decimal(x)) == x

    @pytest.mark.parametrize("digits", [15, 30, 100])
    def test_matches_nstr_formula(self, digits):
        # to_decimal rounds the mantissa itself and calls libmp.to_str; the
        # reference is mp.nstr under a precision context per number
        ctx = Context(digits)

        def reference(x):
            with mp.workdps(ctx.decimal_digits + 5):
                return mp.nstr(mpf(x), ctx.decimal_digits, strip_zeros=True,
                               min_fixed=1, max_fixed=1)

        rng = random.Random(1900 + digits)
        with ctx.workprec():
            values = [mpf(0), mpf(1), mpf(-1), mpf("1e300"), mpf("-1e-300"), mpf("1e-300")]
            values += [mpf((rng.choice((-1, 1)) * rng.getrandbits(mp.prec),
                            rng.randint(-600, 400))) for _ in range(500)]
        with mp.workdps(3 * ctx.work_dps):
            wide = mp.pi / 7  # more bits than the working precision carries
        for x in values + [wide, -wide]:
            assert ctx.to_decimal(x) == reference(x)
            with ctx.workprec():
                assert ctx.real(ctx.to_decimal(x)) == +x
