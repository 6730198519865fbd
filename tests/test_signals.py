"""Tests for the cosine-basis signal type."""

import ast
import math
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import superosc
from superosc import (
    ConstraintSet,
    Context,
    FourierCosineSignal,
    constraint_matrix,
    design_spectrum,
    energy_per_period,
    evaluate,
    sample,
    symmetrize_domain,
)
from superosc.signals import _normalizers, series_values

from oracles import basis_value, quad_energy

CTX = Context(15)


def make_signal(coeffs):
    return FourierCosineSignal(band_limit=len(coeffs) - 1, coeffs=tuple(coeffs))


class TestEvaluate:
    def test_constant_signal_is_one(self):
        with CTX.workprec():
            s = make_signal([mp.sqrt(2 * mp.pi)] + [0] * 10)
        assert abs(evaluate(s, 1.3, CTX) - 1) < 1e-14

    def test_single_harmonic(self):
        with CTX.workprec():
            s = make_signal([0] * 5 + [mp.sqrt(mp.pi)])
        assert abs(evaluate(s, 0, CTX) - 1) < 1e-14
        with CTX.workprec():
            val = evaluate(s, mp.pi / 10, CTX)
        assert abs(val) < 1e-14  # cos(pi/2) = 0

    @given(st.integers(0, 10 ** 6), st.floats(-10, 10))
    @settings(max_examples=30, deadline=None)
    def test_even_and_periodic(self, seed, t):
        import random
        rng = random.Random(seed)
        s = make_signal([rng.uniform(-2, 2) for _ in range(7)])
        f_t = evaluate(s, t, CTX)
        assert abs(evaluate(s, -t, CTX) - f_t) < 1e-12 * (1 + abs(f_t))
        with CTX.workprec():
            shifted = evaluate(s, t + 2 * mp.pi, CTX)
        assert abs(shifted - f_t) < 1e-12 * (1 + abs(f_t))

    def test_linear_in_coefficients(self):
        import random
        rng = random.Random(7)
        c1 = [rng.uniform(-1, 1) for _ in range(6)]
        c2 = [rng.uniform(-1, 1) for _ in range(6)]
        alpha, beta = mpf("0.75"), mpf("-1.5")
        combo = make_signal([alpha * a + beta * b for a, b in zip(c1, c2)])
        t = 0.931
        expected = alpha * evaluate(make_signal(c1), t, CTX) \
            + beta * evaluate(make_signal(c2), t, CTX)
        assert abs(evaluate(combo, t, CTX) - expected) < 1e-13


class TestCosineKernel:
    HIGH = Context(100)

    def test_basis_matches_direct_cosines_at_high_precision(self):
        # the recurrence loses most near t = 0 and t = pi
        n = 20
        points = ("1e-8", "0.3", "1.7", mp.pi - mpf("1e-6"), mp.pi)
        cs = ConstraintSet(points=points, values=(1,) * len(points))
        cm = constraint_matrix(cs, n, self.HIGH)
        tol = mpf(10) ** -(self.HIGH.digits + 5)
        for j, t in enumerate(cm.points):
            for i in range(n + 1):
                unit = make_signal([1 if k == i else 0 for k in range(n + 1)])
                value = evaluate(unit, t, self.HIGH)
                with mp.workdps(130):
                    exact = basis_value(i, t)
                    assert abs(cm.entries[j][i] - exact) < tol, (i, t)
                    assert abs(value - exact) < tol, (i, t)

    @pytest.mark.parametrize("n, m, inner, digits",
                             [(10, 5, 0, 15), (10, 5, 0, 30), (10, 9, "0.5", 100)])
    def test_samples_match_direct_cosine_sum(self, n, m, inner, digits):
        # the top two modes over the period and over the domain: each value
        # within 10^-work_dps (|f| + 2^-32 sum |A_k|) of the direct sum at
        # twice the digits, although inside the domain |f| is orders of
        # magnitude below the coefficients
        ctx = Context(digits)
        domain = symmetrize_domain(inner, 1)
        result = design_spectrum(n, m, domain, ctx)
        for signal in result.spectrum.signals[-2:]:
            scale = mpf(2) ** -32 * mp.fsum(signal.coeffs, absolute=True)
            for lo, hi in ((-mp.pi, mp.pi), (domain.intervals[0][0], domain.intervals[-1][1])):
                for t, value in sample(signal, lo, hi, 1001, ctx):
                    with mp.workdps(2 * ctx.work_dps):
                        exact = mp.fsum(c * basis_value(k, t)
                                        for k, c in enumerate(signal.coeffs))
                        tol = mpf(10) ** -ctx.work_dps * (abs(exact) + scale)
                        assert abs(value - exact) <= tol, (t, value, exact)

    def test_series_runs_on_ints(self, monkeypatch):
        # between each mp.cos and the one rounding of each value, the basis,
        # the coefficients and the dot product are ints: converting the
        # coefficients in (and their sum |A_k|) uses no mpf operator
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__pow__", "__abs__", "__neg__"):
            method = getattr(mp.mpf, name)
            monkeypatch.setattr(mp.mpf, name, lambda *a, _m=method, _n=name:
                                calls.append(_n) or _m(*a))
        with mp.workdps(100):
            rng = random.Random(1901)
            signal = make_signal([mpf(rng.uniform(-3, 3)) for _ in range(21)])
            points = [mpf(rng.uniform(-4, 4)) for _ in range(5)]
            series_values(make_signal([1, 1]), points)  # normalizers: once per precision
            calls.clear()
            values = series_values(signal, points)
            assert calls == []
            assert abs(values[2] - mp.fsum(c * basis_value(k, points[2])
                                           for k, c in enumerate(signal.coeffs))) < 1e-90
            assert calls  # the guard sees the operators the check above used

    def test_normalizers_are_correctly_rounded(self):
        # each normalizer is the exact value rounded once to prec bits: the
        # same as a value taken 200 bits wider and then rounded
        for prec in range(53, 1200):
            with mp.workprec(prec + 200):
                wide = 1 / mp.sqrt(2 * mp.pi), 1 / mp.sqrt(mp.pi)
            with mp.workprec(prec):
                assert _normalizers(prec) == (+wide[0], +wide[1]), prec

    def test_kernel_is_the_only_cosine_evaluation(self):
        # every cosine series in the package goes through cosine_basis, the
        # grid form's cos_sin seeds included; the one sine outside it is the
        # closed form of the overlap moments, int cos(jt) dt = sin(jt) / j
        tokens = ("mp.cos(", "cos_sin(", "mp.sin(", "cospi(", "sinpi(")
        package = pathlib.Path(superosc.__file__).parent
        sites = {}
        for path in sorted(package.glob("*.py")):
            source = path.read_text()
            functions = [node for node in ast.walk(ast.parse(source))
                         if isinstance(node, ast.FunctionDef)]
            for lineno, line in enumerate(source.splitlines(), start=1):
                for token in tokens:
                    if token in line:
                        enclosing = [f for f in functions
                                     if f.lineno <= lineno <= f.end_lineno]
                        name = min(enclosing, key=lambda f: f.end_lineno - f.lineno,
                                   default=None)
                        sites.setdefault((path.name, name and name.name), set()).add(token)
        assert sites == {("signals.py", "cosine_basis"): {"mp.cos(", "cos_sin("},
                         ("domains.py", "overlap_matrix"): {"mp.sin("}}

    def test_grid_values_are_point_values(self):
        # the grid form (angle addition from two cosines) gives the values of
        # the one-point form at the rounded points lo + k*step, bit for bit
        rng = random.Random(2201)
        cases = [(count, lo, step) for count in ("2", "2N+1", "1001")
                 for lo in ("-pi", "random") for step in ("2pi/count", "random")]
        for count, lo, step in cases * 2:
            n = rng.randint(1, 40)
            with mp.workprec(rng.randint(53, 700)):
                scale = mpf(10) ** rng.randint(-30, 30)
                signal = make_signal([scale * rng.uniform(-1, 1) for _ in range(n + 1)])
                count = {"2": 2, "2N+1": 2 * n + 1, "1001": 1001}[count]
                lo = -mp.pi if lo == "-pi" else mpf(rng.uniform(-4, 4))
                step = 2 * mp.pi / count if step == "2pi/count" \
                    else mpf(rng.uniform(1e-4, 0.05))
                points = [lo + k * step for k in range(count)]
                grid = series_values(signal, points, step)
                assert grid == series_values(signal, points), (n, mp.prec, count)
                assert len(grid) == count


class TestEnergy:
    @pytest.mark.parametrize("slot", [0, 3, 8])
    def test_unit_vector_energy(self, slot):
        coeffs = [0] * 9
        coeffs[slot] = 1
        assert abs(energy_per_period(make_signal(coeffs), CTX) - 1) < 1e-15

    def test_zero_energy(self):
        assert energy_per_period(make_signal([0] * 5), CTX) == 0

    def test_energy_nonnegative_and_zero_iff_zero(self):
        s = make_signal([0, 0, 1e-8, 0])
        assert energy_per_period(s, CTX) > 0

    def test_parseval_against_quadrature(self):
        import random
        rng = random.Random(12)
        s = make_signal([rng.uniform(-3, 3) for _ in range(11)])
        coeff_energy = energy_per_period(s, CTX)
        integral = quad_energy(s)
        assert abs(coeff_energy - integral) / coeff_energy < 1e-10


class TestSample:
    def test_constant_samples(self):
        with CTX.workprec():
            s = make_signal([mp.sqrt(2 * mp.pi), 0])
        pts = sample(s, -1, 2, 3, CTX)
        assert len(pts) == 3
        assert all(abs(v - 1) < 1e-14 for _, v in pts)

    def test_two_points_are_endpoints(self):
        s = make_signal([1, 1])
        pts = sample(s, 0.25, 0.75, 2, CTX)
        assert abs(pts[0][0] - mpf("0.25")) < 1e-15
        assert abs(pts[1][0] - mpf("0.75")) < 1e-15

    def test_count_below_two_rejected(self):
        with pytest.raises(ValueError):
            sample(make_signal([1, 1]), 0, 1, 1, CTX)

    @pytest.mark.parametrize("lo, hi", [(1, 1), (1, "0.5"), ("0.1", "0.1")])
    def test_empty_or_reversed_range_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="need lo < hi"):
            sample(make_signal([1, 1]), lo, hi, 5, CTX)

    def test_values_are_evaluate_bit_for_bit(self):
        # sample shares one precision context across its points; each value
        # must still be exactly what evaluate gives at that point
        import random
        ctx = Context(30)
        rng = random.Random(7)
        s = make_signal([rng.uniform(-3, 3) for _ in range(13)])
        pts = sample(s, "-0.3", 2, 257, ctx)
        assert [v for _, v in pts] == [evaluate(s, t, ctx) for t, _ in pts]

    def test_single_harmonic_max_close_to_one(self):
        with CTX.workprec():
            s = make_signal([0] * 5 + [mp.sqrt(mp.pi)])
            pts = sample(s, -mp.pi, mp.pi, 10001, CTX)
        peak = max(abs(v) for _, v in pts)
        assert abs(peak - 1) < 1e-6


class TestValidation:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            FourierCosineSignal(band_limit=3, coeffs=(1, 2))

    def test_band_limit_zero_rejected(self):
        with pytest.raises(ValueError):
            FourierCosineSignal(band_limit=0, coeffs=(1,))

    def test_complex_rejected(self):
        with pytest.raises(ValueError):
            FourierCosineSignal(band_limit=1, coeffs=(1, 1j))

    def test_coefficients_keep_their_precision_outside_workprec(self):
        with mp.workdps(100):
            third = mpf(1) / 3
        signal = make_signal([third, 1])
        assert signal.coeffs[0] == third
        with mp.workdps(100):
            assert signal.coeffs[0] == mpf(1) / 3

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            FourierCosineSignal(band_limit=1, coeffs=(1, math.inf))
