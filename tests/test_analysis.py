"""Tests for yields, crossing counts, and sweeps."""

import pathlib
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import superosc
from superosc import (
    Context,
    Domain,
    FourierCosineSignal,
    design_spectrum,
    energy_per_period,
    monotonicity_table,
    overlap_matrix,
    scaling_sweep,
    symmetrize_domain,
    yield_of,
    zero_crossings,
)
from superosc import analysis
from superosc.analysis import (
    _gauss_legendre,
    _node_count,
    count_sign_changes,
)

from oracles import chebyshev_roots, gauss_legendre, grid_crossings

CTX = Context(15)
CTX30 = Context(30)


def harmonic_signal(n, slot, amplitude):
    coeffs = [mpf(0)] * (n + 1)
    coeffs[slot] = amplitude
    return FourierCosineSignal(band_limit=n, coeffs=tuple(coeffs))


class TestYield:
    def test_full_period_yield_is_one(self):
        domain = Domain(((-mp.pi, mp.pi),))
        sig = harmonic_signal(6, 4, mpf(2))
        report = yield_of(sig, domain, ctx=CTX)
        assert abs(report.algebraic - 1) < 1e-10
        assert abs(report.quadrature - 1) < 1e-10

    def test_constant_signal_single_interval(self):
        a = mpf("0.8")
        domain = symmetrize_domain(0, a)
        with CTX.workprec():
            sig = FourierCosineSignal(band_limit=1,
                                      coeffs=(mp.sqrt(2 * mp.pi), mpf(0)))
        report = yield_of(sig, domain, ctx=CTX)
        with CTX.workprec():
            expected = a / mp.pi
        assert abs(report.algebraic - expected) / expected < 1e-13
        assert abs(report.quadrature - expected) / expected < 1e-10

    def test_spectrum_signals_reproduce_eigenvalues(self):
        domain = symmetrize_domain(0, 1)
        result = design_spectrum(8, 5, domain, CTX30)
        for lam, sig in zip(result.spectrum.eigenvalues, result.spectrum.signals):
            report = yield_of(sig, domain, result.delta, CTX30)
            assert abs(report.algebraic - lam) / lam < 1e-8

    # the 60-digit case is smaller because quadrature cost grows with digits
    @pytest.mark.parametrize("ctx, n, m", [(CTX, 7, 4), (Context(60), 5, 3)],
                             ids=["15", "60"])
    def test_quadrature_matches_algebraic_on_solver_output(self, ctx, n, m):
        domain = symmetrize_domain(0, "1.2")
        result = design_spectrum(n, m, domain, ctx)
        for lam, sig in zip(result.spectrum.eigenvalues, result.spectrum.signals):
            if lam < mpf("1e-12"):
                continue
            report = yield_of(sig, domain, result.delta, ctx)
            gap = abs(report.algebraic - report.quadrature)
            assert gap / report.algebraic < 1e-8
            if lam > ctx.trust_floor:
                assert gap < mpf(10) ** (3 - ctx.digits)

    # yield_of's numerator takes one fdot per entry of Delta c and one over
    # c, the roundings of mpmath's matrix product, so the documents keep
    # every digit they printed when Delta was an mp.matrix
    @pytest.mark.parametrize("digits", [15, 30, 100])
    @pytest.mark.parametrize("inner", ["0", "0.5"], ids=["interval", "annulus"])
    def test_algebraic_is_the_matrix_product_bit_for_bit(self, inner, digits):
        ctx = Context(digits)
        domain = symmetrize_domain(inner, 1)
        result = design_spectrum(10, 5, domain, ctx)
        for sig in result.spectrum.signals:
            report = yield_of(sig, domain, result.delta, ctx)
            with ctx.workprec():
                v, energy = mp.matrix(sig.coeffs), energy_per_period(sig, ctx)
                expected = (v.T * (mp.matrix(result.delta.entries) * v))[0] / energy
            assert report.algebraic == expected

    def test_zero_energy_rejected(self):
        domain = symmetrize_domain(0, 1)
        sig = FourierCosineSignal(band_limit=2, coeffs=(0, 0, 0))
        with pytest.raises(ValueError):
            yield_of(sig, domain, ctx=CTX)

    def test_mismatched_delta_rejected(self):
        domain = symmetrize_domain(0, 1)
        other = overlap_matrix(symmetrize_domain(0, "0.5"), 4, CTX)
        sig = harmonic_signal(4, 2, mpf(1))
        with pytest.raises(ValueError):
            yield_of(sig, domain, other, CTX)


class TestQuadratureRules:
    def test_node_count_grows_with_bandwidth_length_and_digits(self):
        for digits in (30, 60, 130):
            counts = [_node_count(n, length, digits)
                      for n, length in ((2, 0.5), (10, 0.5), (10, 2), (20, 2), (20, 6.28))]
            assert counts == sorted(set(counts)), counts
        counts = [_node_count(10, 1, digits) for digits in (30, 60, 130)]
        assert counts == sorted(set(counts)), counts

    @pytest.mark.parametrize("count", [6, 7])
    def test_rule_exact_up_to_degree_2n_minus_1(self, count):
        with mp.workdps(50):
            rule = _gauss_legendre(count, mp.prec)
            assert len(rule) == count
            for degree in range(2 * count + 1):
                got = mp.fsum(w * x ** degree for x, w in rule)
                exact = mpf(2) / (degree + 1) if degree % 2 == 0 else 0
                if degree < 2 * count:
                    assert abs(got - exact) < mpf(10) ** -45, degree
                else:
                    assert abs(got - exact) > mpf(10) ** -10, degree

    @pytest.mark.parametrize("count, prec", [
        (61, 462), (20, 120),
        (58, 445), (60, 455), (44, 143), (52, 193), (92, 322), (115, 399),
        *[(count, prec) for prec in (64, 256) for count in (2, 3, 5, 8, 13)],
    ])
    def test_float_start_gives_the_mpf_only_rule(self, count, prec):
        # (61, 462) is the first mode's rule in the benchmark's spectrum
        # report, (92, 322) and (115, 399) the ends of an N=20 70-digit one:
        # the fixed-point Newton steps give the mpf iteration's rule bit for bit
        assert _gauss_legendre(count, prec) == gauss_legendre(count, prec)

    def test_fixed_point_rule_exact_at_300_bits(self):
        with mp.workprec(300):
            rule = _gauss_legendre(20, 300)
            for degree in range(41):
                got = mp.fsum(w * x ** degree for x, w in rule)
                exact = mpf(2) / (degree + 1) if degree % 2 == 0 else 0
                if degree < 40:
                    assert abs(got - exact) < mp.ldexp(1, -290), degree
                else:
                    assert abs(got - exact) > mpf(10) ** -20

    def test_routes_agree_on_benchmark_configuration(self):
        # The benchmark's spectrum report: N=10, M=9 on the annulus (0.5, 1)
        # at 100 digits.  The node count sits near the least that holds the
        # routes together: half of it misses by far more than 10^(3-digits).
        ctx = Context(100)
        domain = symmetrize_domain("0.5", 1)
        result = design_spectrum(10, 9, domain, ctx)
        checked = 0
        for lam, sig in zip(result.spectrum.eigenvalues, result.spectrum.signals):
            if lam > ctx.trust_floor:
                report = yield_of(sig, domain, result.delta, ctx)
                assert abs(report.algebraic - report.quadrature) < mpf(10) ** (3 - ctx.digits)
                checked += 1
        assert checked == 3

    def test_no_adaptive_quadrature_in_package(self):
        # the yields use fixed rules; adaptive quadrature stays a test oracle
        package = pathlib.Path(superosc.__file__).parent
        sites = [(path.name, lineno)
                 for path in sorted(package.glob("*.py"))
                 for lineno, line in enumerate(path.read_text().splitlines(), start=1)
                 if "mp.quad" in line or re.search(r"\bquad\w*\(", line)]
        assert sites == []


class TestEvenQuadrature:
    """f is even: a rule centred at 0 evaluates f once per +-x pair, and an
    interval whose mirror is in the domain reuses the mirror's integral."""

    @pytest.mark.parametrize("digits", [15, 30, 100])
    @pytest.mark.parametrize("domain", [
        symmetrize_domain(0, "0.8"), symmetrize_domain("0.5", 1), Domain(((0.2, 1.2),)),
    ], ids=["interval", "annulus", "asymmetric"])
    def test_matches_every_node_evaluated(self, monkeypatch, domain, digits):
        ctx = Context(digits)
        signal = design_spectrum(8, 5, domain, ctx).optimal_signal
        integrals, sizes = [], []
        integrate, values_at = analysis._integrate_squared, analysis.series_values

        def spy_integrate(sig, lo, hi, quad_digits):
            integrals.append((mp.prec, quad_digits))
            return integrate(sig, lo, hi, quad_digits)

        def spy_values(sig, points, step=None):
            if step is None:
                sizes.append(len(points))
            return values_at(sig, points, step)

        monkeypatch.setattr(analysis, "_integrate_squared", spy_integrate)
        monkeypatch.setattr(analysis, "series_values", spy_values)
        report = yield_of(signal, domain, ctx=ctx)
        assert len(integrals) == 1  # the annulus integrates one of its two intervals
        prec, quad_digits = integrals[0]
        with mp.workprec(prec):
            parts = []
            for lo, hi in domain.intervals:
                lo, hi = mpf(lo), mpf(hi)
                half, mid = (hi - lo) / 2, (hi + lo) / 2
                count = _node_count(signal.band_limit, float(hi - lo), quad_digits)
                rule = _gauss_legendre(count, prec)
                values = values_at(signal, [mid + half * x for x, _ in rule])
                parts.append(half * mp.fsum(w * v * v for (_, w), v in zip(rule, values)))
            full = mp.fsum(parts) / analysis._integrate_squared_period(signal)
        with ctx.workprec():
            assert report.quadrature == +full
        lo, hi = domain.intervals[0]
        count = _node_count(signal.band_limit, float(hi - lo), quad_digits)
        assert sizes == [(count + 1) // 2 if lo == -hi else count]


def chebyshev_times_root(a, root):
    """Chebyshev coefficients of (x - root) p for p = sum a_k T_k:
    x T_0 = T_1 and x T_k = (T_k-1 + T_k+1)/2."""
    out = [-root * ak for ak in a] + [mpf(0)]
    for k, ak in enumerate(a):
        if k == 0:
            out[1] += ak
        else:
            out[k - 1] += ak / 2
            out[k + 1] += ak / 2
    return out


class TestRealRoots:
    """analysis._real_roots, the integer real-root isolator behind the
    crossing count, against mp.polyroots at twice the digits."""

    @pytest.mark.parametrize("roots, pairs", [
        # simple roots, two 1e-6 apart, and two outside [-1, 1]
        ([mpf("0.1"), mpf("-0.37"), mpf("0.5"), mpf("0.5") + mpf("1e-6"),
          mpf("0.93"), mpf("-0.999"), mpf("1.5"), mpf(-3)], []),
        # double roots at x = -1, 0 and 1, with simple ones beside them; the
        # coefficients are exact in binary, so rounding them to ints keeps
        # the double roots double
        ([mpf(-1), mpf(-1), mpf(0), mpf(0), mpf(1), mpf(1),
          mpf("0.6875"), mpf("-0.1875")], []),
        # a double root off the dyadics: rounded to ints it is a close pair, real
        # or not, kept where its interval's t-image falls below the step
        ([mpf("0.3"), mpf("0.3"), mpf("-0.55")], []),
        # conjugate pairs 1e-8 off the axis, over the real line and near x = +-1
        ([mpf("0.25"), mpf("-0.6")], [mpf("0.3"), mpf("-0.71"), mpf("0.9999")]),
    ], ids=["simple", "double", "tangent", "complex-pairs"])
    @pytest.mark.parametrize("dps", [30, 60])
    def test_kept_intervals_match_real_roots(self, roots, pairs, dps):
        step = 1e-10  # far below the pairs' 1e-8, so Descartes' rule drops them
        with mp.workdps(dps):
            a = [mpf(1)]
            for root in roots:
                a = chebyshev_times_root(a, root)
            for mid in pairs:  # times (x - mid)^2 + 1e-16
                square = chebyshev_times_root(chebyshev_times_root(a, mid), mid)
                a = [u + mpf("1e-16") * v for u, v in zip(square, a + [0, 0])]
            kept = analysis._real_roots(a, step)
        with mp.workdps(2 * dps):
            tol = mpf(10) ** (5 - dps // 2)
            real = [mp.re(z) for z in chebyshev_roots(a, dps) if abs(mp.im(z)) <= tol]
            intervals = [(mpf((lo, -exp)), mpf((hi, -exp))) for lo, hi, exp in kept]
            # every kept interval holds a real root: none is kept for a pair
            for lo, hi in intervals:
                assert any(lo - tol <= x <= hi + tol for x in real), (lo, hi)
            # and no real root in [-1, 1] is missed
            for x in real:
                if -1 - tol <= x <= 1 + tol:
                    assert any(lo - tol <= x <= hi + tol for lo, hi in intervals), x

    def test_t_width_holds_at_both_ends(self):
        # the stop test's float width of acos(2y - 1) over [c, c + 1] 2^-k,
        # where acos of a float x within 2^-53 of 1 reads 0
        with mp.workdps(60):
            for c, k in ((0, 80), ((1 << 80) - 1, 80), (1, 60), ((1 << 60) - 2, 60),
                         (3 << 28, 30), (12345, 20)):
                exact = mp.acos(mpf((2 * c, -k)) - 1) - mp.acos(mpf((2 * c + 2, -k)) - 1)
                assert abs(analysis._t_width(c, k) - exact) <= 1e-15 + 1e-14 * exact

    def test_isolation_does_no_mpf_arithmetic(self, monkeypatch):
        # between the coefficients' conversion to ints and the acos of the
        # kept intervals the isolator works on ints: no mpf operator runs
        phase, calls = ["convert"], []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__pow__", "__abs__", "__neg__"):
            method = getattr(mp.mpf, name)
            monkeypatch.setattr(mp.mpf, name, lambda *a, _m=method, _n=name:
                                calls.append((phase[0], _n)) or _m(*a))
        to_ints, acos = analysis.fixed_rows, mp.acos

        def convert(*args):
            ints = to_ints(*args)
            phase[0] = "ints"
            return ints

        monkeypatch.setattr(analysis, "fixed_rows", convert)
        monkeypatch.setattr(mp, "acos", lambda x: phase.__setitem__(0, "acos") or acos(x))
        domain = symmetrize_domain("0.5", "1")
        signal = design_spectrum(10, 6, domain, Context(60)).optimal_signal
        calls.clear()
        assert zero_crossings(signal, domain, 10000) == \
            grid_crossings(signal, domain, 10000)
        assert [name for stage, name in calls if stage == "ints"] == []
        # the guard sees the operators before the conversion and after acos
        assert {stage for stage, _ in calls} == {"convert", "acos"}

    def test_no_general_eigensolver_in_package(self):
        # real roots come from Descartes' rule on ints; mp.eig stays a test oracle
        package = pathlib.Path(superosc.__file__).parent
        sites = [(path.name, lineno)
                 for path in sorted(package.glob("*.py"))
                 for lineno, line in enumerate(path.read_text().splitlines(), start=1)
                 if "mp.eig(" in line]
        assert sites == []

    def test_no_polynomial_roots_or_complex_numbers_in_package(self):
        # the spectrum's cross-check is Jacobi on the bordered matrix, so no
        # code in the package roots a polynomial or carries an mpc
        package = pathlib.Path(superosc.__file__).parent
        sites = [(path.name, lineno)
                 for path in sorted(package.glob("*.py"))
                 for lineno, line in enumerate(path.read_text().splitlines(), start=1)
                 if "polyroots" in line or "mpc" in line]
        assert sites == []


@st.composite
def crossing_cases(draw):
    n = draw(st.integers(1, 12))
    coeffs = draw(st.lists(st.one_of(st.just(0), st.floats(-10, 10)),
                           min_size=n + 1, max_size=n + 1))
    cuts = sorted(draw(st.lists(st.floats(-3.14, 3.14), min_size=2, max_size=4,
                                unique=True)))
    cuts = cuts if len(cuts) % 2 == 0 else cuts[:-1]
    assume(min(b - a for a, b in zip(cuts, cuts[1:])) > 0.01)
    domain = Domain(tuple(zip(cuts[::2], cuts[1::2])))
    return FourierCosineSignal(band_limit=n, coeffs=tuple(coeffs)), domain


class TestZeroCrossings:
    def test_pure_harmonic_crossings(self):
        # cos(5t) has zeros at odd multiples of pi/10: ten inside (-pi, pi)
        with CTX.workprec():
            sig = harmonic_signal(5, 5, mp.sqrt(mp.pi))
        domain = Domain(((-mp.pi, mp.pi),))
        assert zero_crossings(sig, domain, 20001) == 10

    def test_constant_has_no_crossings(self):
        with CTX.workprec():
            sig = FourierCosineSignal(band_limit=1,
                                      coeffs=(mp.sqrt(2 * mp.pi), mpf(0)))
        assert zero_crossings(sig, symmetrize_domain(0, 1), 2000) == 0

    def test_single_crossing_through_grid_region(self):
        with CTX.workprec():
            sig = harmonic_signal(1, 1, mp.sqrt(mp.pi))
            domain = Domain(((mp.pi / 4, 3 * mp.pi / 4),))
        assert zero_crossings(sig, domain, 2001) == 1

    def test_exact_zero_samples_count_once(self):
        assert count_sign_changes([1, 0, 1]) == 0
        assert count_sign_changes([1, 0, -1]) == 1
        assert count_sign_changes([1, 0, 0, -1, 1]) == 2
        assert count_sign_changes([0, 0, 2, -3]) == 1
        assert count_sign_changes([0, 0]) == 0

    def test_top_two_spectrum_signals_differ_by_two(self):
        domain = symmetrize_domain(0, 2)
        result = design_spectrum(10, 6, domain, CTX30)
        top = zero_crossings(result.spectrum.signals[-1], domain, 50001)
        second = zero_crossings(result.spectrum.signals[-2], domain, 50001)
        assert second - top == 2

    def test_counts_even_on_symmetric_domain(self):
        domain = symmetrize_domain(0, "1.5")
        result = design_spectrum(7, 4, domain, CTX30)
        for sig in result.spectrum.signals:
            assert zero_crossings(sig, domain, 30001) % 2 == 0

    @given(crossing_cases(), st.integers(1000, 5000))
    @settings(max_examples=30, deadline=None)
    def test_matches_full_grid(self, case, grid_points):
        signal, domain = case
        assert zero_crossings(signal, domain, grid_points) == \
            grid_crossings(signal, domain, grid_points)

    @pytest.mark.parametrize("coeffs, expected", [
        ((0, 0, 0), 0),                # every sample is exactly zero
        ((1, -2, 0, 0), 2),            # trailing zeros: degree 1 in cos t
        ((0, 0, 0, 1, 0, 0), 6),       # cos(3t) padded to N=5
        ((0, 0, 0, 0, 0, 1, 1e-190), 10),  # a leading term sampling cannot see
        # a leading term sampling can see: 2e-21 T_10 beside 4 T_1 puts nine
        # roots of p far outside [-1, 1], where the isolator never looks
        ((0, 4) + (0,) * 8 + (2.0691250751490239e-21,), 2),
    ])
    def test_degenerate_series(self, coeffs, expected):
        signal = FourierCosineSignal(band_limit=len(coeffs) - 1, coeffs=coeffs)
        domain = Domain(((-mp.pi, mp.pi),))
        assert zero_crossings(signal, domain, 3001) == expected
        assert grid_crossings(signal, domain, 3001) == expected

    @pytest.mark.parametrize("sign", [1, -1])
    def test_tangent_zero_at_x_plus_minus_one(self, sign):
        # 1 - cos t touches zero at t = 0 (x = 1), 1 + cos t at t = +-pi
        # (x = -1), the end samples of (-pi, pi).  The samples there are
        # rounding noise of either sign, which read as two sign changes on
        # these grids unless noise below the sampling error counts as zero.
        with CTX.workprec():
            signal = FourierCosineSignal(
                band_limit=1, coeffs=(mp.sqrt(2 * mp.pi), -sign * mp.sqrt(mp.pi)))
        domain = Domain(((-mp.pi, mp.pi),))
        for grid_points in (1000, 1001, 2000, 3001, 4097):
            assert zero_crossings(signal, domain, grid_points) == 0
            assert grid_crossings(signal, domain, grid_points) == 0

    def test_exact_zero_sample_at_tangent(self):
        # f = (cos t - cos 2t)/sqrt(pi) is exactly 0 at t = 0, which is a grid
        # sample of (-1, 1) with 1025 points (step 2^-9) and the first sample
        # of (0, 3); its other root cos t = -1/2 lies at 2pi/3
        signal = FourierCosineSignal(band_limit=2, coeffs=(0, 1, -1))
        for domain, expected in (((-1, 1),), 0), (((0, 3),), 1), (((-3, 0),), 1):
            domain = Domain(domain)
            assert zero_crossings(signal, domain, 1025) == expected
            assert grid_crossings(signal, domain, 1025) == expected

    def test_root_within_one_cell_of_interval_end(self):
        # cos t changes sign at pi/2; grid steps here are about 1e-3
        with CTX.workprec():
            signal = harmonic_signal(1, 1, mp.sqrt(mp.pi))
            near = mpf("5e-4")
            cases = [((mpf("0.5"), mp.pi / 2 + near), 1),
                     ((mpf("0.5"), mp.pi / 2 - near), 0),
                     ((mp.pi / 2 - near, mpf("1.6")), 1),
                     ((mp.pi / 2 + near, mpf("1.6")), 0)]
        for (lo, hi), expected in cases:
            domain = Domain(((lo, hi),))
            assert zero_crossings(signal, domain, 1000) == expected, (lo, hi)
            assert grid_crossings(signal, domain, 1000) == expected, (lo, hi)

    def test_evaluates_only_samples_next_to_roots(self, monkeypatch):
        # a 400 000-point grid over ten roots costs tens of evaluations
        calls = []
        kernel = superosc.signals.cosine_basis
        monkeypatch.setattr(superosc.signals, "cosine_basis",
                            lambda n, t: calls.append(t) or kernel(n, t))
        with CTX.workprec():
            signal = harmonic_signal(5, 5, mp.sqrt(mp.pi))
        assert zero_crossings(signal, Domain(((-mp.pi, mp.pi),)), 400000) == 10
        assert len(calls) <= 2 + 4 * 10

    def test_small_grid_rejected(self):
        sig = harmonic_signal(2, 1, mpf(1))
        with pytest.raises(ValueError):
            zero_crossings(sig, symmetrize_domain(0, 1), 999)

    def test_spectrum_report_crossings(self):
        # the benchmark's spectrum report at the CLI's 10^4 points per unit
        domain = symmetrize_domain("0.5", "1")
        result = design_spectrum(10, 9, domain, Context(100))
        assert [zero_crossings(sig, domain, 10000)
                for sig in result.spectrum.signals] == [20, 18, 16]

    def test_double_root_at_minus_one(self):
        # (1 + cos t)^2 cos t = x (1 + x)^2 = T_0 + 7/4 T_1 + T_2 + 1/4 T_3
        # touches zero at t = +-pi, the ends of (-pi, pi); rounded to ints,
        # the double root at x = -1 is a close pair, real or complex, and
        # either way the count is the grid's
        with CTX.workprec():
            signal = FourierCosineSignal(band_limit=3, coeffs=(
                mp.sqrt(2 * mp.pi), mpf(7) / 4 * mp.sqrt(mp.pi), mp.sqrt(mp.pi),
                mp.sqrt(mp.pi) / 4))
        domain = Domain(((-mp.pi, mp.pi),))
        for grid_points in (1000, 1001, 3001, 4097):
            assert zero_crossings(signal, domain, grid_points) == \
                grid_crossings(signal, domain, grid_points) == 2


class TestScalingSweep:
    def test_single_radius_no_slope(self):
        table = scaling_sweep(6, 3, ["0.5"], CTX30)
        assert table.slopes == {}
        assert len(table.rows) == 5  # N+2-M
        assert not table.errors

    def test_rows_complete_and_positive(self):
        table = scaling_sweep(6, 3, ["0.5", "0.25"], CTX30)
        assert len(table.rows) == 10
        assert all(r.eigenvalue > 0 for r in table.rows)
        assert set(table.slopes) == {1, 2, 3, 4, 5}

    def test_small_radius_needs_high_precision(self):
        with pytest.raises(ValueError):
            scaling_sweep(6, 3, ["0.05"], CTX30)

    def test_radius_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            scaling_sweep(6, 3, [4.0], CTX30)

    def test_normalized_column_flat_below_half(self):
        # the scaled eigenvalues lambda_i / a^(4(N-i)+5) should drift by
        # less than a factor 2 across small radii
        import warnings as w
        from superosc import PrecisionWarning
        radii = [mpf(1) / 64, mpf(1) / 32, mpf(1) / 16, mpf(1) / 8, mpf(1) / 4]
        with w.catch_warnings():
            w.simplefilter("ignore", PrecisionWarning)
            table = scaling_sweep(10, 5, radii, Context(100))
        for i in range(1, 8):
            column = [r.normalized for r in table.rows if r.index == i]
            assert max(column) / min(column) < 2


class TestMonotonicityTable:
    def test_single_m_plain_listing(self):
        table = monotonicity_table(6, 1, [3], CTX30)
        assert len(table.rows) == 5
        assert all(r.key == 3 for r in table.rows)

    def test_top_index_matches_design_optimum(self):
        table = monotonicity_table(7, 1, [4], CTX30)
        top_row = max(table.rows, key=lambda r: r.index)
        result = design_spectrum(7, 4, symmetrize_domain(0, 1), CTX30)
        assert abs(top_row.eigenvalue - result.optimal_yield) < 1e-30

    def test_m_above_limit_rejected(self):
        with pytest.raises(ValueError):
            monotonicity_table(5, 1, [7], CTX30)

    def test_refused_configurations_are_recorded(self):
        # at 15 digits M=3 fails in the solver and M=6 has rank-deficient
        # constraint rows; both are reported per key instead of aborting
        table = monotonicity_table(10, "0.015625", [3, 6], CTX)
        assert not table.rows
        assert sorted(table.errors) == [3, 6]
        assert "linearly dependent" in table.errors[6]
