"""Tests for yields, crossing counts, and sweeps."""

import pathlib
import random
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
    _hessenberg_eigenvalues,
    _node_count,
    count_sign_changes,
)

from oracles import gauss_legendre, grid_crossings

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


def colleague(a):
    """Transposed colleague matrix of sum a_k T_k as rows of mpf."""
    n = len(a) - 1
    if n == 1:
        return [[-a[0] / a[1]]]
    h = [[mpf(0)] * n for _ in range(n)]
    for i in range(n - 1):
        h[i][i + 1] = h[i + 1][i] = mpf(1) / 2
    h[1][0] = mpf(1)
    for k in range(n):
        h[k][n - 1] -= a[k] / (2 * a[n])
    return h


class TestHessenbergEigenvalues:
    @given(st.integers(1, 20), st.integers(30, 80), st.integers(0, 2 ** 32 - 1),
           st.one_of(st.just(0), st.integers(5, 20)))
    @settings(max_examples=25, deadline=None)
    def test_matches_general_eigensolver(self, degree, dps, seed, grade):
        # uniform random coefficients: the roots are simple with probability
        # 1; a leading coefficient times 10^-grade grades the last column up
        # to 10^grade, which the fixed-point unit must resolve beside the 1/2s
        rng = random.Random(seed)
        with mp.workdps(dps):
            a = [mpf(rng.uniform(-1, 1)) for _ in range(degree + 1)]
            a[-1] *= mpf(10) ** -grade
            h = colleague(a)
            scale = max(abs(x) for row in h for x in row)
            # mp.eig wraps the eigenvalue of a 1x1 matrix in a list
            expected = [h[0][0]] if degree == 1 else \
                sorted(mp.re(x) for x in mp.eig(mp.matrix(h), left=False, right=False))
            got = sorted(_hessenberg_eigenvalues([row[:] for row in h]))
            assert len(got) == degree
            assert max(abs(x - y) for x, y in zip(got, expected)) <= \
                mpf(10) ** (10 - dps) * scale

    def test_complex_pair(self):
        # real parts, twice for a pair: 2x^2 + 1 = T_2 + 2 T_0 has roots
        # +-i/sqrt(2); 1 +- i sqrt 2 splits off as a 2x2 block; (x - 2)(x^2 + 1)
        # needs sweeps to split its pair +-i off
        with mp.workdps(40):
            assert _hessenberg_eigenvalues(colleague([mpf(2), mpf(0), mpf(1)])) == [0, 0]
            assert _hessenberg_eigenvalues([[mpf(1), mpf(-2)], [mpf(1), mpf(1)]]) == [1, 1]
            h = [[mpf(2), mpf(-1), mpf(2)], [mpf(1), mpf(0), mpf(0)], [mpf(0), mpf(1), mpf(0)]]
            got = sorted(_hessenberg_eigenvalues(h))
            for x, y in zip(got, [0, 0, 2]):
                assert abs(x - y) < mpf(10) ** -38

    def test_zero_matrix(self):
        # ||h||_1 = 0 sets no unit of its own; every value is exactly 0
        with mp.workdps(40):
            for n in range(1, 7):
                assert _hessenberg_eigenvalues([[mpf(0)] * n for _ in range(n)]) == [0] * n

    def test_sweeps_do_no_mpf_arithmetic(self, monkeypatch):
        # the sweeps run on ints: only converting the n^2 entries in (and
        # their sum |h_ij|) and the n values out may touch mpf, and none of
        # those is an mpf operator
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__pow__", "__abs__", "__neg__"):
            method = getattr(mp.mpf, name)
            monkeypatch.setattr(mp.mpf, name, lambda *a, _m=method, _n=name:
                                calls.append(_n) or _m(*a))
        with mp.workdps(125):
            rng = random.Random(1401)
            h = colleague([mpf(rng.uniform(-1, 1)) for _ in range(11)])
            calls.clear()
            values = _hessenberg_eigenvalues(h)
            assert calls == []
            assert len(values) == 10  # the real parts sum to the trace
            assert abs(mp.fsum(values) - mp.fsum(h[i][i] for i in range(10))) \
                <= mpf(10) ** -100 * mp.fsum((x for row in h for x in row), absolute=True)
            assert calls  # the guard sees the operators the check above used

    def test_spectrum_report_crossings(self):
        # the benchmark's spectrum report at the CLI's 10^4 points per unit
        domain = symmetrize_domain("0.5", "1")
        result = design_spectrum(10, 9, domain, Context(100))
        assert [zero_crossings(sig, domain, 10000)
                for sig in result.spectrum.signals] == [20, 18, 16]

    def test_double_root_at_minus_one(self):
        # (1 + cos t)^2 cos t = x (1 + x)^2 = T_0 + 7/4 T_1 + T_2 + 1/4 T_3
        with mp.workdps(50):
            a = [mpf(1), mpf(7) / 4, mpf(1), mpf(1) / 4]
            got = sorted(_hessenberg_eigenvalues(colleague(a)))
            assert abs(got[0] + 1) < mpf(10) ** -20 and abs(got[1] + 1) < mpf(10) ** -20
            assert abs(got[2]) < mpf(10) ** -45

    def test_orders_one_and_two(self):
        with mp.workdps(30):
            assert _hessenberg_eigenvalues([[mpf(3)]]) == [3]
            got = sorted(_hessenberg_eigenvalues([[mpf(1), mpf(2)], [mpf(3), mpf(4)]]))
            for x, y in zip(got, [(5 - mp.sqrt(33)) / 2, (5 + mp.sqrt(33)) / 2]):
                assert abs(x - y) < mpf(10) ** -28

    def test_cyclic_permutation_converges(self):
        # the cube roots of unity: the QR deflates only after the exceptional
        # shift at sweep 10
        with mp.workdps(30):
            h = [[mpf(0), mpf(0), mpf(1)], [mpf(1), mpf(0), mpf(0)], [mpf(0), mpf(1), mpf(0)]]
            got = sorted(_hessenberg_eigenvalues(h))
            for x, y in zip(got, [mpf(-1) / 2, mpf(-1) / 2, mpf(1)]):
                assert abs(x - y) < mpf(10) ** -28

    def test_no_general_eigensolver_in_package(self):
        # roots come from the real Hessenberg QR; mp.eig stays a test oracle
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
        # a leading term sampling can see: the colleague matrix has an entry
        # of 1e21, and one of its eigenvalues takes 32 QR sweeps
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
