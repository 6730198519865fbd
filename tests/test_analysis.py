"""Tests for yields, crossing counts, and sweeps."""

import pytest
from mpmath import mp, mpf

from superosc import (
    Context,
    Domain,
    FourierCosineSignal,
    design_spectrum,
    monotonicity_table,
    overlap_matrix,
    scaling_sweep,
    symmetrize_domain,
    yield_of,
    zero_crossings,
)
from superosc.analysis import count_sign_changes

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
