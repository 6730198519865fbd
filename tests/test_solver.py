"""Tests for the generalized spectrum solver and baselines."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from superosc import (
    BlockDecomposition,
    Context,
    Domain,
    PrecisionWarning,
    RankDeficientConstraints,
    RotatedFrame,
    alternating_constraints,
    constraint_matrix,
    design_spectrum,
    energy_per_period,
    evaluate,
    fk_min_energy_signal,
    orthonormal_frame,
    overlap_matrix,
    polynomial_spectrum,
    rotate_and_partition,
    secular_spectrum,
    slepian_modes,
    symmetrize_domain,
)

from oracles import (
    min_norm_interpolant,
    mpf_matrix_to_numpy,
    projected_ascent_max_float,
    secular_equation,
)

CTX = Context(15)
CTX30 = Context(30)
CTX40 = Context(40)


def build_problem(n, m, domain, ctx, seed=0):
    cs = alternating_constraints(*_cinterval(domain), m)
    cm = constraint_matrix(cs, n, ctx)
    frame = orthonormal_frame(cm, cs.values, completion_seed=seed, ctx=ctx)
    delta = overlap_matrix(domain, n, ctx)
    blocks = rotate_and_partition(delta, frame, ctx)
    return cs, cm, frame, delta, blocks


def _cinterval(domain):
    lo, hi = domain.intervals[-1]
    return (mpf(0) if lo < 0 < hi else lo), hi


class TestRotatePartition:
    def test_identity_overlap_stays_identity(self):
        domain = Domain(((-mp.pi, mp.pi),))
        _, _, frame, delta, blocks = build_problem(7, 3, domain, CTX)
        f = blocks.free_dim
        for i in range(f):
            for j in range(f):
                assert abs(blocks.delta_free[i, j] - (1 if i == j else 0)) < 1e-12
        for i in range(f):
            for j in range(3):
                assert abs(blocks.gamma[i, j]) < 1e-12
        for i in range(3):
            for j in range(3):
                assert abs(blocks.delta_fixed[i, j] - (1 if i == j else 0)) < 1e-12

    def test_saturated_constraints_leave_no_free_block(self):
        domain = symmetrize_domain(0, 1)
        _, _, frame, delta, blocks = build_problem(5, 6, domain, CTX)
        assert blocks.free_dim == 0
        assert blocks.delta_fixed.rows == 6

    def test_blocks_symmetric(self):
        domain = symmetrize_domain(0, "1.3")
        _, _, frame, delta, blocks = build_problem(9, 4, domain, CTX)
        f = blocks.free_dim
        worst = max(abs(blocks.delta_free[i, j] - blocks.delta_free[j, i])
                    for i in range(f) for j in range(f))
        assert worst < 1e-25

    def test_dimension_mismatch_rejected(self):
        domain = symmetrize_domain(0, 1)
        _, _, frame, _, _ = build_problem(6, 3, domain, CTX)
        other = overlap_matrix(domain, 8, CTX)
        with pytest.raises(ValueError):
            rotate_and_partition(other, frame, CTX)


class TestSecularSpectrum:
    def test_root_count(self):
        domain = symmetrize_domain(0, 1)
        _, _, frame, _, blocks = build_problem(10, 5, domain, CTX30)
        spec = secular_spectrum(blocks, frame, CTX30)
        assert len(spec) == 7  # N+2-M

    def test_eigenvalues_ascending_in_unit_interval(self):
        domain = symmetrize_domain(0, "1.4")
        _, _, frame, _, blocks = build_problem(8, 4, domain, CTX30)
        spec = secular_spectrum(blocks, frame, CTX30)
        vals = spec.eigenvalues
        assert all(0 < v < 1 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_saturated_case_matches_direct_solve(self):
        domain = symmetrize_domain(0, "1.2")
        cs, cm, frame, delta, blocks = build_problem(4, 5, domain, CTX30)
        spec = secular_spectrum(blocks, frame, CTX30)
        assert len(spec) == 1
        with CTX30.workprec():
            a = mp.lu_solve(cm.entries, mp.matrix(cs.values))
            direct = (a.T * (delta.entries * a))[0] / (a.T * a)[0]
        assert abs(spec.eigenvalues[0] - direct) / direct < 1e-25

    def test_stationarity_residuals_small(self):
        domain = symmetrize_domain(0, 1)
        _, _, frame, _, blocks = build_problem(9, 4, domain, CTX30)
        spec = secular_spectrum(blocks, frame, CTX30)
        for res, fp in zip(spec.diagnostics["stationarity_residuals"],
                           spec.free_parts):
            with CTX30.workprec():
                scale = 1 + mp.sqrt((fp.T * fp)[0])
            assert res < mpf("1e-15") * scale

    def test_yield_consistency(self):
        domain = symmetrize_domain(0, 1)
        _, _, frame, delta, blocks = build_problem(9, 4, domain, CTX30)
        spec = secular_spectrum(blocks, frame, CTX30)
        with CTX30.workprec():
            for lam, sig in zip(spec.eigenvalues, spec.signals):
                vec = mp.matrix(sig.coeffs)
                ray = (vec.T * (delta.entries * vec))[0] / (vec.T * vec)[0]
                assert abs(ray - lam) / lam < mpf("1e-12")

    def test_constraint_satisfaction(self):
        from superosc import evaluate
        domain = symmetrize_domain(0, "0.9")
        cs, _, frame, _, blocks = build_problem(10, 6, domain, CTX30)
        spec = secular_spectrum(blocks, frame, CTX30)
        for sig in spec.signals:
            for t, v in zip(cs.points, cs.values):
                assert abs(evaluate(sig, t, CTX30) - v) < mpf("1e-15")

    def test_completion_seed_invariance(self):
        domain = symmetrize_domain(0, 1)
        r1 = design_spectrum(8, 4, domain, CTX30, seed=11)
        r2 = design_spectrum(8, 4, domain, CTX30, seed=20260808)
        for a, b in zip(r1.spectrum.eigenvalues, r2.spectrum.eigenvalues):
            assert abs(a - b) / a < 1e-10
        for s1, s2 in zip(r1.spectrum.signals, r2.spectrum.signals):
            worst = max(abs(x - y) for x, y in zip(s1.coeffs, s2.coeffs))
            assert worst < 1e-8

    def test_small_instance_matches_ascent_oracle(self):
        domain = symmetrize_domain(0, 1)
        cs, cm, frame, delta, blocks = build_problem(5, 3, domain, CTX)
        spec = secular_spectrum(blocks, frame, CTX)
        reference = projected_ascent_max_float(
            mpf_matrix_to_numpy(delta.entries),
            mpf_matrix_to_numpy(cm.entries),
            [float(v) for v in cs.values],
            restarts=60,
        )
        lam = float(spec.eigenvalues[-1])
        assert abs(lam - reference) / reference < 1e-8

    def test_zero_targets_rejected(self):
        domain = symmetrize_domain(0, 1)
        cs = alternating_constraints(0, 1, 3)
        cm = constraint_matrix(cs, 6, CTX)
        frame = orthonormal_frame(cm, (0, 0, 0), completion_seed=0, ctx=CTX)
        delta = overlap_matrix(domain, 6, CTX)
        blocks = rotate_and_partition(delta, frame, CTX)
        with pytest.raises(ValueError):
            secular_spectrum(blocks, frame, CTX)

    def test_frame_blocks_mismatch_rejected(self):
        domain = symmetrize_domain(0, 1)
        _, _, frame, _, _ = build_problem(6, 3, domain, CTX)
        _, _, _, _, other_blocks = build_problem(6, 4, domain, CTX)
        with pytest.raises(ValueError):
            secular_spectrum(other_blocks, frame, CTX)

    def test_trust_floor_warning(self):
        domain = symmetrize_domain(0, 1)
        _, _, frame, _, blocks = build_problem(10, 6, domain, CTX)
        with pytest.warns(PrecisionWarning):
            secular_spectrum(blocks, frame, CTX)


class TestSaturatedConstraints:
    def test_goes_through_the_trust_floor_check(self):
        # M = N+1: the one eigenvalue, 8.45e-19, is below the 1e-9 floor of
        # 15 digits and is checked like every other spectrum's smallest
        with pytest.warns(PrecisionWarning):
            result = design_spectrum(10, 11, symmetrize_domain(0, 1), CTX)
        assert len(result.spectrum) == 1
        assert result.spectrum.eigenvalues[0] < CTX.trust_floor


class TestSignalProperties:
    # Every N in [2, 10], M in [1, N+1] and a on a 0.1 grid of [0.5, 2.5]
    # solves at 40 digits (1323 configurations); over all of them the
    # quotient's relative distance from its eigenvalue is at most 2.0e-25
    # and the constraint residual at most 1.1e-56 of sum |A_k|.
    @given(nm=st.integers(2, 10).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(1, n + 1))),
           hundredths=st.integers(50, 250))
    @settings(max_examples=60, deadline=None)
    def test_yields_in_unit_interval_and_constraints_met(self, nm, hundredths):
        n, m = nm
        domain = symmetrize_domain(0, "%.2f" % (hundredths / 100))
        result = design_spectrum(n, m, domain, CTX40)
        frame = result.frame
        assert len(result.spectrum) == n + 2 - m
        with CTX40.workprec():
            for lam, sig in zip(result.spectrum.eigenvalues, result.spectrum.signals):
                vec = mp.matrix(sig.coeffs)
                ray = (vec.T * (result.delta.entries * vec))[0] / (vec.T * vec)[0]
                assert 0 < ray < 1
                if lam > CTX40.trust_floor:
                    assert abs(ray - lam) <= mpf("1e-20") * lam
                scale = mp.fsum(abs(c) for c in sig.coeffs)
                residual = max(abs(evaluate(sig, t, CTX40) - v)
                               for t, v in zip(frame.points, frame.values))
                assert residual <= mpf("1e-35") * scale


class TestFreeBasisInvariance:
    def test_rotating_the_null_space_basis_changes_nothing(self):
        # replace Q_f by Q_f U for a random orthogonal U: the spectrum and
        # the signals depend only on the null space, not on its basis
        domain = symmetrize_domain(0, 1)
        _, _, frame, delta, blocks = build_problem(9, 4, domain, CTX30)
        spec = secular_spectrum(blocks, frame, CTX30)
        f = frame.free_dim
        rng = random.Random(7)
        with CTX30.workprec():
            u, _ = mp.qr(mp.matrix([[rng.uniform(-1, 1) for _ in range(f)]
                                    for _ in range(f)]))
            rotation = frame.rotation.copy()
            rotation[0:f, :] = u.T * frame.rotation[0:f, :]
        turned = RotatedFrame(rotation=rotation, free_dim=f,
                              mu_tilde=frame.mu_tilde, completion_seed=1,
                              points=frame.points, values=frame.values)
        other = secular_spectrum(rotate_and_partition(delta, turned, CTX30),
                                 turned, CTX30)
        assert len(other) == len(spec) == 7
        for a, b in zip(spec.eigenvalues, other.eigenvalues):
            assert abs(a - b) / a < 1e-24
        for s1, s2 in zip(spec.signals, other.signals):
            scale = max(abs(c) for c in s1.coeffs)
            assert max(abs(x - y) for x, y in zip(s1.coeffs, s2.coeffs)) < 1e-20 * scale


class TestRankTest:
    def test_dependent_cell_refused_at_15_digits_solved_at_100(self):
        domain = symmetrize_domain(0, "0.015625")
        with pytest.raises(RankDeficientConstraints):
            design_spectrum(10, 6, domain, Context(15))
        result = design_spectrum(10, 6, domain, Context(100))
        assert len(result.spectrum) == 6


class TestBorderedMatchesSecular:
    # Over N in [3, 8], 2 <= M <= N and a in [0.5, 2] the smallest
    # eigenvalue is 2.6e-29 (N=8, M=2, a=0.5; every N, M on a 0.05 grid of
    # a solved at 80 digits), far above the 1e-34 trust floor of 40 digits.
    @given(nm=st.integers(3, 8).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(2, n))),
           hundredths=st.integers(50, 200))
    @settings(max_examples=25, deadline=None)
    def test_eigenvalues_are_roots_of_secular_function(self, nm, hundredths):
        n, m = nm
        domain = symmetrize_domain(0, "%.2f" % (hundredths / 100))
        _, _, frame, _, blocks = build_problem(n, m, domain, CTX40)
        spec = secular_spectrum(blocks, frame, CTX40)
        vals = spec.eigenvalues
        assert len(vals) == n + 2 - m
        assert all(0 < v < 1 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[0] > CTX40.trust_floor
        s = secular_equation(blocks.delta_free, blocks.gamma,
                             blocks.delta_fixed, frame.mu_tilde,
                             dps=CTX40.digits + 40)
        for y, deflated in zip(vals, spec.diagnostics["deflated"]):
            if not deflated:
                value, slope = s(y)
                assert abs(value) <= mpf(10) ** -CTX40.digits * abs(slope)


class TestPrecisionLadder:
    def test_100_and_130_digit_spectra_agree(self):
        domain = symmetrize_domain(0, 1)
        low = design_spectrum(10, 6, domain, Context(100)).spectrum.eigenvalues
        high = design_spectrum(10, 6, domain, Context(130)).spectrum.eigenvalues
        assert len(low) == len(high) == 6
        assert min(low) > mpf("1e-94")
        with Context(130).workprec():
            worst = max(abs(a - b) / b for a, b in zip(low, high))
        assert worst < mpf("1e-90")


class TestDeflation:
    def test_decoupled_pole_becomes_root(self):
        # Hand-built blocks with the second free direction fully decoupled.
        # Active part: s(Y) = 0.2 - Y - 0.01/(0.3 - Y), whose roots solve
        # Y^2 - 0.5Y + 0.05 = 0 -> (0.5 +- sqrt(0.05))/2 by the quadratic
        # formula; the decoupled pole 0.6 joins them as a root.
        with CTX.workprec():
            blocks = BlockDecomposition(
                delta_free=mp.matrix([["0.3", "0"], ["0", "0.6"]]),
                gamma=mp.matrix([["0.1"], ["0"]]),
                delta_fixed=mp.matrix([["0.2"]]),
            )
            frame = RotatedFrame(
                rotation=mp.eye(3),
                free_dim=2,
                mu_tilde=mp.matrix([mpf(1)]),
                completion_seed=0,
                points=(mpf(0),),
                values=(mpf(1),),
            )
            spec = secular_spectrum(blocks, frame, CTX)
            expected = sorted([
                (mpf("0.5") - mp.sqrt(mpf("0.05"))) / 2,
                (mpf("0.5") + mp.sqrt(mpf("0.05"))) / 2,
                mpf("0.6"),
            ])
        assert len(spec) == 3
        for got, want in zip(spec.eigenvalues, expected):
            assert abs(got - want) < 1e-14
        assert spec.diagnostics["deflated"] == (False, False, True)


class TestDegenerateFailure:
    def test_coincident_poles_raise(self):
        from superosc import SolverFailure
        with CTX.workprec():
            blocks = BlockDecomposition(
                delta_free=mp.matrix([["0.4", "0"], ["0", "0.4"]]),
                gamma=mp.matrix([["0.05"], ["0.05"]]),
                delta_fixed=mp.matrix([["0.3"]]),
            )
            frame = RotatedFrame(
                rotation=mp.eye(3),
                free_dim=2,
                mu_tilde=mp.matrix([mpf(1)]),
                completion_seed=0,
                points=(mpf(0),),
                values=(mpf(1),),
            )
            with pytest.raises(SolverFailure):
                secular_spectrum(blocks, frame, CTX)


class TestPolynomialSpectrum:
    def test_agrees_with_secular(self):
        ctx = Context(100)
        domain = symmetrize_domain(0, 1)
        _, _, frame, _, blocks = build_problem(6, 3, domain, ctx)
        sec = secular_spectrum(blocks, frame, ctx)
        pol = polynomial_spectrum(blocks, frame, ctx)
        assert len(sec) == len(pol) == 5
        for a, b in zip(sec.eigenvalues, pol.eigenvalues):
            assert abs(a - b) / a < 1e-6

    def test_degree_equals_root_count(self):
        ctx = Context(100)
        domain = symmetrize_domain(0, 1)
        _, _, frame, _, blocks = build_problem(10, 5, domain, ctx)
        pol = polynomial_spectrum(blocks, frame, ctx)
        assert len(pol) == 7

    def test_saturated_case_single_root(self):
        domain = symmetrize_domain(0, 1)
        _, _, frame, _, blocks = build_problem(3, 4, domain, CTX30)
        pol = polynomial_spectrum(blocks, frame, CTX30)
        sec = secular_spectrum(blocks, frame, CTX30)
        assert len(pol) == 1
        assert abs(pol.eigenvalues[0] - sec.eigenvalues[0]) < 1e-30


class TestBaselines:
    def test_fk_energy_equals_mu_tilde_norm(self):
        domain = symmetrize_domain(0, 1)
        _, _, frame, _, _ = build_problem(10, 5, domain, CTX30)
        fk = fk_min_energy_signal(frame, CTX30)
        with CTX30.workprec():
            norm_sq = (frame.mu_tilde.T * frame.mu_tilde)[0]
        energy = energy_per_period(fk, CTX30)
        assert abs(energy - norm_sq) / norm_sq < 1e-28

    def test_fk_matches_normal_equations_oracle(self):
        domain = symmetrize_domain(0, 1)
        cs, cm, frame, _, _ = build_problem(10, 5, domain, CTX30)
        fk = fk_min_energy_signal(frame, CTX30)
        reference = min_norm_interpolant(cm.entries, cs.values)
        worst = max(abs(c - reference[i]) for i, c in enumerate(fk.coeffs))
        assert worst < 1e-10

    def test_fk_yield_below_optimum(self):
        domain = symmetrize_domain(0, 1)
        result = design_spectrum(10, 5, domain, CTX30)
        fk = fk_min_energy_signal(result.frame, CTX30)
        with CTX30.workprec():
            vec = mp.matrix(fk.coeffs)
            fk_yield = (vec.T * (result.delta.entries * vec))[0] / (vec.T * vec)[0]
        assert fk_yield <= result.optimal_yield

    def test_slepian_full_period_all_ones(self):
        delta = overlap_matrix(Domain(((-mp.pi, mp.pi),)), 6, CTX)
        modes = slepian_modes(delta, CTX)
        assert len(modes) == 7
        assert all(abs(lam - 1) < 1e-12 for lam, _ in modes)

    def test_slepian_dominates_constrained_optimum(self):
        domain = symmetrize_domain(0, 1)
        result = design_spectrum(9, 4, domain, CTX30)
        top = slepian_modes(result.delta, CTX30)[0][0]
        assert result.optimal_yield < top

    def test_slepian_trace_identity(self):
        domain = symmetrize_domain(0, "1.1")
        delta = overlap_matrix(domain, 8, CTX30)
        modes = slepian_modes(delta, CTX30)
        with CTX30.workprec():
            total = mp.fsum(lam for lam, _ in modes)
            trace = mp.fsum(delta[i, i] for i in range(9))
        assert abs(total - trace) / trace < 1e-10

    def test_slepian_modes_unit_energy_descending(self):
        domain = symmetrize_domain(0, "0.7")
        delta = overlap_matrix(domain, 7, CTX)
        modes = slepian_modes(delta, CTX)
        values = [lam for lam, _ in modes]
        assert all(a >= b for a, b in zip(values, values[1:]))
        for _, sig in modes:
            assert abs(energy_per_period(sig, CTX) - 1) < 1e-12
