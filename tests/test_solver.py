"""Tests for the generalized spectrum solver and baselines."""

import random
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from superosc import solver
from superosc import (
    Context,
    Domain,
    OverlapMatrix,
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
    jacobi_spectrum,
    overlap_matrix,
    secular_spectrum,
    slepian_modes,
    symmetrize_domain,
)

from oracles import (
    min_norm_interpolant,
    mpf_matrix_to_numpy,
    projected_ascent_max_float,
    secular_equation,
    stationary_free_part,
)

CTX = Context(15)
CTX30 = Context(30)
CTX40 = Context(40)


def build_problem(n, m, domain, ctx, seed=0):
    cs = alternating_constraints(*_cinterval(domain), m)
    cm = constraint_matrix(cs, n, ctx)
    frame = orthonormal_frame(cm, cs.values, completion_seed=seed, ctx=ctx)
    delta = overlap_matrix(domain, n, ctx)
    return cs, cm, frame, delta


def _cinterval(domain):
    lo, hi = domain.intervals[-1]
    return (mpf(0) if lo < 0 < hi else lo), hi


def frame_blocks(delta, frame, ctx):
    """Delta_free, Gamma and Delta_fixed of R Delta R^T, R the frame's rotation.

    The whole overlap matrix turned into the frame and cut in blocks: the
    oracles' input, formed independently of the solver's K.
    """
    with ctx.workprec():
        rotated = frame.rotation * delta.entries * frame.rotation.T
    f, size = frame.free_dim, delta.n + 1
    return rotated[0:f, 0:f], rotated[0:f, f:size], rotated[f:size, f:size]


def hand_built(delta_free, gamma, delta_fixed):
    """Overlap [[Delta_free, Gamma], [Gamma^T, Delta_fixed]] of order 3 from
    decimal-string blocks, and the one-constraint identity frame (W = I, so
    K is the overlap itself)."""
    rows = [a + b for a, b in zip(delta_free, gamma)]
    rows.append([g[0] for g in gamma] + delta_fixed[0])
    with CTX.workprec():
        delta = OverlapMatrix(n=2, entries=mp.matrix(rows), domain=None)
        frame = RotatedFrame(rotation=mp.eye(3), free_dim=2,
                             mu_tilde=mp.matrix([mpf(1)]), completion_seed=0,
                             points=(mpf(0),), values=(mpf(1),))
    return delta, frame


class TestBordered:
    """solver._bordered, the K = W Delta W^T both solvers decompose."""

    def test_identity_overlap_stays_identity(self):
        domain = Domain(((-mp.pi, mp.pi),))
        _, _, frame, delta = build_problem(7, 3, domain, CTX)
        with CTX.workprec():
            k, _ = solver._bordered(delta, frame)
        assert k.rows == k.cols == 6  # f + 1
        for i in range(6):
            for j in range(6):
                assert abs(k[i, j] - (1 if i == j else 0)) < 1e-12

    def test_saturated_constraints_leave_no_free_block(self):
        domain = symmetrize_domain(0, 1)
        _, _, frame, delta = build_problem(5, 6, domain, CTX)
        with CTX.workprec():
            k, _ = solver._bordered(delta, frame)
        assert frame.free_dim == 0
        assert k.rows == k.cols == 1

    def test_exactly_symmetric(self):
        domain = symmetrize_domain(0, "1.3")
        _, _, frame, delta = build_problem(9, 4, domain, CTX)
        with CTX.workprec():
            k, _ = solver._bordered(delta, frame)
        assert all(k[i, j] == k[j, i] for i in range(k.rows) for j in range(k.rows))

    def test_matches_w_delta_w_transpose(self):
        # W: the frame's null-space rows, then the minimum-norm interpolant
        # over its norm ||mu~||
        domain = symmetrize_domain(0, "0.8")
        _, _, frame, delta = build_problem(10, 4, domain, CTX30)
        f = frame.free_dim
        with CTX30.workprec():
            k, norm = solver._bordered(delta, frame)
            assert abs(norm - mp.norm(frame.mu_tilde)) < mpf("1e-30") * norm
            w = frame.rotation[0:f + 1, :]
            w[f, :] = frame.particular_solution() / norm
            reference = w * delta.entries * w.T
            worst = max(abs(k[i, j] - reference[i, j])
                        for i in range(f + 1) for j in range(f + 1))
        assert worst < mpf("1e-30")

    def test_dimension_mismatch_rejected(self):
        domain = symmetrize_domain(0, 1)
        _, _, frame, _ = build_problem(6, 3, domain, CTX)
        other = overlap_matrix(domain, 8, CTX)
        with pytest.raises(ValueError, match="band limit 8 does not match"):
            secular_spectrum(other, frame, CTX)


class TestSecularSpectrum:
    def test_root_count(self):
        domain = symmetrize_domain(0, 1)
        _, _, frame, delta = build_problem(10, 5, domain, CTX30)
        spec = secular_spectrum(delta, frame, CTX30)
        assert len(spec) == 7  # N+2-M

    def test_eigenvalues_ascending_in_unit_interval(self):
        domain = symmetrize_domain(0, "1.4")
        _, _, frame, delta = build_problem(8, 4, domain, CTX30)
        spec = secular_spectrum(delta, frame, CTX30)
        vals = spec.eigenvalues
        assert all(0 < v < 1 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_saturated_case_matches_direct_solve(self):
        domain = symmetrize_domain(0, "1.2")
        cs, cm, frame, delta = build_problem(4, 5, domain, CTX30)
        spec = secular_spectrum(delta, frame, CTX30)
        assert len(spec) == 1
        with CTX30.workprec():
            a = mp.lu_solve(cm.entries, mp.matrix(cs.values))
            direct = (a.T * (delta.entries * a))[0] / (a.T * a)[0]
        assert abs(spec.eigenvalues[0] - direct) / direct < 1e-25

    def test_stationarity_residuals_small(self):
        domain = symmetrize_domain(0, 1)
        _, _, frame, delta = build_problem(9, 4, domain, CTX30)
        spec = secular_spectrum(delta, frame, CTX30)
        for res, fp in zip(spec.diagnostics["stationarity_residuals"],
                           spec.free_parts):
            with CTX30.workprec():
                scale = 1 + mp.sqrt((fp.T * fp)[0])
            assert res < mpf("1e-15") * scale

    def test_yield_consistency(self):
        domain = symmetrize_domain(0, 1)
        _, _, frame, delta = build_problem(9, 4, domain, CTX30)
        spec = secular_spectrum(delta, frame, CTX30)
        with CTX30.workprec():
            for lam, sig in zip(spec.eigenvalues, spec.signals):
                vec = mp.matrix(sig.coeffs)
                ray = (vec.T * (delta.entries * vec))[0] / (vec.T * vec)[0]
                assert abs(ray - lam) / lam < mpf("1e-12")

    def test_constraint_satisfaction(self):
        from superosc import evaluate
        domain = symmetrize_domain(0, "0.9")
        cs, _, frame, delta = build_problem(10, 6, domain, CTX30)
        spec = secular_spectrum(delta, frame, CTX30)
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
        cs, cm, frame, delta = build_problem(5, 3, domain, CTX)
        spec = secular_spectrum(delta, frame, CTX)
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
        with pytest.raises(ValueError, match="targets are all zero"):
            secular_spectrum(delta, frame, CTX)

    def test_trust_floor_warning(self):
        domain = symmetrize_domain(0, 1)
        _, _, frame, delta = build_problem(10, 6, domain, CTX)
        with pytest.warns(PrecisionWarning):
            secular_spectrum(delta, frame, CTX)


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
        _, _, frame, delta = build_problem(9, 4, domain, CTX30)
        spec = secular_spectrum(delta, frame, CTX30)
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
        other = secular_spectrum(delta, turned, CTX30)
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
        _, _, frame, delta = build_problem(n, m, domain, CTX40)
        spec = secular_spectrum(delta, frame, CTX40)
        vals = spec.eigenvalues
        assert len(vals) == n + 2 - m
        assert all(0 < v < 1 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[0] > CTX40.trust_floor
        delta_free, gamma, delta_fixed = frame_blocks(delta, frame, CTX40)
        s = secular_equation(delta_free, gamma, delta_fixed, frame.mu_tilde,
                             dps=CTX40.digits + 40)
        for y, deflated in zip(vals, spec.diagnostics["deflated"]):
            if not deflated:
                value, slope = s(y)
                assert abs(value) <= mpf(10) ** -CTX40.digits * abs(slope)


class TestFreePartFromEigenvector:
    # Over N in [3, 10], 2 <= M <= N and a on every odd hundredth and every
    # multiple of 0.05 in [0.5, 2] at 40 digits, the relative distance of
    # each non-deflated free part from the oracle's is below 4e-4 of
    # 10^-40/y: a root y keeps about 40 + log10 y digits, and so does its
    # free part (2.9e-25 at y = 1.9e-36, N=10, M=2, a=0.5; 3e-44 for roots
    # near 1, 1e-12 apart).  An LU solve at the rounded y, even at 80
    # digits, is off by 3.9e-21 in that first case.
    @given(nm=st.integers(3, 10).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(2, n))),
           hundredths=st.integers(50, 200))
    @settings(max_examples=25, deadline=None)
    def test_matches_lu_solve_of_stationarity_system(self, nm, hundredths):
        n, m = nm
        domain = symmetrize_domain(0, "%.2f" % (hundredths / 100))
        _, _, frame, delta = build_problem(n, m, domain, CTX40)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionWarning)
            spec = secular_spectrum(delta, frame, CTX40)
        delta_free, gamma, delta_fixed = frame_blocks(delta, frame, CTX40)
        for y, x, deflated in zip(spec.eigenvalues, spec.free_parts,
                                  spec.diagnostics["deflated"]):
            if deflated:
                continue
            ref = stationary_free_part(delta_free, gamma, delta_fixed,
                                       frame.mu_tilde, y, 80)
            with mp.workdps(80):
                assert mp.norm(x - ref) <= CTX40.eps / y * mp.norm(ref)

    def test_lu_solves_only_for_deflated_roots(self, monkeypatch):
        _, _, frame, delta = build_problem(10, 6, symmetrize_domain(0, 1), CTX30)
        calls = []
        lu_solve = mp.lu_solve
        monkeypatch.setattr(mp, "lu_solve",
                            lambda *args: calls.append(args) or lu_solve(*args))
        assert len(secular_spectrum(delta, frame, CTX30)) == 6
        assert calls == []
        # TestDeflation's hand-built overlap: the decoupled pole is the one
        # deflated root
        TestDeflation().test_decoupled_pole_becomes_root()
        assert len(calls) == 1

    def test_no_eigsy_calls(self, monkeypatch):
        _, _, frame, delta = build_problem(10, 6, symmetrize_domain(0, 1), CTX30)
        calls = []
        eigsy = mp.eigsy
        monkeypatch.setattr(mp, "eigsy",
                            lambda *args, **kw: calls.append(args) or eigsy(*args, **kw))
        assert len(secular_spectrum(delta, frame, CTX30)) == 6
        TestDeflation().test_decoupled_pole_becomes_root()
        assert calls == []


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
        delta, frame = hand_built([["0.3", "0"], ["0", "0.6"]],
                                  [["0.1"], ["0"]], [["0.2"]])
        spec = secular_spectrum(delta, frame, CTX)
        with CTX.workprec():
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
        delta, frame = hand_built([["0.4", "0"], ["0", "0.4"]],
                                  [["0.05"], ["0.05"]], [["0.3"]])
        with pytest.raises(SolverFailure):
            secular_spectrum(delta, frame, CTX)


def random_symmetric(order, kind, rng):
    """A random symmetric matrix at the current precision.

    kind "dense": uniform entries in [-1, 1]; "cluster": Q diag(lam) Q^T
    with two eigenvalues 1e-12 apart and Q a Householder reflection;
    "blocks": two dense blocks on the diagonal, decoupled.
    """
    def dense(n):
        b = [[mpf(rng.uniform(-1, 1)) for _ in range(n)] for _ in range(n)]
        return [[(b[i][j] + b[j][i]) / 2 for j in range(n)] for i in range(n)]
    if kind == "dense" or order < 2:
        return mp.matrix(dense(order))
    if kind == "blocks":
        cut = rng.randint(1, order - 1)
        a = mp.zeros(order, order)
        a[0:cut, 0:cut] = mp.matrix(dense(cut))
        a[cut:order, cut:order] = mp.matrix(dense(order - cut))
        return a
    lam = [mpf(rng.uniform(-1, 1)) for _ in range(order)]
    lam[1] = lam[0] + mpf("1e-12")
    w = mp.matrix([mpf(rng.uniform(-1, 1)) for _ in range(order)])
    q = mp.eye(order) - 2 * w * w.T / mp.fdot(w, w)
    return q * mp.diag(lam) * q.T


class TestEigensystem:
    """solver._eigensystem, the bordered eigensolve of secular_spectrum."""

    @given(order=st.integers(1, 20), digits=st.integers(30, 100),
           kind=st.sampled_from(["dense", "cluster", "blocks"]),
           seed=st.integers(0, 2 ** 32 - 1))
    # two eigenvalues 1.46e-3 apart, outside one Gram-Schmidt group: their
    # vectors are 3.4e-29 (170 eps) from orthogonal
    @example(order=14, digits=30, kind="cluster", seed=23999895)
    @settings(max_examples=30, deadline=None)
    def test_matches_eigsy_with_small_residuals(self, order, digits, kind, seed):
        with mp.workdps(digits):
            a = random_symmetric(order, kind, random.Random(seed))
            values, vectors = solver._eigensystem(a)
            norm = mp.mnorm(a, 1)
            tol = 100 * mp.eps * norm
            # the tridiagonal form and its QL are eigsy's own
            assert values == list(mp.eigsy(a, eigvals_only=True))
            for y, z in zip(values, vectors):
                residual = a * mp.matrix(z) - y * mp.matrix(z)
                assert mp.norm(residual) <= tol
            for i, zi in enumerate(vectors):
                assert abs(mp.fdot(zi, zi) - 1) <= 100 * mp.eps
                for j, zj in enumerate(vectors[:i]):
                    # Gram-Schmidt keeps near-equal eigenvalues' vectors
                    # orthogonal; farther apart, the residuals bound
                    # |zi.zj| by (|ri| + |rj|)/gap
                    gap = values[i] - values[j]
                    bound = 100 * mp.eps if gap < norm / 10 ** 6 else 2 * tol / gap
                    assert abs(mp.fdot(zi, zj)) <= bound
        with mp.workdps(2 * digits):
            exact = mp.eigsy(a, eigvals_only=True)
            assert all(abs(y - x) <= tol for y, x in zip(values, exact))


class TestJacobiSpectrum:
    def test_agrees_with_secular(self):
        ctx = Context(100)
        domain = symmetrize_domain(0, 1)
        _, _, frame, delta = build_problem(6, 3, domain, ctx)
        sec = secular_spectrum(delta, frame, ctx)
        jac = jacobi_spectrum(delta, frame, ctx)
        assert len(sec) == len(jac) == 5
        for a, b in zip(sec.eigenvalues, jac.eigenvalues):
            assert abs(a - b) / a < 1e-6

    def test_degree_equals_root_count(self):
        ctx = Context(100)
        domain = symmetrize_domain(0, 1)
        _, _, frame, delta = build_problem(10, 5, domain, ctx)
        jac = jacobi_spectrum(delta, frame, ctx)
        assert len(jac) == 7

    def test_saturated_case_single_root(self):
        domain = symmetrize_domain(0, 1)
        _, _, frame, delta = build_problem(3, 4, domain, CTX30)
        jac = jacobi_spectrum(delta, frame, CTX30)
        sec = secular_spectrum(delta, frame, CTX30)
        assert len(jac) == 1
        assert abs(jac.eigenvalues[0] - sec.eigenvalues[0]) < 1e-30

    def test_decoupled_pole_becomes_deflated_root(self):
        # TestDeflation's overlap: roots (0.5 +- sqrt(0.05))/2 and the pole 0.6
        delta, frame = hand_built([["0.3", "0"], ["0", "0.6"]],
                                  [["0.1"], ["0"]], [["0.2"]])
        spec = jacobi_spectrum(delta, frame, CTX)
        with CTX.workprec():
            expected = sorted([(mpf("0.5") - mp.sqrt(mpf("0.05"))) / 2,
                               (mpf("0.5") + mp.sqrt(mpf("0.05"))) / 2,
                               mpf("0.6")])
        assert len(spec) == 3
        for got, want in zip(spec.eigenvalues, expected):
            assert abs(got - want) < 1e-14
        assert spec.diagnostics["deflated"] == (False, False, True)

    def test_coincident_poles_raise(self):
        # TestDegenerateFailure's overlap
        from superosc import SolverFailure
        delta, frame = hand_built([["0.4", "0"], ["0", "0.4"]],
                                  [["0.05"], ["0.05"]], [["0.3"]])
        with pytest.raises(SolverFailure):
            jacobi_spectrum(delta, frame, CTX)

    def test_matches_secular_at_n20(self):
        # the smallest of the 19 roots is 2.2e-47; measured agreement is
        # 6e-70 on the eigenvalues and 6e-74 on the coefficients
        ctx = Context(100)
        domain = symmetrize_domain(0, 1)
        sec = design_spectrum(20, 3, domain, ctx).spectrum
        jac = design_spectrum(20, 3, domain, ctx, method="jacobi").spectrum
        assert len(sec) == len(jac) == 19
        assert jac.diagnostics["method"] == "jacobi"
        with ctx.workprec():
            for a, b in zip(sec.eigenvalues, jac.eigenvalues):
                assert abs(a - b) / a < mpf("1e-60")
            for s1, s2 in zip(sec.signals, jac.signals):
                scale = max(abs(c) for c in s1.coeffs)
                worst = max(abs(x - y) for x, y in zip(s1.coeffs, s2.coeffs))
                assert worst < mpf("1e-60") * scale


class TestBaselines:
    def test_fk_energy_equals_mu_tilde_norm(self):
        domain = symmetrize_domain(0, 1)
        _, _, frame, _ = build_problem(10, 5, domain, CTX30)
        fk = fk_min_energy_signal(frame, CTX30)
        with CTX30.workprec():
            norm_sq = (frame.mu_tilde.T * frame.mu_tilde)[0]
        energy = energy_per_period(fk, CTX30)
        assert abs(energy - norm_sq) / norm_sq < 1e-28

    def test_fk_matches_normal_equations_oracle(self):
        domain = symmetrize_domain(0, 1)
        cs, cm, frame, _ = build_problem(10, 5, domain, CTX30)
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

    def test_slepian_warns_below_trust_floor(self):
        # N=10 on (-1, 1): the smallest Slepian eigenvalue is 7.7e-24, below
        # the 1e-9 floor of 15 digits and far above the 1e-54 floor of 60
        domain = symmetrize_domain(0, 1)
        with pytest.warns(PrecisionWarning, match="smallest eigenvalue 7.72"):
            slepian_modes(overlap_matrix(domain, 10, CTX), CTX)
        ctx = Context(60)
        delta = overlap_matrix(domain, 10, ctx)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PrecisionWarning)
            slepian_modes(delta, ctx)

    def test_slepian_modes_unit_energy_descending(self):
        domain = symmetrize_domain(0, "0.7")
        delta = overlap_matrix(domain, 7, CTX)
        modes = slepian_modes(delta, CTX)
        values = [lam for lam, _ in modes]
        assert all(a >= b for a, b in zip(values, values[1:]))
        for _, sig in modes:
            assert abs(energy_per_period(sig, CTX) - 1) < 1e-12
