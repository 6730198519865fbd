"""Tests for the generalized spectrum solver and baselines."""

import ast
import pathlib
import random
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from superosc import analysis, solver, symmetric
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
SRC = pathlib.Path(solver.__file__).parent


def build_problem(n, m, domain, ctx):
    cs = alternating_constraints(*_cinterval(domain), m)
    cm = constraint_matrix(cs, n, ctx)
    frame = orthonormal_frame(cm, cs.values, ctx=ctx)
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
        rotation = mp.matrix(frame.rotation)
        rotated = rotation * mp.matrix(delta.entries) * rotation.T
    f, size = frame.free_dim, delta.n + 1
    return rotated[0:f, 0:f], rotated[0:f, f:size], rotated[f:size, f:size]


def hand_built(delta_free, gamma, delta_fixed):
    """Overlap [[Delta_free, Gamma], [Gamma^T, Delta_fixed]] of order 3 from
    decimal-string blocks, and the one-constraint identity frame (W = I, so
    K is the overlap itself)."""
    rows = [a + b for a, b in zip(delta_free, gamma)]
    rows.append([g[0] for g in gamma] + delta_fixed[0])
    with CTX.workprec():
        delta = OverlapMatrix(n=2, entries=mp.matrix(rows).tolist(), domain=None)
        frame = RotatedFrame(rotation=mp.eye(3).tolist(), free_dim=2,
                             mu_tilde=[mpf(1)])
    return delta, frame


class TestBordered:
    """solver._bordered, the K = W Delta W^T both solvers decompose."""

    def test_identity_overlap_stays_identity(self):
        domain = Domain(((-mp.pi, mp.pi),))
        _, _, frame, delta = build_problem(7, 3, domain, CTX)
        with CTX.workprec():
            k, _ = solver._bordered(delta, frame)
        assert len(k) == len(k[0]) == 6  # f + 1
        for i in range(6):
            for j in range(6):
                assert abs(k[i][j] - (1 if i == j else 0)) < 1e-12

    def test_saturated_constraints_leave_no_free_block(self):
        domain = symmetrize_domain(0, 1)
        _, _, frame, delta = build_problem(5, 6, domain, CTX)
        with CTX.workprec():
            k, _ = solver._bordered(delta, frame)
        assert frame.free_dim == 0
        assert len(k) == len(k[0]) == 1

    def test_exactly_symmetric(self):
        domain = symmetrize_domain(0, "1.3")
        _, _, frame, delta = build_problem(9, 4, domain, CTX)
        with CTX.workprec():
            k, _ = solver._bordered(delta, frame)
        assert all(k[i][j] == k[j][i] for i in range(len(k)) for j in range(len(k)))

    def test_matches_w_delta_w_transpose(self):
        # W: the frame's null-space rows, then the minimum-norm interpolant
        # over its norm ||mu~||
        domain = symmetrize_domain(0, "0.8")
        _, _, frame, delta = build_problem(10, 4, domain, CTX30)
        f = frame.free_dim
        with CTX30.workprec():
            k, norm = solver._bordered(delta, frame)
            assert abs(norm - mp.norm(frame.mu_tilde)) < mpf("1e-30") * norm
            w = mp.matrix(frame.rotation[0:f + 1])
            w[f, :] = mp.matrix([frame.particular_solution()]) / norm
            reference = w * mp.matrix(delta.entries) * w.T
            worst = max(abs(k[i][j] - reference[i, j])
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
            direct = (a.T * (mp.matrix(delta.entries) * a))[0] / (a.T * a)[0]
        assert abs(spec.eigenvalues[0] - direct) / direct < 1e-25

    def test_stationarity_residuals_small(self):
        domain = symmetrize_domain(0, 1)
        _, _, frame, delta = build_problem(9, 4, domain, CTX30)
        spec = secular_spectrum(delta, frame, CTX30)
        for res, fp in zip(spec.diagnostics["stationarity_residuals"],
                           spec.free_parts):
            with CTX30.workprec():
                scale = 1 + mp.sqrt(mp.fdot(fp, fp))
            assert res < mpf("1e-15") * scale

    def test_yield_consistency(self):
        domain = symmetrize_domain(0, 1)
        _, _, frame, delta = build_problem(9, 4, domain, CTX30)
        spec = secular_spectrum(delta, frame, CTX30)
        with CTX30.workprec():
            for lam, sig in zip(spec.eigenvalues, spec.signals):
                vec = mp.matrix(sig.coeffs)
                ray = (vec.T * (mp.matrix(delta.entries) * vec))[0] / (vec.T * vec)[0]
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
        frame = orthonormal_frame(cm, (0, 0, 0), ctx=CTX)
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
        cs = result.constraints
        assert len(result.spectrum) == n + 2 - m
        with CTX40.workprec():
            for lam, sig in zip(result.spectrum.eigenvalues, result.spectrum.signals):
                vec = mp.matrix(sig.coeffs)
                ray = (vec.T * (mp.matrix(result.delta.entries) * vec))[0] / (vec.T * vec)[0]
                assert 0 < ray < 1
                if lam > CTX40.trust_floor:
                    assert abs(ray - lam) <= mpf("1e-20") * lam
                scale = mp.fsum(abs(c) for c in sig.coeffs)
                residual = max(abs(evaluate(sig, t, CTX40) - v)
                               for t, v in zip(cs.points, cs.values))
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
            rotation = mp.matrix(frame.rotation)
            rotation[0:f, :] = u.T * rotation[0:f, :]
        turned = RotatedFrame(rotation=rotation.tolist(), free_dim=f,
                              mu_tilde=frame.mu_tilde)
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
        s = secular_equation(delta_free, gamma, delta_fixed, mp.matrix(frame.mu_tilde),
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
                                       mp.matrix(frame.mu_tilde), y, 80)
            with mp.workdps(80):
                assert mp.norm(mp.matrix(x) - ref) <= CTX40.eps / y * mp.norm(ref)

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
        assert len(slepian_modes(delta, CTX30)) == 11
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

    def test_ambient_precision_does_not_reach_the_result(self):
        # the context alone sets the precision: the constraint points are
        # built at its digits whatever mp.dps the caller happens to be at
        domain = symmetrize_domain(0, 1)
        plain = design_spectrum(10, 6, domain, Context(100))
        with mp.workdps(200):
            wide = design_spectrum(10, 6, domain, Context(100))
        assert wide.constraints.points == plain.constraints.points
        assert wide.spectrum.eigenvalues == plain.spectrum.eigenvalues


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

    @pytest.mark.parametrize("solve", [secular_spectrum, jacobi_spectrum],
                             ids=["secular", "jacobi"])
    def test_repeated_eigenvalue_raises(self, solve):
        # Delta = I/2 gives K = W Delta W^T = I/2 for any orthogonal frame:
        # both kernels converge at once, to one eigenvalue five times over
        from superosc import SolverFailure
        cs = alternating_constraints(0, 1, 3)
        frame = orthonormal_frame(constraint_matrix(cs, 6, CTX), cs.values, ctx=CTX)
        half = [[mpf(1) / 2 if i == j else mpf(0) for j in range(7)] for i in range(7)]
        delta = OverlapMatrix(n=6, entries=half, domain=None)
        with pytest.raises(SolverFailure) as caught:
            solve(delta, frame, CTX)
        assert str(caught.value) == "degenerate generalized eigenvalues at working precision"
        roots = caught.value.diagnostics["roots"]
        assert len(roots) == 5 and all(abs(y - mpf(1) / 2) < mpf("1e-14") for y in roots)


@pytest.mark.parametrize("method", ["polynomial", "both", "Secular"])
def test_design_spectrum_rejects_unknown_method(method):
    with pytest.raises(ValueError, match="method must be one of"):
        design_spectrum(6, 3, symmetrize_domain(0, 1), CTX, method=method)


def graded_positive_definite(order, grading, rng):
    """Q diag(1 ... 10^-grading) Q^T at the current precision, Q a product of
    order Householder reflections of random vectors."""
    lam = [mpf(10) ** (-grading * i / max(order - 1, 1)) for i in range(order)]
    a = mp.diag(lam)
    for _ in range(order):
        w = mp.matrix([mpf(rng.uniform(-1, 1)) for _ in range(order)])
        h = mp.eye(order) - 2 * w * w.T / mp.fdot(w, w)
        a = h * a * h
    return (a + a.T) / 2


def random_symmetric(order, kind, rng):
    """A random symmetric matrix at the current precision.

    kind "dense": uniform entries in [-1, 1]; "cluster": Q diag(lam) Q^T
    with two eigenvalues 1e-12 apart and Q a Householder reflection;
    "blocks": two dense blocks on the diagonal, decoupled; "graded":
    graded_positive_definite with a grading of 0 to 25 decades.
    """
    def dense(n):
        b = [[mpf(rng.uniform(-1, 1)) for _ in range(n)] for _ in range(n)]
        return [[(b[i][j] + b[j][i]) / 2 for j in range(n)] for i in range(n)]
    if kind == "graded":
        return graded_positive_definite(order, rng.randint(0, 25), rng)
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
    a = q * mp.diag(lam) * q.T  # symmetric only to rounding: mirror the upper triangle
    for i in range(order):
        for j in range(i):
            a[i, j] = a[j, i]
    return a


class TestEigensystem:
    """solver._eigensystem (symmetric.eigensystem), the fixed-point eigensolve
    of secular_spectrum and slepian_modes."""

    @given(order=st.integers(1, 20), digits=st.integers(30, 100),
           kind=st.sampled_from(["dense", "cluster", "blocks", "graded"]),
           seed=st.integers(0, 2 ** 32 - 1))
    # two eigenvalues 1.46e-3 apart: vectors found one eigenvalue at a time
    # would be orthogonal only through their residuals
    @example(order=14, digits=30, kind="cluster", seed=23999895)
    # eigenvalues 1.1e-3 ||A|| apart: tridiagonal inverse iteration's vectors
    # were 21 eps from orthogonal here, the QL rotations' are 0.22 eps
    @example(order=13, digits=59, kind="graded", seed=2087958217)
    # Q I Q^T (grading 0): T's off-diagonals start near eps ||A||, and
    # deflating them at 2^-p (|d_m| + |d_m+1|) moves the eigenvalues by up
    # to 1.95 eps ||A||; at 2^-(p+8) they move by 0.36 eps ||A||
    @example(order=8, digits=40, kind="graded", seed=316)
    @settings(max_examples=30, deadline=None)
    def test_matches_eigsy_with_small_residuals(self, order, digits, kind, seed):
        with mp.workdps(digits):
            a = random_symmetric(order, kind, random.Random(seed))
            values, vectors = solver._eigensystem(a.tolist())
            norm = mp.mnorm(a, 1)
            tol = 100 * mp.eps * norm
            bound = mp.eps * norm
            assert values == sorted(values)
            for y, z in zip(values, vectors):
                residual = a * mp.matrix(z) - y * mp.matrix(z)
                assert mp.norm(residual) <= tol
            for i, zi in enumerate(vectors):
                assert abs(mp.fdot(zi, zi) - 1) <= 100 * mp.eps
                for zj in vectors[:i]:
                    # the vectors are the columns of one product of rotations,
                    # orthogonal whatever the gap between their eigenvalues
                    assert abs(mp.fdot(zi, zj)) <= 2 * mp.eps
        with mp.workdps(2 * digits):
            exact = mp.eigsy(a, eigvals_only=True)
            assert all(abs(y - x) <= bound for y, x in zip(values, exact))

    @pytest.mark.parametrize("order", range(1, 7))
    def test_scalar_and_split_matrices(self, order):
        # T splits everywhere: QL makes no rotation, and each vector stays
        # a column of the identity, even inside a group of equal values
        with mp.workdps(50):
            repeated = [1, 1, 2, 2, 3, 3][:order]
            for a in (mp.zeros(order, order), mp.eye(order), 2 * mp.eye(order),
                      mp.diag(repeated), mp.diag(repeated[::-1])):
                values, vectors = solver._eigensystem(a.tolist())
                norm = mp.mnorm(a, 1)
                assert values == sorted(a[i, i] for i in range(order))
                for y, z in zip(values, vectors):
                    assert mp.norm(a * mp.matrix(z) - y * mp.matrix(z)) <= mp.eps * norm
                for i, zi in enumerate(vectors):
                    assert abs(mp.fdot(zi, zi) - 1) <= mp.eps
                    for zj in vectors[:i]:
                        assert abs(mp.fdot(zi, zj)) <= mp.eps

    def test_runs_on_ints(self, monkeypatch):
        # tridiagonalization, QL with its vectors and the back-transform
        # run on ints: only converting the n^2 entries in (ldexp) and the n
        # values and n^2 vector entries out may touch mpf, and none of those
        # is an mpf operator
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__pow__", "__abs__", "__neg__"):
            method = getattr(mp.mpf, name)
            monkeypatch.setattr(mp.mpf, name, lambda *a, _m=method, _n=name:
                                calls.append(_n) or _m(*a))
        with mp.workdps(100):
            a = random_symmetric(12, "dense", random.Random(1701))
            calls.clear()
            values, vectors = solver._eigensystem(a.tolist())
            assert calls == []
            assert len(values) == 12 and abs(mp.fdot(vectors[0], vectors[0]) - 1) < mp.eps
            assert calls  # the guard sees the operators the check above used

    def test_fixed_conversion_matches_ldexp(self, monkeypatch):
        # symmetric.fixed builds int(x 2^shift) from the mantissa and exponent:
        # the same ints as int(mp.ldexp(x, shift)), so both int kernels, which
        # convert through symmetric.fixed_rows, give bit-identical outputs with
        # either conversion
        with mp.workdps(100):
            samples = [mpf(0), mpf(1), mpf(-1), mp.pi, -mp.pi / 7, mpf("-1e-90"),
                       mpf("3e-200"), mpf("-3e-200"), mpf(2) ** 300, -mpf(2) ** -400]
            for x in samples:
                for shift in (-500, -7, 0, 1, 64, 400, 864):
                    assert symmetric.fixed(x, shift) == int(mp.ldexp(x, shift))
            for x in (mp.inf, -mp.inf, mp.nan):  # int() refuses them too
                with pytest.raises(ValueError):
                    symmetric.fixed(x, 0)
            rng = random.Random(1801)
            a = random_symmetric(9, "dense", rng)
            a[0, 3] = a[3, 0] = mpf("-1e-95")  # tiny and negative
            a[1, 2] = a[2, 1] = mpf(0)
            coeffs = [mpf(rng.uniform(-1, 1)) for _ in range(8)] + [mpf(0), mpf("1e-90")]
            outputs = [solver._eigensystem(a.tolist()), analysis._real_roots(coeffs, 1e-6)]
            monkeypatch.setattr(symmetric, "fixed", lambda x, shift: int(mp.ldexp(x, shift)))
            assert [solver._eigensystem(a.tolist()),
                    analysis._real_roots(coeffs, 1e-6)] == outputs

    @pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
    def test_imports_nothing_from_mpmath_matrices(self, path):
        tree = ast.parse(path.read_text())
        modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        modules += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        # every module but the package index and its exceptions imports mpmath
        assert ("mpmath" in modules) == (path.stem not in ("__init__", "errors"))
        assert not [m for m in modules if m.startswith("mpmath.matrices")]

    @pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
    def test_only_design_spectrum_takes_a_seed(self, path):
        # no number depends on a seed: design_spectrum accepts one for its
        # callers and passes it no further
        text = path.read_text()
        takers = ["%s.%s" % (path.stem, node.name) for node in ast.walk(ast.parse(text))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
                  & {"seed", "completion_seed"}]
        assert takers == (["design.design_spectrum"] if path.stem == "design" else [])
        assert "completion_seed" not in text


class TestJacobiEigensystem:
    """solver._jacobi_eigensystem, the bordered eigensolve of jacobi_spectrum."""

    @given(order=st.integers(1, 20), digits=st.integers(30, 100),
           grading=st.integers(0, 25), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_graded_positive_definite(self, order, digits, grading, seed):
        with mp.workdps(digits):
            a = graded_positive_definite(order, grading, random.Random(seed))
            values, vectors = solver._jacobi_eigensystem(a.tolist())
            norm = mp.mnorm(a, 1)
            tol = 100 * mp.eps * norm
            assert values == sorted(values)
            for y, z in zip(values, vectors):
                residual = a * mp.matrix(z) - y * mp.matrix(z)
                assert mp.norm(residual) <= tol
            for i, zi in enumerate(vectors):
                assert abs(mp.fdot(zi, zi) - 1) <= 100 * mp.eps
                for zj in vectors[:i]:
                    assert abs(mp.fdot(zi, zj)) <= 100 * mp.eps
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
            mu_tilde = mp.matrix(frame.mu_tilde)
            norm_sq = (mu_tilde.T * mu_tilde)[0]
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
            fk_yield = (vec.T * (mp.matrix(result.delta.entries) * vec))[0] / (vec.T * vec)[0]
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
