"""Constrained yield maximization as a generalized eigenvalue problem.

The yield A^T Delta A / A^T A does not change when A is scaled, so its
stationary values under C A = mu are those of the Rayleigh quotient of Delta
on V = {A : C A parallel to mu}, the null space of C plus the minimum-norm
interpolant p.  The rows of W, the frame's f null-space rows followed by
p/||mu~||, are an orthonormal basis of V, and all N+2-M stationary yields
are the eigenvalues of the symmetric (f+1)x(f+1) matrix

    K = W Delta W^T = [[Delta_free, g/||mu~||], [g^T/||mu~||, q/||mu~||^2]],

Delta_free the overlap of the free directions, g their coupling to p and q
the energy p^T Delta p in the domain.  Its Schur complement s(Y)/||mu~||^2,

    s(Y) = q - Y*||mu~||^2 - g^T (Delta_free - Y)^-1 g,

is the secular function.  An eigenvector z = (z_free, z_last) scaled to meet
the constraints gives the signal's free part x = z_free*||mu~||/z_last,
which solves (Delta_free - Y) x = -g.  A vanishing z_last marks a free
direction decoupled from the constraints (deflation): only such a root
takes an LU solve.  K, the coefficients and the residuals are integer dot
products.  Each symmetric eigensolve returns ascending eigenvalues and unit
eigenvectors as lists, or raises SolverFailure: _eigensystem
(symmetric.eigensystem: tridiagonal QL with its vectors, on ints) for
K in secular_spectrum and Delta in slepian_modes, _jacobi_eigensystem (mpf
Jacobi rotations), the independent cross-check, for K in jacobi_spectrum.
"""

import math
import warnings
from dataclasses import dataclass
from operator import mul

from mpmath import mp, mpf

from .constraints import RotatedFrame
from .context import FAST, Context
from .domains import OverlapMatrix
from .errors import PrecisionWarning, SolverFailure
from .signals import FourierCosineSignal
from .symmetric import eigensystem, fixed, fixed_rows


@dataclass(frozen=True)
class GeneralizedSpectrum:
    """All stationary yields with their reconstructed signals, ascending."""

    eigenvalues: tuple
    signals: tuple
    free_parts: tuple
    diagnostics: dict

    def __len__(self):
        return len(self.eigenvalues)


def _bordered(delta: OverlapMatrix, frame: RotatedFrame):
    """K = W Delta W^T as row tuples, and ||mu~||, at the caller's precision.

    W's rows are the frame's f null-space rows followed by p/||mu~||, p the
    minimum-norm interpolant, as ints (frame.int_rows); with Delta's entries
    as ints too, W Delta and K's upper triangle are integer dot products,
    each entry rounded once and mirrored so that K is exactly symmetric.
    """
    if delta.n != frame.n:
        raise ValueError(
            "overlap matrix band limit %d does not match frame band limit %d"
            % (delta.n, frame.n)
        )
    norm = mp.sqrt(mp.fdot(frame.mu_tilde, frame.mu_tilde))
    if norm == 0:
        raise ValueError("constraint targets are all zero")
    (rows, frac), f = frame.int_rows(), frame.free_dim
    unit = [fixed(c / norm, frac) for c in frame.mu_tilde]
    w = rows[:f] + [[sum(map(mul, unit, col)) >> frac for col in zip(*rows[f:])]]
    d, top = fixed_rows(delta.entries, frac)  # Delta is symmetric: its rows are its columns
    wd = [[sum(map(mul, row, col)) >> frac for col in d] for row in w]
    k = []  # row i: column i of the rows above it, then its own upper part
    for i in range(f + 1):
        k.append(tuple(row[i] for row in k) + tuple(
            mpf((sum(map(mul, wd[i], w[j])), top - 2 * frac)) for j in range(i, f + 1)))
    return tuple(k), norm


def _reconstruct(y, z, bordered, fixed_k, norm, frame, ctx):
    """Free part, signal, residuals and deflation flag for one root y.

    The free part solves (Delta_free - y) x = -g, Delta_free = K[0:f, 0:f]
    and g = ||mu~|| K[0:f, f]: by the first block row of K z = y z it is
    z_free ||mu~||/z_last, z the unit bordered eigenvector of y.  A deflated
    root, whose vanishing z_last makes y an eigenvalue of Delta_free with
    eigenvector z_free decoupled from g, takes an LU solve: adding
    z_free z_free^T lifts that direction and leaves the minimum-norm free
    part, orthogonal to it.  (A unit z with z_last = 0 has f >= 1.)  The
    residuals are integer dot products over fixed_k, K's rows as ints.
    """
    f = frame.free_dim
    deflated = abs(z[f]) <= ctx.bracket_rtol
    if not deflated:
        scale = norm / z[f]
        free_part = tuple(zi * scale for zi in z[:f])
    else:
        system = [[bordered[i][j] + z[i] * z[j] - (y if i == j else 0) for j in range(f)]
                  for i in range(f)]
        try:
            free_part = tuple(mp.lu_solve(system, [-norm * row[f] for row in bordered[:f]]))
            # a free part past the deflation threshold ||mu~||/bracket_rtol:
            # the lift left a coupled free-block eigenvalue at y
            if mp.norm(free_part) * ctx.bracket_rtol > norm:
                raise ZeroDivisionError
        except ZeroDivisionError as exc:
            raise SolverFailure(
                "stationarity system is singular at eigenvalue %s; coincident "
                "free-block eigenvalues are not resolvable" % mp.nstr(y, 8),
                diagnostics={"eigenvalue": y, "deflated": deflated},
            ) from exc
    signal = FourierCosineSignal(band_limit=frame.n, coeffs=frame.assemble(free_part))
    # r = (K - y) u with u = (x, ||mu~||): its first f rows are the
    # stationarity residual, its last the secular one over ||mu~||, which a
    # deflated root (z_last = 0) satisfies for any free part
    (k, ktop), frac = fixed_k, mp.prec + 64
    (u,), utop = fixed_rows([[*free_part, norm]], frac)
    yk, exp = fixed(y, frac - ktop), ktop + utop - 2 * frac  # r in units 2^exp
    r = [sum(map(mul, row, u)) - yk * ui for row, ui in zip(k, u)]
    residual = mpf((math.isqrt(sum(map(mul, r[:f], r[:f]))), exp))
    secular = mpf(0) if deflated else norm * mpf((abs(r[f]), exp))
    return free_part, signal, residual, secular, deflated


def _warn_below_floor(smallest, ctx, stacklevel):
    if smallest < ctx.trust_floor:
        warnings.warn("smallest eigenvalue %s is within 1e6 of the precision floor 10^-%d; "
                      "raise the context digits to trust it" % (mp.nstr(smallest, 5), ctx.digits),
                      PrecisionWarning, stacklevel=stacklevel)


def _spectrum(delta, frame, ctx, kernel, method):
    """K = _bordered(delta, frame), its roots and unit eigenvectors by kernel
    (_eigensystem or _jacobi_eigensystem), checked, and each root's signal."""
    with ctx.workprec():
        bordered, norm = _bordered(delta, frame)
        roots, vectors = kernel(bordered)
        for y in roots:
            if not (0 < y < 1):
                message = "eigenvalue %s outside (0, 1)" % mp.nstr(y, 8)
                if abs(y) < ctx.trust_floor:
                    message += ("; it lies below the resolution of %d digits, "
                                "raise --precision" % ctx.digits)
                raise SolverFailure(message, diagnostics={"roots": roots})
        for y1, y2 in zip(roots, roots[1:]):
            if y2 - y1 < ctx.bracket_rtol * y2:
                raise SolverFailure(
                    "degenerate generalized eigenvalues at working precision",
                    diagnostics={"roots": roots},
                )
        fixed_k = fixed_rows(bordered, mp.prec + 64)
        parts = [_reconstruct(y, z, bordered, fixed_k, norm, frame, ctx)
                 for y, z in zip(roots, vectors)]
        free_parts, signals, stationarity, sec_res, defl_flags = zip(*parts)
        _warn_below_floor(roots[0], ctx, stacklevel=4)
    return GeneralizedSpectrum(
        eigenvalues=tuple(roots),
        signals=signals,
        free_parts=free_parts,
        diagnostics={
            "method": method,
            "secular_residuals": sec_res,
            "stationarity_residuals": stationarity,
            "deflated": defl_flags,
        },
    )


# QL iterations per eigenvalue (EISPACK imtql2's limit); tests take at most 6.
QL_MAX_ITERATIONS = 30


def _eigensystem(rows):
    """symmetric.eigensystem (fixed point, F = 2p + 64) capped at QL_MAX_ITERATIONS."""
    return eigensystem(rows, QL_MAX_ITERATIONS)


# Tests reach at most 17 sweeps (N=20, M=3 on (-1, 1) at 100 digits, order
# 19), 19 were measured (the same at a = 1/64, 230 digits); convergence is
# quadratic near the end, so a solve still rotating at twice that is stuck.
JACOBI_MAX_SWEEPS = 40


def _jacobi_eigensystem(rows):
    """Ascending eigenvalues and unit eigenvectors (lists) of symmetric rows by
    cyclic Jacobi.

    Real mpf rotations on a copy of the rows, accumulating the eigenvectors.
    An off-diagonal a_pq is set to zero once |a_pq| <= 2^-prec sqrt(|a_pp a_qq|),
    the relative stopping rule of Demmel & Veselic (SIAM J. Matrix Anal.
    Appl. 13, 1992) for positive-definite matrices; the abs keeps a diagonal
    that rounds negative from a complex square root.  The solve ends after a
    sweep without a rotation.
    """
    size, tol, a = len(rows), mpf(2) ** -mp.prec, [list(row) for row in rows]
    basis = [[mpf(i == j) for j in range(size)] for i in range(size)]  # rows: vectors
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for p in range(size - 1):
            for q in range(p + 1, size):
                app, aqq, apq = a[p][p], a[q][q], a[p][q]
                if abs(apq) <= tol * mp.sqrt(abs(app * aqq)):
                    a[p][q] = a[q][p] = mpf(0)
                    continue
                rotated = True
                theta = (aqq - app) / (2 * apq)
                t = (-1 if theta < 0 else 1) / (abs(theta) + mp.sqrt(theta * theta + 1))
                c = 1 / mp.sqrt(t * t + 1)
                s = t * c
                for rows in (a, basis):
                    rp, rq = rows[p], rows[q]
                    rows[p] = [c * x - s * y for x, y in zip(rp, rq)]
                    rows[q] = [s * x + c * y for x, y in zip(rp, rq)]
                for r in range(size):
                    a[r][p], a[r][q] = a[p][r], a[q][r]
                a[p][p], a[q][q] = app - t * apq, aqq + t * apq
                a[p][q] = a[q][p] = mpf(0)
        if not rotated:
            break
    else:
        raise SolverFailure(
            "Jacobi rotations on the symmetric matrix of order %d did not "
            "converge in %d sweeps" % (size, JACOBI_MAX_SWEEPS),
            diagnostics={"largest_off_diagonal": max(
                abs(a[p][q]) for p in range(size) for q in range(p + 1, size))},
        )
    order = sorted(range(size), key=lambda k: a[k][k])
    return [a[k][k] for k in order], [basis[k] for k in order]


def secular_spectrum(delta: OverlapMatrix, frame: RotatedFrame,
                     ctx: Context = FAST) -> GeneralizedSpectrum:
    """All N+2-M generalized eigenvalues from one bordered eigensolve.

    The roots of s(Y) are the eigenvalues of K = W Delta W^T:
    det(K - Y) = det(Delta_free - Y) * s(Y) / ||mu~||^2.
    """
    return _spectrum(delta, frame, ctx, _eigensystem, "secular")


def jacobi_spectrum(delta: OverlapMatrix, frame: RotatedFrame,
                    ctx: Context = FAST) -> GeneralizedSpectrum:
    """Cross-check path: the same K as secular_spectrum, by cyclic Jacobi."""
    return _spectrum(delta, frame, ctx, _jacobi_eigensystem, "jacobi")


def fk_min_energy_signal(frame: RotatedFrame, ctx: Context = FAST) -> FourierCosineSignal:
    """Minimum-energy interpolant: all free coordinates zeroed.

    Its energy equals ||mu_tilde||^2, the squared norm of the minimal-norm
    solution of the constraint system.
    """
    with ctx.workprec():
        return FourierCosineSignal(band_limit=frame.n, coeffs=frame.particular_solution())


def slepian_modes(delta: OverlapMatrix, ctx: Context = FAST):
    """Unconstrained energy-concentration optima of the overlap matrix.

    Plain symmetric eigendecomposition (_eigensystem), returned as
    (eigenvalue, signal) pairs in descending eigenvalue order with
    unit-energy signals.  These are the discrete analogues of the prolate
    spheroidal wavefunctions and the natural baseline: no constrained signal
    can beat the top mode.  Warns (PrecisionWarning) when the smallest is
    below ctx.trust_floor.
    """
    with ctx.workprec():
        values, vectors = _eigensystem(delta.entries)
        pairs = []
        for y, coeffs in zip(reversed(values), reversed(vectors)):
            # deterministic sign: largest-magnitude component positive
            if max(coeffs, key=abs) < 0:
                coeffs = [-c for c in coeffs]
            pairs.append((y, FourierCosineSignal(band_limit=delta.n, coeffs=tuple(coeffs))))
    _warn_below_floor(pairs[-1][0], ctx, stacklevel=3)
    return pairs
