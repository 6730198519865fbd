"""Constrained yield maximization as a generalized eigenvalue problem.

Rotating the overlap matrix into the constraint-adapted frame splits it
into a free block, a fixed block, and their coupling.  Stationary values of
the yield are then the roots of the secular function

    s(Y) = q - Y*||mu~||^2 - g^T (Delta_free - Y)^-1 g,   g = Gamma*mu~,

with q the fixed-block quadratic form.  s(Y)/||mu~||^2 is the Schur
complement of the symmetric bordered matrix

    K = [[Delta_free, g/||mu~||], [g^T/||mu~||, q/||mu~||^2]],

so all N+2-M roots and their eigenvectors z = (z_free, z_last) come from one
symmetric eigensolve; x = z_free*||mu~||/z_last solves (Delta_free - Y) x = -g
for the signal's free part.  A vanishing z_last marks a free direction
decoupled from the constraints (deflation): only such a root takes an LU
solve.  secular_spectrum solves K by tridiagonalization, implicit QL and
tridiagonal inverse iteration (_eigensystem); jacobi_spectrum, the
independent cross-check, with cyclic Jacobi rotations on the same K.
"""

import warnings
from dataclasses import dataclass

from mpmath import mp, mpf
from mpmath.matrices.eigen_symmetric import r_sy_tridiag, tridiag_eigen

from .constraints import RotatedFrame
from .context import FAST, Context
from .domains import OverlapMatrix
from .errors import PrecisionWarning, SolverFailure
from .signals import FourierCosineSignal


@dataclass(frozen=True)
class BlockDecomposition:
    """Overlap matrix in frame coordinates, split around the constraint block."""

    delta_free: object   # (N+1-M) x (N+1-M)
    gamma: object        # (N+1-M) x M
    delta_fixed: object  # M x M

    @property
    def free_dim(self):
        return self.delta_free.rows

    @property
    def m(self):
        return self.delta_fixed.rows


@dataclass(frozen=True)
class GeneralizedSpectrum:
    """All stationary yields with their reconstructed signals, ascending."""

    eigenvalues: tuple
    signals: tuple
    free_parts: tuple
    diagnostics: dict

    def __len__(self):
        return len(self.eigenvalues)


def rotate_and_partition(delta: OverlapMatrix, frame: RotatedFrame,
                         ctx: Context = FAST) -> BlockDecomposition:
    """Rotate the overlap matrix into frame coordinates and split in blocks."""
    if delta.n != frame.n:
        raise ValueError(
            "overlap matrix band limit %d does not match frame band limit %d"
            % (delta.n, frame.n)
        )
    with ctx.workprec():
        rotated = frame.rotation * delta.entries * frame.rotation.T
        f = frame.free_dim
        size = delta.n + 1
        return BlockDecomposition(
            delta_free=rotated[0:f, 0:f],
            gamma=rotated[0:f, f:size],
            delta_fixed=rotated[f:size, f:size],
        )


def _coupling(blocks: BlockDecomposition, frame: RotatedFrame):
    """g = Gamma*mu~, q = mu~^T Delta_fixed mu~ and ||mu~||^2 of a matching frame."""
    if blocks.free_dim != frame.free_dim or blocks.m != frame.m:
        raise ValueError("block decomposition does not match the frame")
    g = blocks.gamma * frame.mu_tilde
    q_fixed = (frame.mu_tilde.T * (blocks.delta_fixed * frame.mu_tilde))[0]
    norm_sq = (frame.mu_tilde.T * frame.mu_tilde)[0]
    if norm_sq == 0:
        raise ValueError("constraint targets are all zero")
    return g, q_fixed, norm_sq


def _reconstruct(y, z, coupling, blocks, frame, ctx):
    """Free part, signal, residuals and deflation flag for one root y.

    The free part solves (Delta_free - y) x = -g: by the first block row of
    K z = y z it is z_free ||mu~||/z_last, z the unit bordered eigenvector
    of y.  A deflated root, whose vanishing z_last makes y an eigenvalue of
    Delta_free with eigenvector z_free decoupled from g, takes an LU solve:
    adding z_free z_free^T lifts that direction and leaves the minimum-norm
    free part, orthogonal to it.  (A unit z with z_last = 0 has f >= 1.)
    """
    f = blocks.free_dim
    g, q_fixed, norm_sq = coupling
    deflated = abs(z[f]) <= ctx.bracket_rtol
    if not deflated:
        free_part = z[0:f, 0] * (mp.sqrt(norm_sq) / z[f])  # z[0:f] is 1x0 at f = 0
    else:
        system = blocks.delta_free - y * mp.eye(f) + z[0:f] * z[0:f].T
        try:
            free_part = mp.lu_solve(system, -g)
            # a free part past the deflation threshold ||mu~||/bracket_rtol:
            # the lift left a coupled free-block eigenvalue at y
            if mp.norm(free_part) * ctx.bracket_rtol > mp.sqrt(norm_sq):
                raise ZeroDivisionError
        except ZeroDivisionError as exc:
            raise SolverFailure(
                "stationarity system is singular at eigenvalue %s; coincident "
                "free-block eigenvalues are not resolvable" % mp.nstr(y, 8),
                diagnostics={"eigenvalue": y, "deflated": deflated},
            ) from exc
    coeffs = frame.assemble(free_part)
    signal = FourierCosineSignal(band_limit=frame.n, coeffs=tuple(coeffs))
    stationarity = blocks.delta_free * free_part - y * free_part + g
    residual = mp.sqrt((stationarity.T * stationarity)[0])
    # last row of the bordered system, which a deflated root (z_last = 0)
    # satisfies for any free part
    secular = mpf(0) if deflated else \
        abs(q_fixed - y * norm_sq + (g.T * free_part)[0])
    return free_part, signal, residual, secular, deflated


def _warn_below_floor(smallest, ctx, stacklevel):
    if smallest < ctx.trust_floor:
        warnings.warn("smallest eigenvalue %s is within 1e6 of the precision floor 10^-%d; "
                      "raise the context digits to trust it" % (mp.nstr(smallest, 5), ctx.digits),
                      PrecisionWarning, stacklevel=stacklevel)


def _finalize(roots, vectors, coupling, blocks, frame, method, ctx):
    """Check the roots and reconstruct their signals.

    roots ascend, vectors holds the unit bordered eigenvector of each root
    as an (f+1)x1 matrix, and coupling is _coupling(blocks, frame).
    """
    expected = frame.free_dim + 1
    if len(roots) != expected:
        raise SolverFailure(
            "found %d generalized eigenvalues, expected %d" % (len(roots), expected),
            diagnostics={"roots": roots},
        )
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
    parts = [_reconstruct(y, z, coupling, blocks, frame, ctx)
             for y, z in zip(roots, vectors)]
    free_parts, signals, stationarity, sec_res, defl_flags = zip(*parts)
    _warn_below_floor(roots[0], ctx, stacklevel=4)
    return GeneralizedSpectrum(
        eigenvalues=tuple(roots),
        signals=signals,
        free_parts=free_parts,
        diagnostics={
            "method": method,
            "completion_seed": frame.completion_seed,
            "secular_residuals": sec_res,
            "stationarity_residuals": stationarity,
            "deflated": defl_flags,
        },
    )


def _bordered(blocks: BlockDecomposition, frame: RotatedFrame):
    """The bordered matrix K and _coupling(blocks, frame), at the caller's precision."""
    coupling = g, q_fixed, norm_sq = _coupling(blocks, frame)
    f = blocks.free_dim
    norm = mp.sqrt(norm_sq)
    bordered = mp.zeros(f + 1, f + 1)
    bordered[0:f, 0:f] = blocks.delta_free
    for i in range(f):
        bordered[i, f] = bordered[f, i] = g[i] / norm
    bordered[f, f] = q_fixed / norm_sq
    return bordered, coupling


def _eigensystem(matrix):
    """Ascending eigenvalues and unit eigenvectors (lists) of a symmetric matrix.

    mpmath's EISPACK tred2 and implicit QL without vectors, the two halves
    of eigsy, tridiagonalize from the last row up (the last coordinate is
    never rotated: Q's last row is e_n) and give eigsy's eigenvalues.  Each
    vector comes from inverse iteration on T (Peters & Wilkinson, EISPACK
    tinvit): a pivoted LU of T - y, two back-substitutions from the all-ones
    vector, each followed by Gram-Schmidt against the earlier vectors within
    1e-3 ||T|| (coincident eigenvalues shifted apart by eps ||T||); z = Q v.
    """
    size, a = matrix.rows, matrix.copy()
    d, e = [mpf(0)] * size, [mpf(0)] * size
    r_sy_tridiag(mp, a, d, e, False)
    cols = a.T.tolist()  # reflection i's vector is cols[i][:i], zero if skipped
    reflections = [(u, mp.fdot(u, u) / 2) for u in
                   (cols[i][:i] for i in range(2, size)) if any(u)]
    values, off = d[:], e[:]
    try:
        tridiag_eigen(mp, values, off, False)
    except RuntimeError as exc:
        # QL settles eigenvalues in order: the first unsplit off-diagonal is stuck
        index = next((k for k in range(size - 1) if abs(off[k]) > mp.eps * (
            abs(values[k]) + abs(values[k + 1]))), size - 1)
        raise SolverFailure("implicit QL on the bordered matrix of order %d did not "
                            "converge" % size, diagnostics={"unconverged_index": index}) from exc
    norm = max(abs(d[i]) + abs(e[i]) + abs(e[i - 1]) for i in range(size)) or mpf(1)  # e[-1] = 0
    eps3, vectors, group, last = mp.eps * norm, [], [], None
    for y in values:
        if last is None or y - last >= norm / 1000:
            group = []
        elif y <= last:
            y = last + eps3
        last, pivots, steps, top = y, [], [], [d[0] - y, e[0], mpf(0)]
        for i in range(size - 1):  # T - y = P L U, U with two superdiagonals
            row = [e[i], d[i + 1] - y, e[i + 1]]
            swap = abs(row[0]) > abs(top[0])
            top, row = (row, top) if swap else (top, row)
            m = row[0] / top[0] if top[0] else mpf(0)
            pivots.append(top)
            steps.append((swap, m))
            top = [row[1] - m * top[1], row[2] - m * top[2], mpf(0)]
        pivots.append(top)
        v = [mpf(1)] * size
        for sweep in range(2):
            for i, (swap, m) in enumerate(steps if sweep else ()):  # v <- L^-1 P v
                if swap:
                    v[i], v[i + 1] = v[i + 1], v[i]
                v[i + 1] -= m * v[i]
            x = [mpf(0)] * (size + 2)  # two zeros past the end for the last rows
            for i in range(size - 1, -1, -1):
                u0, u1, u2 = pivots[i]
                x[i] = (v[i] - u1 * x[i + 1] - u2 * x[i + 2]) / (u0 or eps3)
            dots = [mp.fdot(x, w) for w in group]  # fdot zips: stops at w's end
            v = [xi - mp.fdot(dots, col) for xi, col in zip(x, zip(*group))] if group else x[:size]
        scale = 1 / mp.sqrt(mp.fdot(v, v))
        group.append([vi * scale for vi in v])
        z = group[-1][:]
        for u, h in reflections:
            c = mp.fdot(z, u) / h
            z[:len(u)] = [zi - c * ui for zi, ui in zip(z, u)]
        vectors.append(z)
    return values, vectors


def secular_spectrum(blocks: BlockDecomposition, frame: RotatedFrame,
                     ctx: Context = FAST) -> GeneralizedSpectrum:
    """All N+2-M generalized eigenvalues from one bordered eigensolve.

    The roots of s(Y) are the eigenvalues of the symmetric (f+1)x(f+1)
    matrix K = [[Delta_free, g/||mu~||], [g^T/||mu~||, q/||mu~||^2]]:
    det(K - Y) = det(Delta_free - Y) * s(Y) / ||mu~||^2.
    """
    with ctx.workprec():
        bordered, coupling = _bordered(blocks, frame)
        roots, vectors = _eigensystem(bordered)
        return _finalize(roots, [mp.matrix(z) for z in vectors],
                         coupling, blocks, frame, "secular", ctx)


# Tests reach at most 17 sweeps (N=20, M=3 on (-1, 1) at 100 digits, order
# 19), 19 were measured (the same at a = 1/64, 230 digits); convergence is
# quadratic near the end, so a solve still rotating at twice that is stuck.
JACOBI_MAX_SWEEPS = 40


def jacobi_spectrum(blocks: BlockDecomposition, frame: RotatedFrame,
                    ctx: Context = FAST) -> GeneralizedSpectrum:
    """Cross-check path: the same K as secular_spectrum, by cyclic Jacobi.

    Real mpf rotations on lists of rows, accumulating the eigenvectors.  An
    off-diagonal a_pq is set to zero once |a_pq| <= 2^-prec sqrt(|a_pp a_qq|),
    the relative stopping rule of Demmel & Veselic (SIAM J. Matrix Anal.
    Appl. 13, 1992) for positive-definite K; the abs keeps a diagonal that
    rounds negative from a complex square root.  The solve ends after a sweep
    without a rotation.
    """
    with ctx.workprec():
        bordered, coupling = _bordered(blocks, frame)
        a, basis = bordered.tolist(), mp.eye(bordered.rows).tolist()  # basis rows: vectors
        size, tol = len(a), mpf(2) ** -mp.prec
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
                "Jacobi rotations on the bordered matrix of order %d did not "
                "converge in %d sweeps" % (size, JACOBI_MAX_SWEEPS),
                diagnostics={"largest_off_diagonal": max(
                    abs(a[p][q]) for p in range(size) for q in range(p + 1, size))},
            )
        order = sorted(range(size), key=lambda k: a[k][k])
        return _finalize([a[k][k] for k in order], [mp.matrix(basis[k]) for k in order],
                         coupling, blocks, frame, "jacobi", ctx)


def fk_min_energy_signal(frame: RotatedFrame, ctx: Context = FAST) -> FourierCosineSignal:
    """Minimum-energy interpolant: all free coordinates zeroed.

    Its energy equals ||mu_tilde||^2, the squared norm of the minimal-norm
    solution of the constraint system.
    """
    with ctx.workprec():
        coeffs = frame.particular_solution()
        return FourierCosineSignal(band_limit=frame.n, coeffs=tuple(coeffs))


def slepian_modes(delta: OverlapMatrix, ctx: Context = FAST):
    """Unconstrained energy-concentration optima of the overlap matrix.

    Plain symmetric eigendecomposition, returned as (eigenvalue, signal)
    pairs in descending eigenvalue order with unit-energy signals.  These
    are the discrete analogues of the prolate spheroidal wavefunctions and
    the natural baseline: no constrained signal can beat the top mode.
    Warns (PrecisionWarning) when the smallest is below ctx.trust_floor.
    Keeps mp.eigsy, whose vectors set the baseline document's digits.
    """
    with ctx.workprec():
        eigvals, eigvecs = mp.eigsy(delta.entries)
        pairs = []
        size = delta.n + 1
        for k in range(size):
            coeffs = [eigvecs[i, k] for i in range(size)]
            # deterministic sign: largest-magnitude component positive
            pivot = max(range(size), key=lambda i: abs(coeffs[i]))
            if coeffs[pivot] < 0:
                coeffs = [-c for c in coeffs]
            pairs.append((eigvals[k],
                          FourierCosineSignal(band_limit=delta.n, coeffs=tuple(coeffs))))
        pairs.sort(key=lambda p: p[0], reverse=True)
    _warn_below_floor(pairs[-1][0], ctx, stacklevel=3)
    return pairs
