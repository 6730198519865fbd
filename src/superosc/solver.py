"""Constrained yield maximization as a generalized eigenvalue problem.

Rotating the overlap matrix into the constraint-adapted frame splits it
into a free block, a fixed block, and their coupling.  Stationary values of
the yield are then the roots of the secular function

    s(Y) = q - Y*||mu~||^2 - g^T (Delta_free - Y)^-1 g,   g = Gamma*mu~,

with q the fixed-block quadratic form.  s(Y)/||mu~||^2 is the Schur
complement of the symmetric bordered matrix

    K = [[Delta_free, g/||mu~||], [g^T/||mu~||, q/||mu~||^2]],

so all N+2-M roots are the eigenvalues of K, taken from one symmetric
eigensolve.  Each signal comes from solving (Delta_free - Y) x = -g for its
free part; an eigenvector of K with a vanishing last component marks a
free direction decoupled from the constraints (deflation).  Expanding the
same equation into polynomial coefficients is numerically treacherous,
which is why the expanded form is kept only as an independent cross-check.
"""

import warnings
from dataclasses import dataclass

from mpmath import mp, mpf

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


def _quadratic_form(mat, vec):
    return (vec.T * (mat * vec))[0]


def _coupling(blocks: BlockDecomposition, frame: RotatedFrame):
    """g = Gamma*mu~, q = mu~^T Delta_fixed mu~ and ||mu~||^2."""
    g = blocks.gamma * frame.mu_tilde
    q_fixed = _quadratic_form(blocks.delta_fixed, frame.mu_tilde)
    norm_sq = (frame.mu_tilde.T * frame.mu_tilde)[0]
    return g, q_fixed, norm_sq


def _reconstruct(y, z, coupling, blocks, frame, ctx):
    """Free part, signal, residuals and deflation flag for one root y.

    The free part solves (Delta_free - y) x = -g.  When y comes with a
    bordered eigenvector z whose last component vanishes, y is an
    eigenvalue of Delta_free whose eigenvector z_free is decoupled from g
    (the deflated case); adding z_free z_free^T lifts that null direction
    and leaves the minimum-norm free part, orthogonal to z_free.
    """
    f = blocks.free_dim
    g, q_fixed, norm_sq = coupling
    system = blocks.delta_free - y * mp.eye(f)
    deflated = z is not None and abs(z[f]) <= ctx.bracket_rtol
    if deflated:
        z_free = z[0:f]
        system += z_free * z_free.T
    try:
        free_part = mp.lu_solve(system, -g) if f else mp.zeros(0, 1)
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


def _finalize(roots, vectors, coupling, blocks, frame, method, ctx):
    """Check the roots and reconstruct their signals.

    vectors holds the bordered eigenvector of each root, or is None when
    the roots come without one (polynomial route: no deflation); coupling
    is _coupling(blocks, frame).
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
             for y, z in zip(roots, vectors or [None] * len(roots))]
    free_parts, signals, stationarity, sec_res, defl_flags = zip(*parts)
    if roots[0] < ctx.trust_floor:
        warnings.warn(
            "smallest eigenvalue %s is within 1e6 of the precision floor "
            "10^-%d; raise the context digits to trust it"
            % (mp.nstr(roots[0], 5), ctx.digits),
            PrecisionWarning,
            stacklevel=3,
        )
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


def secular_spectrum(blocks: BlockDecomposition, frame: RotatedFrame,
                     ctx: Context = FAST) -> GeneralizedSpectrum:
    """All N+2-M generalized eigenvalues from one bordered eigensolve.

    The roots of s(Y) are the eigenvalues of the symmetric (f+1)x(f+1)
    matrix K = [[Delta_free, g/||mu~||], [g^T/||mu~||, q/||mu~||^2]]:
    det(K - Y) = det(Delta_free - Y) * s(Y) / ||mu~||^2.
    """
    if blocks.free_dim != frame.free_dim or blocks.m != frame.m:
        raise ValueError("block decomposition does not match the frame")
    with ctx.workprec():
        coupling = g, q_fixed, norm_sq = _coupling(blocks, frame)
        if norm_sq == 0:
            raise ValueError("constraint targets are all zero")
        f = blocks.free_dim
        norm = mp.sqrt(norm_sq)
        bordered = mp.zeros(f + 1, f + 1)
        bordered[0:f, 0:f] = blocks.delta_free
        for i in range(f):
            bordered[i, f] = bordered[f, i] = g[i] / norm
        bordered[f, f] = q_fixed / norm_sq
        roots, vectors = mp.eigsy(bordered)
        return _finalize(list(roots), [vectors.column(k) for k in range(f + 1)],
                         coupling, blocks, frame, "secular", ctx)


def polynomial_spectrum(blocks: BlockDecomposition, frame: RotatedFrame,
                        ctx: Context = FAST) -> GeneralizedSpectrum:
    """Cross-check path: expand the eigenvalue equation and root-find it.

    Coefficients come from the characteristic polynomial of the free block
    and the matching adjugate expansion (Faddeev-LeVerrier), both computed
    at doubled working precision because the expanded polynomial is badly
    conditioned in coefficient form.
    """
    if blocks.free_dim != frame.free_dim or blocks.m != frame.m:
        raise ValueError("block decomposition does not match the frame")
    with ctx.workprec():
        norm_sq = (frame.mu_tilde.T * frame.mu_tilde)[0]
        if norm_sq == 0:
            raise ValueError("constraint targets are all zero")
    with mp.workdps(2 * ctx.work_dps):
        f = blocks.free_dim
        char, adj_terms = _faddeev_leverrier(blocks.delta_free, f)
        coupling = w, q_fixed, norm_sq = _coupling(blocks, frame)
        # p(Y) = (q - ||mu~||^2 Y) det(YI - free) + w^T adj(YI - free) w
        coeffs = [mpf(0)] * (f + 2)  # ascending in Y
        for i in range(f + 1):
            coeffs[i] += q_fixed * char[i]
            coeffs[i + 1] -= norm_sq * char[i]
        for k, mat in enumerate(adj_terms):
            coeffs[f - 1 - k] += _quadratic_form(mat, w)
        try:
            raw = mp.polyroots(list(reversed(coeffs)), maxsteps=2000,
                               extraprec=mp.prec)
        except mp.NoConvergence as exc:
            raise SolverFailure("polynomial root finding did not converge",
                                diagnostics={"coefficients": coeffs}) from exc
        roots = []
        for r in raw:
            if abs(mp.im(r)) > ctx.bracket_rtol * (abs(r) + ctx.eps):
                raise SolverFailure(
                    "expanded polynomial produced a complex root %s" % mp.nstr(r, 8),
                    diagnostics={"roots": raw},
                )
            roots.append(mp.re(r))
        roots.sort()
    with ctx.workprec():
        roots = [+y for y in roots]
        return _finalize(roots, None, coupling, blocks, frame, "polynomial", ctx)


def _faddeev_leverrier(matrix, n):
    """Characteristic polynomial det(YI - A) and adjugate expansion of A.

    Returns (char, terms): char[i] is the Y^i coefficient (char[n] = 1) and
    adj(YI - A) = sum_k terms[k] * Y^(n-1-k).
    """
    if n == 0:
        return [mpf(1)], []
    char = [mpf(0)] * (n + 1)
    char[n] = mpf(1)
    current = mp.eye(n)
    terms = [current]
    product = matrix * current
    char[n - 1] = -sum(product[i, i] for i in range(n))
    for k in range(1, n):
        current = product + char[n - k] * mp.eye(n)
        terms.append(current)
        product = matrix * current
        trace = sum(product[i, i] for i in range(n))
        char[n - k - 1] = -trace / (k + 1)
    return char, terms


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
        return pairs
