"""Yields, oscillation counts, and parameter sweeps.

Yields are computed twice on purpose: algebraically from the overlap
quadratic form (the cosine-moment overlap matrix of domains.py) and by fixed
rules on the squared signal: Gauss-Legendre on each domain interval, with a
node count derived from an error bound, and the trapezoid rule on 2N+1
nodes for the period, exact for f^2.  The rule route evaluates the signal
through the cosine kernel (signals.cosine_basis) and shares only the basis
normalizers with overlap_matrix, so their agreement is a real consistency
check.  Oscillations are strict sign changes on a uniform grid (default
density 1e5 points per unit length), a sample exactly on a zero counted
once.  Only the samples next to a root of the signal are evaluated, since
the sign cannot change between them.
"""

import functools
import math
from dataclasses import dataclass, field

from mpmath import mp, mpf

from .context import FAST, Context
from .design import design_spectrum
from .domains import Domain, OverlapMatrix, overlap_matrix, symmetrize_domain
from .errors import RankDeficientConstraints, SolverFailure
from .signals import FourierCosineSignal, cosine_basis, energy_per_period

GRID_DENSITY = 10 ** 5  # crossing-count samples per unit length


@dataclass(frozen=True)
class YieldReport:
    """Energy fraction inside the domain, by two independent routes."""

    algebraic: object
    quadrature: object
    domain: Domain
    signal: FourierCosineSignal


def _node_count(n, length, digits):
    """Least Gauss-Legendre node count for f^2 on an interval of length L.

    Mapped to [-1, 1], f^2 (bandwidth 2N) is below M = S^2 exp(N L (rho -
    1/rho) / 2) on the Bernstein ellipse E_rho, S the coefficient scale, so
    k+1 nodes err by at most (L/2) (64/15) M rho^-2k / (rho^2 - 1) (Trefethen,
    ATAP Thm 19.3); the count puts this below S^2 10^-digits for some rho.
    """
    def count(rho):
        log_bound = (n * length * (rho - 1 / rho) / 2 + math.log(32 * length / 15)
                     - math.log(rho * rho - 1) + digits * math.log(10))
        return 1 + max(1, math.ceil(log_bound / (2 * math.log(rho))))
    return min(count(math.exp(i / 20)) for i in range(1, 241))


@functools.lru_cache(maxsize=16)
def _gauss_legendre(count, prec):
    """(node, weight) pairs of the count-point Gauss-Legendre rule on [-1, 1].

    Newton iteration on the Legendre recurrence at 1.5 times the precision,
    as in mpmath's GaussLegendre, rounded to prec bits.
    """
    rule = []
    with mp.workprec(int(prec * 1.5)):
        for j in range(1, (count + 1) // 2 + 1):
            x = mpf(math.cos(math.pi * (j - 0.25) / (count + 0.5)) if 2 * j <= count else 0)
            dx = 1
            while abs(dx) > mp.ldexp(1, -prec - 8):
                p1, p0 = mpf(1), mpf(0)
                for k in range(1, count + 1):
                    p1, p0 = ((2 * k - 1) * x * p1 - (k - 1) * p0) / k, p1
                slope = count * (x * p1 - p0) / (x * x - 1)
                dx = p1 / slope
                x -= dx
            weight = 2 / ((1 - x * x) * slope ** 2)
            rule += [(x, weight), (-x, weight)] if x else [(x, weight)]
    with mp.workprec(prec):
        return tuple((+x, +w) for x, w in rule)


def _square_at(signal, t):
    return mp.fdot(signal.coeffs, cosine_basis(signal.band_limit, t)) ** 2


def _integrate_squared(signal, lo, hi, digits):
    """Integral of f^2 over [lo, hi] by one Gauss-Legendre rule."""
    half, mid = (hi - lo) / 2, (hi + lo) / 2
    rule = _gauss_legendre(_node_count(signal.band_limit, float(hi - lo), digits), mp.prec)
    return half * mp.fsum(w * _square_at(signal, mid + half * x) for x, w in rule)


def _integrate_squared_period(signal):
    """Integral of f^2 over one period, trapezoid rule on 2N+1 nodes (exact)."""
    step = 2 * mp.pi / (2 * signal.band_limit + 1)
    return step * mp.fsum(_square_at(signal, -mp.pi + k * step)
                          for k in range(2 * signal.band_limit + 1))


def yield_of(signal: FourierCosineSignal, domain: Domain,
             delta: OverlapMatrix = None, ctx: Context = FAST) -> YieldReport:
    """Yield of a signal over a domain, algebraic and quadrature routes."""
    with ctx.workprec():
        energy = energy_per_period(signal, ctx)
        if energy == 0:
            raise ValueError("zero-energy signal has no yield")
        if delta is None:
            delta = overlap_matrix(domain, signal.band_limit, ctx)
        elif delta.n != signal.band_limit or delta.domain.intervals != domain.intervals:
            raise ValueError("supplied overlap matrix does not match domain/band limit")
        vec = mp.matrix(signal.coeffs)
        numerator = (vec.T * (delta.entries * vec))[0]
        algebraic = numerator / energy
    # The quadrature route needs cancellation headroom: inside the domain a
    # superoscillating signal is orders of magnitude below its coefficients.
    coeff_sum = mp.fsum(abs(c) for c in signal.coeffs)
    inside_scale = mp.sqrt(abs(numerator) / domain.measure) if numerator != 0 else ctx.eps
    headroom = max(0, int(mp.ceil(mp.log10(coeff_sum / inside_scale))) if inside_scale > 0 else 0)
    quad_dps = ctx.work_dps + headroom + 10
    with mp.workdps(quad_dps):
        num_quad = mp.fsum(
            _integrate_squared(signal, mpf(lo), mpf(hi), quad_dps + headroom)
            for lo, hi in domain.intervals
        )
        quadrature = num_quad / _integrate_squared_period(signal)
    with ctx.workprec():
        return YieldReport(algebraic=+algebraic, quadrature=+quadrature,
                           domain=domain, signal=signal)


def zero_crossings(signal: FourierCosineSignal, domain: Domain,
                   grid_points: int = None) -> int:
    """Strict sign changes of the signal on a uniform grid inside the domain.

    Samples that land exactly on a zero are counted once: the sign change is
    registered against the last nonzero sample.  Each interval of the domain
    is counted separately; nothing outside the domain contributes.  Samples
    are taken at 25 digits plus the cancellation headroom of the
    coefficients, and only at the interval ends and in the cells around a
    root: the full grid adds no sign change between them.
    """
    if grid_points is None:
        grid_points = max(1000, int(mp.ceil(domain.measure * GRID_DENSITY)))
    if grid_points < 1000:
        raise ValueError("grid_points must be >= 1000")
    scale = max(abs(c) for c in signal.coeffs)
    dps = 25 + (max(0, int(mp.ceil(mp.log10(scale)))) if scale else 0)
    roots = _root_angles(signal, dps)
    crossings = 0
    for lo, hi in domain.intervals:
        pts = max(2, int(round(grid_points * float((hi - lo) / domain.measure))))
        with mp.workdps(dps):
            lo = mpf(lo) * 1
            step = (mpf(hi) * 1 - lo) / (pts - 1)
            kept = {0, pts - 1}
            for t in roots:
                cell = int(mp.floor((t - lo) / step))
                kept.update(k for k in range(cell - 1, cell + 3) if 0 <= k < pts)
            crossings += count_sign_changes(
                mp.fdot(signal.coeffs, cosine_basis(signal.band_limit, lo + k * step))
                for k in sorted(kept))
    return crossings


def _root_angles(signal, dps):
    """Angles +-acos(Re x) of the roots x of p, where f(t) = p(cos t).

    p = sum a_k T_k with a_0 = A_0/sqrt(2), a_k = A_k (up to 1/sqrt(pi)); its
    roots are the eigenvalues of the colleague matrix (Boyd, SIAM Rev. 55,
    2013), whose rows are x T_0 = T_1, x T_k = (T_{k-1} + T_{k+1})/2.  Found
    20 digits above the sampling digits dps, after dropping leading terms
    below 10^-dps of the largest, which sampling cannot see and which would
    blow up the matrix.  Every root is kept, real or not: a spurious one
    costs four samples.
    """
    with mp.workdps(dps + 20):
        a = [signal.coeffs[0] / mp.sqrt(2)] + list(signal.coeffs[1:])
        floor = mpf(10) ** -dps * max(abs(c) for c in a)
        while len(a) > 1 and abs(a[-1]) <= floor:
            a.pop()
        n = len(a) - 1
        if n < 2:  # mp.eig mishandles 1x1 matrices
            xs = [-a[0] / a[1]] if n else []
        else:
            colleague = mp.zeros(n, n)
            for i in range(n - 1):
                colleague[i, i + 1] = colleague[i + 1, i] = mpf(1) / 2
            colleague[0, 1] = 1
            for k in range(n):
                colleague[n - 1, k] -= a[k] / (2 * a[n])
            xs = mp.eig(colleague, left=False, right=False)
        return [sign * mp.acos(min(1, max(-1, mp.re(x)))) for x in xs for sign in (1, -1)]


def count_sign_changes(values):
    """Strict sign changes in a sequence; samples exactly at zero count once.

    A zero sample neither counts nor resets: +,0,+ has no change while
    +,0,- has exactly one.
    """
    changes = 0
    last_sign = 0
    for value in values:
        sign = 1 if value > 0 else (-1 if value < 0 else 0)
        if sign != 0:
            if last_sign != 0 and sign != last_sign:
                changes += 1
            last_sign = sign
    return changes


@dataclass(frozen=True)
class SweepRow:
    key: object        # interval radius a, or constraint count M
    index: int         # eigenvalue index, 1-based ascending
    eigenvalue: object
    normalized: object  # eigenvalue / a^(4(N-i)+5)


@dataclass(frozen=True)
class SweepTable:
    rows: tuple
    slopes: dict = field(default_factory=dict)   # index -> fitted log-log slope
    errors: dict = field(default_factory=dict)   # key -> failure message


def _scaling_exponent(n, index):
    return 4 * (n - index) + 5


def _fit_slope(xs, ys):
    n = len(xs)
    sx = mp.fsum(xs)
    sy = mp.fsum(ys)
    sxx = mp.fsum(x * x for x in xs)
    sxy = mp.fsum(x * y for x, y in zip(xs, ys))
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def _sweep(n, configs, ctx, seed):
    """Spectra of (key, radius, M) configurations: rows, and errors by key."""
    rows, errors = [], {}
    for key, a, m in configs:
        try:
            result = design_spectrum(n, m, symmetrize_domain(0, a), ctx, seed=seed)
        except (SolverFailure, RankDeficientConstraints) as exc:
            errors[key] = str(exc)
            continue
        with ctx.workprec():
            rows += [SweepRow(key=key, index=i, eigenvalue=lam,
                              normalized=lam / a ** _scaling_exponent(n, i))
                     for i, lam in enumerate(result.spectrum.eigenvalues, start=1)]
    return tuple(rows), errors


def scaling_sweep(n: int, m: int, a_values, ctx: Context = FAST,
                  seed: int = 0) -> SweepTable:
    """Spectra over a grid of interval radii, with log-log slope fits.

    Small radii push eigenvalues far below double precision, hence the
    high-precision requirement below 0.1.
    """
    a_values = [mpf(a) for a in a_values]
    if any(not (0 < a < mp.pi) for a in a_values):
        raise ValueError("interval radii must lie in (0, pi)")
    if min(a_values) < mpf("0.1") and ctx.digits < 100:
        raise ValueError("radii below 0.1 need a high-precision context (>= 100 digits)")
    rows, errors = _sweep(n, [(a, a, m) for a in a_values], ctx, seed)
    slopes = {}
    with ctx.workprec():
        for i in sorted({row.index for row in rows}):
            pairs = [(row.key, row.eigenvalue) for row in rows if row.index == i]
            if len(pairs) >= 2:
                slopes[i] = _fit_slope([mp.log(a) for a, _ in pairs],
                                       [mp.log(lam) for _, lam in pairs])
    return SweepTable(rows=rows, slopes=slopes, errors=errors)


def monotonicity_table(n: int, a, m_values, ctx: Context = FAST,
                       seed: int = 0) -> SweepTable:
    """Spectra for several constraint counts at fixed band limit and radius."""
    a = mpf(a)
    if any(m > n + 1 for m in m_values):
        raise ValueError("constraint counts must be <= band limit + 1")
    rows, errors = _sweep(n, [(m, a, m) for m in m_values], ctx, seed)
    return SweepTable(rows=rows, slopes={}, errors=errors)
