"""Yields, oscillation counts, and parameter sweeps.

Yields are computed twice on purpose: algebraically from the overlap
quadratic form (the cosine-moment overlap matrix of domains.py) and by fixed
rules on the squared signal: Gauss-Legendre on each domain interval, with a
node count derived from an error bound, and the trapezoid rule on 2N+1
nodes for the period, exact for f^2.  The rule route evaluates the signal
through the cosine kernel (signals.cosine_basis) and shares only the basis
normalizers with overlap_matrix, so their agreement is a real consistency
check.  Oscillations are strict sign changes on a uniform grid (default
density 1e5 points per unit length), samples within rounding of zero
counting as zero.  Only the samples next to a root are evaluated, since
the sign cannot change between them; the roots are the eigenvalues of the
Chebyshev colleague matrix, whose transpose is already upper Hessenberg,
found by a real double-shift QR that computes eigenvalues only.
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

    Newton iteration on the Legendre recurrence, three steps in floats and
    then at 1.5 times the precision, as in mpmath's GaussLegendre, rounded
    to prec bits.
    """
    rule = []
    with mp.workprec(int(prec * 1.5)):
        for j in range(1, (count + 1) // 2 + 1):
            x = math.cos(math.pi * (j - 0.25) / (count + 0.5)) if 2 * j <= count else 0.0
            step, dx = 0, 1
            while step <= 3 or abs(dx) > mp.ldexp(1, -prec - 8):
                if step == 3:
                    x = mpf(x)
                p1, p0 = 1, 0
                for k in range(1, count + 1):
                    p1, p0 = ((2 * k - 1) * x * p1 - (k - 1) * p0) / k, p1
                slope = count * (x * p1 - p0) / (x * x - 1)
                dx = p1 / slope
                x -= dx
                step += 1
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

    Samples are taken at dps = 25 digits plus the cancellation headroom of
    the coefficients, only at the interval ends and in the cells around a
    root (the full grid adds no sign change between them); one within the
    rounding error of zero, 10^-dps sum |A_k|, counts as zero, so a change
    across zero samples is registered once and a tangent zero adds none.
    Each interval of the domain is counted separately; nothing outside the
    domain contributes.
    """
    if grid_points is None:
        grid_points = max(1000, int(mp.ceil(domain.measure * GRID_DENSITY)))
    if grid_points < 1000:
        raise ValueError("grid_points must be >= 1000")
    scale = max(abs(c) for c in signal.coeffs)
    dps = 25 + (max(0, int(mp.ceil(mp.log10(scale)))) if scale else 0)
    noise = mpf(10) ** -dps * mp.fsum(abs(c) for c in signal.coeffs)
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
            values = (mp.fdot(signal.coeffs, cosine_basis(signal.band_limit, lo + k * step))
                      for k in sorted(kept))
            crossings += count_sign_changes(v if abs(v) > noise else 0 for v in values)
    return crossings


def _root_angles(signal, dps):
    """Angles +-acos(Re x) of the roots x of p, where f(t) = p(cos t).

    p = sum a_k T_k with a_0 = A_0/sqrt(2), a_k = A_k (up to 1/sqrt(pi)); its
    roots are the eigenvalues of the colleague matrix (Boyd, SIAM Rev. 55,
    2013), whose rows are x T_0 = T_1, x T_k = (T_{k-1} + T_{k+1})/2; its
    transpose is upper Hessenberg, for _hessenberg_eigenvalues.  Found 20
    digits above the sampling digits dps, after dropping leading terms below
    10^-dps of the largest, which sampling cannot see and which would blow
    up the matrix.  Every root is kept, real or not: a spurious one costs
    four samples.
    """
    with mp.workdps(dps + 20):
        a = [signal.coeffs[0] / mp.sqrt(2)] + list(signal.coeffs[1:])
        floor = mpf(10) ** -dps * max(abs(c) for c in a)
        while len(a) > 1 and abs(a[-1]) <= floor:
            a.pop()
        n = len(a) - 1
        if n < 2:  # n = 1: the only row is x T_0 = T_1, without the 1/2
            xs = [-a[0] / a[1]] if n else []
        else:
            h = [[mpf(0)] * n for _ in range(n)]
            for i in range(n - 1):
                h[i][i + 1] = h[i + 1][i] = mpf(1) / 2
            h[1][0] = mpf(1)
            for k in range(n):
                h[k][n - 1] -= a[k] / (2 * a[n])
            xs = _hessenberg_eigenvalues(h)
        return [sign * mp.acos(min(1, max(-1, x))) for x in xs for sign in (1, -1)]


def _hessenberg_eigenvalues(h):
    """Real parts of all eigenvalues of an upper Hessenberg h (rows of mpf).

    Francis double-shift QR without vectors (EISPACK hqr: Martin, Peters and
    Wilkinson, Numer. Math. 14, 1970; Golub and Van Loan, Alg. 7.5.2), real
    and at the working precision; h is overwritten.  A complex pair gives
    its real part twice; exceptional shifts come at sweeps 10 and 20.
    """
    n = len(h)
    norm = mp.fsum(abs(x) for row in h for x in row)
    values, shift, hi, its = [], mpf(0), n - 1, 0
    while hi >= 0:
        l = hi  # h splits above row l where h[l][l-1] is below rounding
        while l and abs(h[l][l - 1]) + (s := abs(h[l - 1][l - 1]) + abs(h[l][l]) or norm) != s:
            l -= 1
        if l:
            h[l][l - 1] = mpf(0)
        x = h[hi][hi]
        y, w = (h[hi - 1][hi - 1], h[hi][hi - 1] * h[hi - 1][hi]) if l < hi else (x, 0)
        if l >= hi - 1:  # a 1x1 (w = 0, one value) or 2x2 block splits off
            mean, root = (x + y) / 2 + shift, mp.sqrt(max(((y - x) / 2) ** 2 + w, 0))
            values += [mean - root, mean + root][:hi - l + 1]
            hi, its = l - 1, 0
            continue
        if its == 30 * n:
            raise SolverFailure("no QR convergence on the %dx%d colleague matrix" % (n, n))
        if its in (10, 20):
            shift += x
            for i in range(hi + 1):
                h[i][i] -= x
            s = abs(h[hi][hi - 1]) + abs(h[hi - 1][hi - 2])
            x, y, w = 3 * s / 4, 3 * s / 4, -7 * s * s / 16
        its += 1
        # first column of (h - s1)(h - s2) / h[l+1][l], s1 + s2 = x + y, s1 s2 = x y - w
        z = h[l][l]
        p = ((x - z) * (y - z) - w) / h[l + 1][l] + h[l][l + 1]
        q, r = h[l + 1][l + 1] - x - y + z, h[l + 2][l + 1]
        for k in range(l, hi):  # chase the bulge down with 3x3 reflectors
            k2 = min(k + 2, hi)  # the last one is 2x2: r = 0
            if k != l:
                p, q, r = h[k][k - 1], h[k + 1][k - 1], h[k2][k - 1] if k2 > k + 1 else 0
            s = (-1 if p < 0 else 1) * mp.sqrt(p * p + q * q + r * r)
            if k != l:  # the reflector takes (p, q, r) to (-s, 0, 0)
                h[k][k - 1], h[k + 1][k - 1], h[k2][k - 1] = -s, 0, 0
            if not s:
                continue
            p += s
            x, y, z = p / s, q / s, r / s
            q, r = q / p, r / p
            for j in range(k, hi + 1):
                p = h[k][j] + q * h[k + 1][j] + r * h[k2][j]
                h[k2][j] -= p * z
                h[k + 1][j] -= p * y
                h[k][j] -= p * x
            for i in range(l, min(hi, k + 3) + 1):
                p = x * h[i][k] + y * h[i][k + 1] + z * h[i][k2]
                h[i][k2] -= p * r
                h[i][k + 1] -= p * q
                h[i][k] -= p
    return values


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
    if len(set(a_values)) != len(a_values):
        raise ValueError("interval radii must be pairwise distinct")
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
    if len(set(m_values)) != len(m_values):
        raise ValueError("constraint counts must be pairwise distinct")
    rows, errors = _sweep(n, [(m, a, m) for m in m_values], ctx, seed)
    return SweepTable(rows=rows, slopes={}, errors=errors)
