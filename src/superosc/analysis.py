"""Yields, oscillation counts, and parameter sweeps.

Yields are computed twice on purpose: algebraically from the overlap
quadratic form (the cosine-moment overlap matrix of domains.py) and by
fixed rules on the squared signal: Gauss-Legendre on each domain interval,
with a node count derived from an error bound, and the trapezoid rule on
2N+1 nodes for the period, exact for f^2 and sampled by the kernel's grid
form.  The Gauss-Legendre rules come from Newton steps on Python ints.
Every signal is even, so a rule centred at 0 evaluates f once per +-x pair,
and an interval whose mirror is in the domain reuses its integral.  The
rule route evaluates the signal through the integer cosine kernel
(signals.series_values), which shares only the cached basis normalizers
with overlap_matrix, so their agreement is a real consistency check.
Oscillations are strict sign changes on a uniform grid (default density 1e5
points per unit length), samples from the same kernel, those within
rounding of zero counting as zero.  Only the samples next to a real root
are evaluated, since the sign cannot change between them.  With f(t) =
p(cos t), the real roots of p in [-1, 1] are isolated on Python ints by
Descartes' rule of signs and bisection, to intervals whose t-images are
below the grid step; complex roots, which change no sign, are never formed.
"""

import functools
import math
from dataclasses import dataclass, field

from mpmath import mp, mpf

from .context import FAST, Context
from .design import design_spectrum
from .domains import Domain, OverlapMatrix, overlap_matrix, symmetrize_domain
from .errors import RankDeficientConstraints, SolverFailure
from .signals import FourierCosineSignal, energy_per_period, series_values
from .symmetric import fixed, fixed_rows

GRID_DENSITY = 10 ** 5  # crossing-count samples per unit length


@dataclass(frozen=True)
class YieldReport:
    """Energy fraction inside the domain, by two independent routes."""

    algebraic: object
    quadrature: object


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

    Newton iteration on the Legendre recurrence (Hale and Townsend, SIAM J.
    Sci. Comput. 35, 2013): three steps in floats, then steps in fixed point
    on ints in units 2^-F, F = prec + 64, until |dx| <= 2^-(prec+8).  The
    weight 2/((1 - x^2) P'^2) is formed on ints with P' from the last step,
    taken before its update, so that the rule is the 1.5 prec-bit mpf
    iteration's bit for bit (tests/oracles.py); near x = +-1 that leaves a
    weight a few units off in its last place.  Nodes and weights are rounded
    once to prec bits.  Pairs +-x come next to each other, x = 0 last.
    """
    frac, rule = prec + 64, []
    one = 1 << frac
    with mp.workprec(prec):
        for j in range(1, (count + 1) // 2 + 1):
            x = math.cos(math.pi * (j - 0.25) / (count + 0.5)) if 2 * j <= count else 0.0
            for _ in range(3):
                p1, p0 = 1, 0
                for k in range(1, count + 1):
                    p1, p0 = ((2 * k - 1) * x * p1 - (k - 1) * p0) / k, p1
                x -= p1 / (count * (x * p1 - p0) / (x * x - 1))
            x, dx = fixed(x, frac), one
            while abs(dx) > 1 << 56:  # 2^-(prec+8), the mpf iteration's stop
                p1, p0 = one, 0
                for k in range(1, count + 1):
                    p1, p0 = ((2 * k - 1) * (x * p1 >> frac) - (k - 1) * p0) // k, p1
                slope = count * ((x * p1 >> frac) - p0 << frac) // ((x * x >> frac) - one)
                dx = (p1 << frac) // slope
                x -= dx
            weight = mpf(((2 << 5 * frac) // ((one << frac) - x * x) // (slope * slope), -frac))
            node = mpf((x, -frac))
            rule += [(node, weight), (-node, weight)] if x else [(node, weight)]
    return tuple(rule)


def _integrate_squared(signal, lo, hi, digits):
    """Integral of f^2 over [lo, hi] by one Gauss-Legendre rule.

    f is even and the node mid + half*x of a rule centred at 0 (mid = 0
    exactly) is minus that of -x, so there f is evaluated once per pair.
    """
    half, mid = (hi - lo) / 2, (hi + lo) / 2
    rule = _gauss_legendre(_node_count(signal.band_limit, float(hi - lo), digits), mp.prec)
    nodes = rule[::2] if mid == 0 else rule
    values = series_values(signal, [mid + half * x for x, _ in nodes])
    if mid == 0:
        values = [v for v in values for _ in (0, 1)]
    return half * mp.fsum(w * v * v for (_, w), v in zip(rule, values))


def _integrate_squared_period(signal):
    """Integral of f^2 over one period, trapezoid rule on 2N+1 nodes (exact)."""
    nodes = 2 * signal.band_limit + 1
    lo, step = -mp.pi, 2 * mp.pi / nodes
    values = series_values(signal, [lo + k * step for k in range(nodes)], step)
    return step * mp.fsum(v * v for v in values)


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
        numerator = mp.fdot(signal.coeffs, [mp.fdot(row, signal.coeffs) for row in delta.entries])
        algebraic = numerator / energy
    # The quadrature route needs cancellation headroom: inside the domain a
    # superoscillating signal is orders of magnitude below its coefficients.
    coeff_sum = mp.fsum(abs(c) for c in signal.coeffs)
    inside_scale = mp.sqrt(abs(numerator) / domain.measure) if numerator != 0 else ctx.eps
    headroom = max(0, int(mp.ceil(mp.log10(coeff_sum / inside_scale))) if inside_scale > 0 else 0)
    quad_dps = ctx.work_dps + headroom + 10
    with mp.workdps(quad_dps):
        parts = {}  # an interval's mirror has the same terms, each +-x pair swapped
        for lo, hi in ((mpf(lo), mpf(hi)) for lo, hi in domain.intervals):
            parts[lo, hi] = parts.get((-hi, -lo)) or _integrate_squared(
                signal, lo, hi, quad_dps + headroom)
        num_quad = mp.fsum(parts.values())
        quadrature = num_quad / _integrate_squared_period(signal)
    with ctx.workprec():
        return YieldReport(algebraic=+algebraic, quadrature=+quadrature)


def zero_crossings(signal: FourierCosineSignal, domain: Domain,
                   grid_points: int = None) -> int:
    """Strict sign changes of the signal on a uniform grid inside the domain.

    Samples are taken at dps = 25 digits plus the cancellation headroom of
    the coefficients, only at the interval ends and in the cells around a
    real root (the full grid adds no sign change between them); one within
    the rounding error of zero, 10^-dps sum |A_k|, counts as zero, so a
    change across zero samples is registered once and a tangent zero adds
    none.  Each interval of the domain is counted separately; nothing
    outside the domain contributes.

    f(t) = p(cos t) for p = sum a_k T_k, a_0 = A_0/sqrt(2), a_k = A_k (up to
    1/sqrt(pi)).  _real_roots isolates p's roots, 20 digits above dps, to
    t-images below measure/grid_points, under the step of every interval with
    more than two samples: a sign change lies within a step of the angle of
    its interval's midpoint, in samples cell - 1 to cell + 2 of its cell.
    """
    if grid_points is None:
        grid_points = max(1000, int(mp.ceil(domain.measure * GRID_DENSITY)))
    if grid_points < 1000:
        raise ValueError("grid_points must be >= 1000")
    scale = max(abs(c) for c in signal.coeffs)
    dps = 25 + (max(0, int(mp.ceil(mp.log10(scale)))) if scale else 0)
    noise = mpf(10) ** -dps * mp.fsum(abs(c) for c in signal.coeffs)
    with mp.workdps(dps + 20):
        intervals = _real_roots([signal.coeffs[0] / mp.sqrt(2)] + list(signal.coeffs[1:]),
                                float(domain.measure) / grid_points)
    with mp.workdps(dps):
        roots = [sign * mp.acos(mpf((lo + hi, -1 - exp))) for lo, hi, exp in intervals
                 for sign in (1, -1)]
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
            values = series_values(signal, [lo + k * step for k in sorted(kept)])
            crossings += count_sign_changes(v if abs(v) > noise else 0 for v in values)
    return crossings


def _real_roots(a, step):
    """Intervals [lo, hi] 2^-exp, as (lo, hi, exp), that hold every real root in
    [-1, 1] of p = sum a_k T_k at mp.prec bits: points, or t = acos x images
    below step.

    On ints (fixed_rows), q(y) = p(2y - 1) goes to the monomial basis, and
    Descartes' rule bisects [0, 1] (Collins and Akritas, SYMSAC 1976; Rouillier
    and Zimmermann, J. Comput. Appl. Math. 162, 2004): the sign changes of
    (1 + z)^d q_I(1/(1 + z)), q_I(z) q on the interval I for z in [0, 1], bound
    the roots inside I and match their count mod 2.  None drops I; one
    narrows it by the sign of q_I at dyadic midpoints (Horner on ints); more
    split it into q_I(z/2) and q_I((z + 1)/2) until its t-image is below step,
    which ends the recursion at a tangent or double root.  Roots at an end of
    an interval, such as x = +-1, are kept as points.
    """
    ints = fixed_rows([a], mp.prec)[0][0]
    if not any(ints):
        return []
    q, t0, t1 = [0] * len(ints), [1], [-1, 2]
    for ak in ints:  # q += a_k T_k(2y - 1), then T_k+2 = (4y - 2) T_k+1 - T_k
        for i, v in enumerate(t0):
            q[i] += ak * v
        t0, t1 = t1, [4 * u - 2 * v - w for u, v, w in zip([0] + t1, t1 + [0], t0 + [0, 0])]
    kept = [(1, 1, 0)] if not sum(q) else []
    todo = [(q, 0, 0)]  # (q_I, c, k) for I = [c, c + 1] 2^-k
    while todo:
        q, c, k = todo.pop()
        while not q[0]:  # a root at the left end; one at the right end is the
            kept.append((c, c, k))  # next interval's left end, or x = 1
            q = q[1:]
        roots = count_sign_changes(_shift(q[::-1]))
        if roots == 1:  # bisect on the sign of 2^(jd) q_I(m 2^-j) against q_I(0)'s
            lo, j, d = 0, 0, len(q) - 1
            while _t_width((c << j) + lo, k + j) >= step:
                m, j, value = 2 * lo + 1, j + 1, 0
                for i in range(d, -1, -1):
                    value = value * m + (q[i] << j * (d - i))
                lo = m if (value < 0) == (q[0] < 0) else m - 1  # a root at m stays an end
            kept.append(((c << j) + lo, (c << j) + lo + 1, k + j))
        elif roots and _t_width(c, k) < step:
            kept.append((c, c + 1, k))
        elif roots:
            q = [v << len(q) - 1 - i for i, v in enumerate(q)]
            todo += [(q, 2 * c, k + 1), (_shift(q), 2 * c + 1, k + 1)]
    return [(2 * lo - (1 << exp), 2 * hi - (1 << exp), exp) for lo, hi, exp in kept]


def _t_width(c, k):
    """Length of the t-image of y in [c, c + 1] 2^-k, t = acos(2y - 1) =
    2 atan2(sqrt(1 - y), sqrt(y)), which keeps its accuracy at y = 0 and 1."""
    t = [2 * math.atan2(math.sqrt((1 << k) - y), math.sqrt(y)) for y in (c, c + 1)]
    return t[0] - t[1]


def _shift(a):
    """Coefficients of a(z + 1) from those of a(z), lowest degree first."""
    a = list(a)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


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


def _sweep(n, configs, ctx):
    """Spectra of (key, radius, M) configurations: rows, and errors by key."""
    rows, errors = [], {}
    for key, a, m in configs:
        try:
            result = design_spectrum(n, m, symmetrize_domain(0, a), ctx)
        except (SolverFailure, RankDeficientConstraints) as exc:
            errors[key] = str(exc)
            continue
        with ctx.workprec():
            rows += [SweepRow(key=key, index=i, eigenvalue=lam,
                              normalized=lam / a ** _scaling_exponent(n, i))
                     for i, lam in enumerate(result.spectrum.eigenvalues, start=1)]
    return tuple(rows), errors


def scaling_sweep(n: int, m: int, a_values, ctx: Context = FAST) -> SweepTable:
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
    rows, errors = _sweep(n, [(a, a, m) for a in a_values], ctx)
    slopes = {}
    with ctx.workprec():
        for i in sorted({row.index for row in rows}):
            pairs = [(row.key, row.eigenvalue) for row in rows if row.index == i]
            if len(pairs) >= 2:
                slopes[i] = _fit_slope([mp.log(a) for a, _ in pairs],
                                       [mp.log(lam) for _, lam in pairs])
    return SweepTable(rows=rows, slopes=slopes, errors=errors)


def monotonicity_table(n: int, a, m_values, ctx: Context = FAST) -> SweepTable:
    """Spectra for several constraint counts at fixed band limit and radius."""
    a = mpf(a)
    if any(m > n + 1 for m in m_values):
        raise ValueError("constraint counts must be <= band limit + 1")
    if len(set(m_values)) != len(m_values):
        raise ValueError("constraint counts must be pairwise distinct")
    rows, errors = _sweep(n, [(m, a, m) for m in m_values], ctx)
    return SweepTable(rows=rows, slopes={}, errors=errors)
