"""Yields, oscillation counts, and parameter sweeps.

Yields are computed twice on purpose: algebraically from the overlap
quadratic form (closed-form antiderivatives in domains.py) and by adaptive
quadrature of the squared signal (signals.cosine_basis).  The quadrature
route shares no code with overlap_matrix, so their agreement is a real
consistency check; it shares the cosine kernel with evaluate and
constraint_matrix, and a fault there moves only the quadrature yield.
Oscillations are operationalized as strict sign changes on a uniform grid
(default density 1e5 points per unit length), with samples landing exactly
on a zero counted once.
"""

from dataclasses import dataclass, field

from mpmath import mp, mpf

from .context import FAST, Context
from .design import design_spectrum
from .domains import Domain, OverlapMatrix, overlap_matrix, symmetrize_domain
from .errors import SolverFailure
from .signals import FourierCosineSignal, cosine_basis, energy_per_period, values_on_grid

GRID_DENSITY = 10 ** 5  # crossing-count samples per unit length


@dataclass(frozen=True)
class YieldReport:
    """Energy fraction inside the domain, by two independent routes."""

    algebraic: object
    quadrature: object
    domain: Domain
    signal: FourierCosineSignal


def _integrate_squared(signal, lo, hi):
    """Integral of f^2 over [lo, hi], split into sub-unit panels."""
    n = signal.band_limit
    panels = max(1, int(mp.ceil((hi - lo) * max(2, n) / 3)))
    step = (hi - lo) / panels
    return mp.fsum(
        mp.quad(lambda t: mp.fdot(signal.coeffs, cosine_basis(n, t)) ** 2,
                [lo + k * step, lo + (k + 1) * step])
        for k in range(panels)
    )


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
    with mp.workdps(ctx.work_dps + headroom + 10):
        num_quad = mp.fsum(
            _integrate_squared(signal, mpf(lo), mpf(hi))
            for lo, hi in domain.intervals
        )
        den_quad = _integrate_squared(signal, -mp.pi, mp.pi)
        quadrature = num_quad / den_quad
    with ctx.workprec():
        return YieldReport(algebraic=+algebraic, quadrature=+quadrature,
                           domain=domain, signal=signal)


def zero_crossings(signal: FourierCosineSignal, domain: Domain,
                   grid_points: int = None) -> int:
    """Strict sign changes of the signal on a uniform grid inside the domain.

    Samples that land exactly on a zero are counted once: the sign change is
    registered against the last nonzero sample.  Each interval of the domain
    is counted separately; nothing outside the domain contributes.
    """
    if grid_points is None:
        grid_points = max(1000, int(mp.ceil(domain.measure * GRID_DENSITY)))
    if grid_points < 1000:
        raise ValueError("grid_points must be >= 1000")
    total_len = domain.measure
    crossings = 0
    for lo, hi in domain.intervals:
        pts = max(2, int(round(grid_points * float((hi - lo) / total_len))))
        crossings += count_sign_changes(
            value for _, value in values_on_grid(signal, lo, hi, pts))
    return crossings


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
    rows = []
    errors = {}
    per_index = {}
    for a in a_values:
        try:
            result = design_spectrum(n, m, symmetrize_domain(0, a), ctx, seed=seed)
        except SolverFailure as exc:
            errors[a] = str(exc)
            continue
        with ctx.workprec():
            for i, lam in enumerate(result.spectrum.eigenvalues, start=1):
                normalized = lam / a ** _scaling_exponent(n, i)
                rows.append(SweepRow(key=a, index=i, eigenvalue=lam,
                                     normalized=normalized))
                per_index.setdefault(i, []).append((a, lam))
    slopes = {}
    with ctx.workprec():
        for i, pairs in per_index.items():
            if len(pairs) >= 2:
                slopes[i] = _fit_slope([mp.log(a) for a, _ in pairs],
                                       [mp.log(lam) for _, lam in pairs])
    return SweepTable(rows=tuple(rows), slopes=slopes, errors=errors)


def monotonicity_table(n: int, a, m_values, ctx: Context = FAST,
                       seed: int = 0) -> SweepTable:
    """Spectra for several constraint counts at fixed band limit and radius."""
    a = mpf(a)
    if any(m > n + 1 for m in m_values):
        raise ValueError("constraint counts must be <= band limit + 1")
    rows = []
    errors = {}
    for m in m_values:
        try:
            result = design_spectrum(n, m, symmetrize_domain(0, a), ctx, seed=seed)
        except SolverFailure as exc:
            errors[m] = str(exc)
            continue
        with ctx.workprec():
            for i, lam in enumerate(result.spectrum.eigenvalues, start=1):
                normalized = lam / a ** _scaling_exponent(n, i)
                rows.append(SweepRow(key=m, index=i, eigenvalue=lam,
                                     normalized=normalized))
    return SweepTable(rows=tuple(rows), slopes={}, errors=errors)
