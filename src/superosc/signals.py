"""Band-limited periodic signals in the orthonormal cosine basis.

A signal with band limit N is f(t) = A_0/sqrt(2*pi) + sum_{m=1..N}
A_m*cos(m*t)/sqrt(pi).  The basis functions are orthonormal on (-pi, pi),
so the energy per period is just the squared coefficient norm.  Signals
are even and 2*pi-periodic by construction.  Every series value in the
package comes from series_values: at p bits of precision the basis runs in
fixed point on Python ints with p + 64 fraction bits (cosine_basis), is
dotted with the coefficients as ints and rounded once.  A uniform grid
takes two cosines in all and angle addition on ints (cosine_basis).
"""

import functools
from dataclasses import dataclass
from operator import mul

from mpmath import mp, mpf

from .context import FAST, Context
from .symmetric import fixed, fixed_rows


@dataclass(frozen=True)
class FourierCosineSignal:
    """Coefficients (A_0, ..., A_N) over the orthonormal cosine basis."""

    band_limit: int
    coeffs: tuple

    def __post_init__(self):
        if self.band_limit < 1:
            raise ValueError("band limit must be >= 1")
        if len(self.coeffs) != self.band_limit + 1:
            raise ValueError(
                "expected %d coefficients, got %d"
                % (self.band_limit + 1, len(self.coeffs))
            )
        # mpmathify returns an mpf unchanged, at its own precision; mpf(c)
        # would round it to the ambient one.
        object.__setattr__(self, "coeffs", tuple(mp.mpmathify(c) for c in self.coeffs))
        if any(not (isinstance(c, mp.mpf) and mp.isfinite(c)) for c in self.coeffs):
            raise ValueError("coefficients must be finite reals")


def cosine_basis(n: int, t, step=None):
    """Orthonormal basis values 1/sqrt(2*pi), cos(t)/sqrt(pi), ..., cos(n*t)/sqrt(pi)
    as ints in units 2^-F, F = p + 64 at the caller's precision p.

    The package's one cosine evaluation: cos t to F bits by one mp.cos(t),
    then cos(mt) = 2cos(t)cos((m-1)t) - cos((m-2)t), linear and so run on
    the values scaled by 1/sqrt(pi).  The 64 guard bits cover the growth of
    the error of cos t (about n^2 near t = 0 and pi) and the truncations.
    Opens no precision context.

    With a step, t is the grid t_k = lo + k*step (lo = t[0]) as the caller
    rounded it, and one row per point comes back: an mp.cos_sin of lo and
    of step at G = p + 96 bits seed angle addition on ints for the exact
    angles s = lo + k*step, moved to t_k by cos(s + d) = cos s - d sin s -
    d^2 cos s / 2 and rounded to F bits as mp.cos rounds (mp.cos, with 10
    guard bits, rounds the other way near a tie at about 1 point in 3000).
    """
    frac = mp.prec + 64
    if step is None:
        two_cos = [fixed(mp.cos(t, prec=frac), frac + 1)]
    else:
        wide, lo = frac + 32, t[0]
        unit = max(wide, -lo._mpf_[2], -step._mpf_[2])  # 2^-unit divides every t_k
        c, s = (fixed(x, wide) for x in mp.cos_sin(lo, prec=wide))
        dc, ds = (fixed(x, wide) for x in mp.cos_sin(step, prec=wide))
        lo, step = fixed(lo, unit), fixed(step, unit)
        two_cos = []
        for k, tk in enumerate(t):
            d = fixed(tk, unit) - lo - k * step >> unit - wide
            cos_t = c - (d * s + (d * d >> wide + 1) * c >> wide)
            mag, cut = abs(cos_t), abs(cos_t).bit_length() - frac
            if cut > 0:  # to F significant bits, nearest, as mp.cos rounds
                mag = (mag >> cut - 1) + 1 >> 1 << cut
            two_cos.append(mag >> 31 if cos_t > 0 else -(mag >> 31))  # G - F - 1
            c, s = c * dc - s * ds >> wide, s * dc + c * ds >> wide
    inv_sqrt_2pi, inv_sqrt_pi = _fixed_normalizers(mp.prec)
    rows = []
    for tc in two_cos:
        values = [inv_sqrt_pi, tc * inv_sqrt_pi >> frac + 1]
        for _ in range(2, n + 1):
            values.append((tc * values[-1] >> frac) - values[-2])
        values[0] = inv_sqrt_2pi
        rows.append(values)
    return rows if step is not None else rows[0]


@functools.lru_cache(maxsize=32)
def _normalizers(prec):
    """1/sqrt(2*pi) and 1/sqrt(pi) as mpf, each taken at prec + 64 bits and
    rounded once to prec bits, so that both are correctly rounded."""
    # cached: two square roots per call cost 20-40% of a grid or quadrature node
    with mp.workprec(prec + 64):
        wide = 1 / mp.sqrt(2 * mp.pi), 1 / mp.sqrt(mp.pi)
    with mp.workprec(prec):
        return +wide[0], +wide[1]


@functools.lru_cache(maxsize=32)
def _fixed_normalizers(prec):
    """The same two values as cosine_basis's ints in units 2^-(prec + 64)."""
    return tuple(fixed(x, prec + 64) for x in _normalizers(prec + 64))


def series_values(signal: FourierCosineSignal, points, step=None):
    """f at each point, at the caller's precision p: the coefficients as ints
    (symmetric.fixed_rows, converted once per call) dotted with each
    cosine_basis row, each value rounded once to p bits.  With a step, the
    points are the grid lo + k*step of cosine_basis."""
    frac = mp.prec + 64
    (a,), top = fixed_rows([signal.coeffs], frac)
    rows = (cosine_basis(signal.band_limit, t) for t in points) if step is None \
        else cosine_basis(signal.band_limit, points, step)
    return [mpf((sum(map(mul, a, row)), top - 2 * frac)) for row in rows]


def evaluate(signal: FourierCosineSignal, t, ctx: Context = FAST):
    """f(t) at the context's working precision."""
    with ctx.workprec():
        return series_values(signal, [ctx.real(t)])[0]


def energy_per_period(signal: FourierCosineSignal, ctx: Context = FAST):
    """Energy of one period, sum of squared coefficients by orthonormality."""
    with ctx.workprec():
        return mp.fsum(c * c for c in signal.coeffs)


def sample(signal: FourierCosineSignal, lo, hi, count: int, ctx: Context = FAST):
    """Uniform samples of (t, f(t)) on [lo, hi], endpoints included."""
    if count < 2:
        raise ValueError("count must be >= 2")
    with ctx.workprec():
        lo = ctx.real(lo)
        hi = ctx.real(hi)
        if not lo < hi:
            raise ValueError("need lo < hi")
        step = (hi - lo) / (count - 1)
        points = [lo + k * step for k in range(count)]
        return list(zip(points, series_values(signal, points, step)))
