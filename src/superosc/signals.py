"""Band-limited periodic signals in the orthonormal cosine basis.

A signal with band limit N is f(t) = A_0/sqrt(2*pi) + sum_{m=1..N}
A_m*cos(m*t)/sqrt(pi).  The basis functions are orthonormal on (-pi, pi),
so the energy per period is just the squared coefficient norm.  Signals
are even and 2*pi-periodic by construction.
"""

import functools
from dataclasses import dataclass

from mpmath import mp

from .context import FAST, Context


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


def cosine_basis(n: int, t):
    """Orthonormal basis values 1/sqrt(2*pi), cos(t)/sqrt(pi), ..., cos(n*t)/sqrt(pi).

    The package's one cosine evaluation: a single mp.cos(t) and the
    Chebyshev recurrence cos(mt) = 2cos(t)cos((m-1)t) - cos((m-2)t), which
    is linear and so runs on the values scaled by 1/sqrt(pi).  Computes at
    the caller's precision and opens no precision context of its own.
    """
    inv_sqrt_2pi, inv_sqrt_pi = _normalizers(mp.prec)
    cos_t = mp.cos(t)
    two_cos = 2 * cos_t
    values = [inv_sqrt_pi, cos_t * inv_sqrt_pi]
    for _ in range(2, n + 1):
        values.append(two_cos * values[-1] - values[-2])
    values[0] = inv_sqrt_2pi
    return values


@functools.lru_cache(maxsize=32)
def _normalizers(prec):
    # cached: two square roots per call cost 20-40% of a grid or quadrature node
    with mp.workprec(prec):
        return 1 / mp.sqrt(2 * mp.pi), 1 / mp.sqrt(mp.pi)


def evaluate(signal: FourierCosineSignal, t, ctx: Context = FAST):
    """f(t) = coeffs . cosine_basis(N, t), at the context's working precision."""
    with ctx.workprec():
        return mp.fdot(signal.coeffs, cosine_basis(signal.band_limit, ctx.real(t)))


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
        return [(t, mp.fdot(signal.coeffs, cosine_basis(signal.band_limit, t)))
                for t in points]
