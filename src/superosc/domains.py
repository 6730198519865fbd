"""Superoscillation domains and their overlap (Gram) matrices.

A domain is an ordered union of disjoint open subintervals of (-pi, pi).
The overlap matrix of band limit N over a domain D collects the inner
products of the N+1 orthonormal cosine basis functions restricted to D; it
is built in closed form from the domain's 2N+1 cosine moments, never from
quadrature (quadrature is kept as an independent test oracle).
"""

from dataclasses import dataclass

from mpmath import mp, mpf

from .context import FAST, Context
from .errors import DomainError
from .signals import _normalizers


@dataclass(frozen=True)
class Domain:
    """Ordered union of disjoint open intervals inside (-pi, pi)."""

    intervals: tuple

    def __post_init__(self):
        object.__setattr__(self, "intervals", _canonicalize(self.intervals))

    @property
    def measure(self):
        return mp.fsum(hi - lo for lo, hi in self.intervals)


def _canonicalize(intervals):
    if not intervals:
        raise DomainError("domain needs at least one interval")
    cleaned = []
    for lo, hi in intervals:
        lo, hi = mpf(lo), mpf(hi)
        if not (lo < hi):
            raise DomainError("interval endpoints must satisfy lo < hi")
        if lo < -mp.pi or hi > mp.pi:
            raise DomainError("intervals must lie inside [-pi, pi]")
        cleaned.append((lo, hi))
    cleaned.sort()
    merged = [cleaned[0]]
    for lo, hi in cleaned[1:]:
        plo, phi = merged[-1]
        if lo < phi:
            raise DomainError("intervals overlap")
        if lo == phi:
            merged[-1] = (plo, hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


def symmetrize_domain(a, b):
    """Symmetric domain (-b,-a) u (a,b) from inner/outer radii 0 <= a < b <= pi.

    a == 0 degenerates to the single interval (-b, b).
    """
    a, b = mpf(a), mpf(b)
    if not (0 <= a < b):
        raise ValueError("need 0 <= a < b")
    if b > mp.pi:
        raise DomainError("outer radius exceeds pi")
    if a == 0:
        return Domain(((-b, b),))
    return Domain(((-b, -a), (a, b)))


def parse_domain_spec(text):
    """Parse the CLI domain syntax 'lo,hi;lo,hi' (radians) into a Domain."""
    intervals = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(",")
        if len(pieces) != 2:
            raise ValueError("bad interval %r, expected 'lo,hi'" % part)
        intervals.append((mpf(pieces[0]), mpf(pieces[1])))
    if not intervals:
        raise ValueError("empty domain spec")
    return Domain(tuple(intervals))


@dataclass(frozen=True)
class OverlapMatrix:
    """Symmetric Gram matrix of the cosine basis over a domain: N+1 row tuples."""

    n: int
    entries: tuple
    domain: Domain

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(map(tuple, self.entries)))

    def __getitem__(self, idx):
        return self.entries[idx[0]][idx[1]]  # delta[i, j]


def overlap_matrix(domain: Domain, n: int, ctx: Context = FAST) -> OverlapMatrix:
    """Overlap matrix of band limit n over the domain, from its cosine moments.

    cos(mt)cos(kt) = (cos((m-k)t) + cos((m+k)t))/2, so with the moments
    I_j = int_D cos(jt) dt the entries are c_m c_k (I_|m-k| + I_m+k)/2, a
    Toeplitz-plus-Hankel matrix of I_0, ..., I_2n; c_m are the basis
    normalizers of signals.cosine_basis.
    """
    if n < 1:
        raise ValueError("band limit must be >= 1")
    with ctx.workprec():
        ivals = [(ctx.real(lo), ctx.real(hi)) for lo, hi in domain.intervals]
        moments = [mp.fsum(hi - lo for lo, hi in ivals)]
        moments += [mp.fsum(mp.sin(j * hi) - mp.sin(j * lo) for lo, hi in ivals) / j
                    for j in range(1, 2 * n + 1)]
        inv_sqrt_2pi, inv_sqrt_pi = _normalizers(mp.prec)
        scale = [inv_sqrt_2pi] + [inv_sqrt_pi] * n
        rows = []  # row m: column m of the rows above it, then its own upper part
        for m in range(n + 1):
            rows.append(tuple(row[m] for row in rows) + tuple(scale[m] * scale[k] * (
                moments[k - m] + moments[m + k]) / 2 for k in range(m, n + 1)))
        return OverlapMatrix(n=n, entries=rows, domain=domain)
