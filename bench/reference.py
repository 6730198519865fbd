"""Independent reference values for the stated design problem.

Nothing here calls superosc.  Inputs stay exact (Fractions) until they are
materialized at the reference precision, so the references belong to the
problem as the user stated it, not to a double-rounded neighbour of it.

The constrained yield maximization is solved as the eigenproblem of the
overlap matrix compressed onto V = null(C) + span(x_p), where C evaluates the
cosine basis at the constraint points and x_p is the minimum-norm
interpolant: the stationary yields of x^T D x / x^T x on {C x = mu} are the
eigenvalues of V^T D V (Golub 1973; Gander, Golub & von Matt 1989).
"""

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

# Digits carried beyond the context precision of the solve being checked.
EXTRA_DIGITS = 40


@dataclass(frozen=True)
class Reference:
    digits: int          # context digits of the solve being checked
    band_limit: int
    eigenvalues: tuple   # the N + 2 - M stationary yields, ascending
    fk_yield: object     # yield of the minimum-norm interpolant
    fk_energy: object    # its squared coefficient norm
    slepian_top: object  # largest eigenvalue of the overlap matrix
    points: tuple        # exact constraint points (Fractions)
    values: tuple        # targets, +-1 alternating
    forced_crossings: int

    @property
    def count(self):
        return len(self.eigenvalues)

    @property
    def top(self):
        return self.eigenvalues[-1]


def constraint_points(intervals, m):
    """Alternating constraints on the rightmost interval (its t >= 0 part)."""
    lo, hi = intervals[-1]
    lo = max(lo, Fraction(0))
    points = tuple(lo + (hi - lo) * j / m for j in range(m))
    values = tuple((-1) ** j for j in range(m))
    return points, values


def forced_crossings(intervals, points, values):
    """Sign changes the constraints force on an even signal inside the domain.

    Mirrored points carry the same targets (f is even); within each interval
    consecutive targets of opposite sign enclose an odd number of roots.
    """
    mirrored = dict(zip(points, values))
    mirrored.update({-t: v for t, v in zip(points, values)})
    total = 0
    for lo, hi in intervals:
        seq = [v for t, v in sorted(mirrored.items()) if lo <= t <= hi]
        total += sum(1 for a, b in zip(seq, seq[1:]) if a != b)
    return total


def real(q):
    """A Fraction at the current working precision."""
    return mpf(q.numerator) / q.denominator


def _scale(k):
    return 1 / mp.sqrt(2 * mp.pi) if k == 0 else 1 / mp.sqrt(mp.pi)


def overlap(intervals, n):
    """Gram matrix of the orthonormal cosine basis over the domain.

    Product-to-sum form: cos(jt)cos(kt) = (cos((j-k)t) + cos((j+k)t)) / 2.
    """
    ivals = [(real(lo), real(hi)) for lo, hi in intervals]

    def cos_integral(p):
        if p == 0:
            return mp.fsum(hi - lo for lo, hi in ivals)
        return mp.fsum(mp.sin(p * hi) - mp.sin(p * lo) for lo, hi in ivals) / p

    ints = [cos_integral(p) for p in range(2 * n + 1)]
    d = mp.zeros(n + 1, n + 1)
    for j in range(n + 1):
        for k in range(n + 1):
            d[j, k] = _scale(j) * _scale(k) * (ints[abs(j - k)] + ints[j + k]) / 2
    return d


def solve(n, m, intervals, digits):
    """Reference spectrum data for band limit n, m constraints, exact domain."""
    intervals = tuple((Fraction(lo), Fraction(hi)) for lo, hi in intervals)
    points, values = constraint_points(intervals, m)
    with mp.workdps(digits + EXTRA_DIGITS):
        d = overlap(intervals, n)
        ct = mp.zeros(n + 1, m)  # C transposed
        for i, t in enumerate(points):
            t = real(t)
            for k in range(n + 1):
                ct[k, i] = _scale(k) * mp.cos(k * t)
        q, r = mp.qr(ct)
        # C = R1^T Q1^T, so x_p = Q1 y with R1^T y = mu.
        r1t = r[0:m, 0:m].T
        y = mp.lu_solve(r1t, mp.matrix([mpf(v) for v in values]))
        x_p = q[:, 0:m] * y
        fk_energy = (x_p.T * x_p)[0]
        basis = mp.zeros(n + 1, n + 2 - m)
        for k in range(n + 1):
            basis[k, 0] = x_p[k] / mp.sqrt(fk_energy)
            for j in range(m, n + 1):
                basis[k, j - m + 1] = q[k, j]
        eig = mp.eigsy(basis.T * d * basis, eigvals_only=True)
        slepian = mp.eigsy(d, eigvals_only=True)
        return Reference(
            digits=digits,
            band_limit=n,
            eigenvalues=tuple(sorted(eig)),
            fk_yield=(x_p.T * d * x_p)[0] / fk_energy,
            fk_energy=fk_energy,
            slepian_top=max(slepian),
            points=points,
            values=values,
            forced_crossings=forced_crossings(intervals, points, values),
        )


def evaluate(coeffs, t, dps):
    """Cosine series value by direct summation at dps digits."""
    with mp.workdps(dps):
        t = real(t) if isinstance(t, Fraction) else mpf(t)
        return mp.fsum(mpf(c) * _scale(k) * mp.cos(k * t) for k, c in enumerate(coeffs))
