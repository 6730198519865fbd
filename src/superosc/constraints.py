"""Interpolation constraints and the constraint-adapted orthonormal frame.

Constraints pin the signal to prescribed values at given points.  The
standard construction for forcing fast oscillation places M equally spaced
points on a subinterval with alternating +-1 targets.  The frame rotates
coefficient space so the last M coordinates are fixed by the constraints
and the remaining N+1-M are free (the null-space method): one Householder
QR of the transposed constraint matrix, on Python ints, gives orthonormal
bases of the constraint row space and of its null space.
"""

from dataclasses import dataclass
from operator import mul

from mpmath import mp, mpf

from .context import FAST, Context
from .errors import InfeasibleConstraints, RankDeficientConstraints
from .signals import cosine_basis
from .symmetric import fixed, fixed_rows, householder, reflect


@dataclass(frozen=True)
class ConstraintSet:
    """Interpolation points t_j with target values mu_j."""

    points: tuple
    values: tuple

    def __post_init__(self):
        if len(self.points) != len(self.values):
            raise ValueError("points and values must have equal length")
        if not self.points:
            raise ValueError("need at least one constraint")
        object.__setattr__(self, "points", tuple(mpf(t) for t in self.points))
        object.__setattr__(self, "values", tuple(mpf(v) for v in self.values))
        if len(set(self.points)) != len(self.points):
            raise ValueError("constraint points must be pairwise distinct")


def alternating_constraints(interval_lo, interval_hi, m: int) -> ConstraintSet:
    """M equally spaced points on [lo, hi) with alternating +-1 targets.

    t_j = lo + (hi-lo)*j/m and mu_j = (-1)^j for j = 0..m-1, which forces
    the signal to oscillate across the interval at angular frequency
    pi*m/(hi-lo).
    """
    if m < 1:
        raise ValueError("need at least one constraint point")
    lo, hi = mpf(interval_lo), mpf(interval_hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    points = tuple(lo + (hi - lo) * j / m for j in range(m))
    values = tuple(mpf((-1) ** j) for j in range(m))
    return ConstraintSet(points=points, values=values)


@dataclass(frozen=True)
class ConstraintMatrix:
    """M row tuples of N+1 mpf: row j dotted with coefficients gives f(t_j)."""

    n: int
    entries: tuple
    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(map(tuple, self.entries)))

    @property
    def m(self):
        return len(self.points)


def constraint_matrix(cs: ConstraintSet, n: int, ctx: Context = FAST) -> ConstraintMatrix:
    """Evaluate the cosine basis at the constraint points."""
    if n < 1:
        raise ValueError("band limit must be >= 1")
    with ctx.workprec():
        frac = mp.prec + 64
        entries = tuple(tuple(mpf((b, -frac)) for b in cosine_basis(n, ctx.real(t)))
                        for t in cs.points)
        return ConstraintMatrix(n=n, entries=entries, points=cs.points)


def _check_targets(cm: ConstraintMatrix, values):
    if len(values) != cm.m:
        raise ValueError("%d target values for %d constraint rows" % (len(values), cm.m))


def _factor(cm: ConstraintMatrix, values, tol, drop):
    """Householder QR C^T = Q R on ints, C in units 2^-F s as in
    symmetric.eigensystem (F = 2p + 64, s = sum |c_jk| up to a power of 2).

    Row j is dependent once the earlier rows' reflectors leave it a tail of
    norm |r_jj| <= tol ||row j||: with drop it gets no reflector, else the
    dependent rows raise RankDeficientConstraints.  R's diagonal is made
    positive.  Returns Q's columns (none with drop), null space first, as
    rotation rows of mpf, mu~ solving R^T mu~ = mu over the kept rows, and
    (j, |c_j p - mu_j|) for each dropped row, p = Q (mu~, 0) the kept rows'
    minimum-norm interpolant.
    """
    frac, size = 2 * mp.prec + 64, cm.n + 1
    a, top = fixed_rows(cm.entries, frac)
    (mu,), mtop = fixed_rows([values], frac)
    cut, norms = fixed(tol, frac), [sum(map(mul, x, x)) for x in a]
    kept, dependent, reflectors = [], [], []
    for j, x in enumerate(a):  # x: row j reflected by every reflector so far
        k, tail = len(kept), x[len(kept):]
        if sum(map(mul, tail, tail)) << 2 * frac <= cut * cut * norms[j]:
            dependent.append(j)
            if drop or not any(tail):
                continue
        v, rjj = householder(tail, 0, frac)
        for y in a:
            reflect(y, v, k, frac)
        x[k:] = [rjj] + [0] * (size - k - 1)
        reflectors.append(v)
        kept.append(j)
    if dependent and not drop:
        raise RankDeficientConstraints(
            "constraint rows %s are linearly dependent at relative tolerance %s; "
            "raise the precision to separate nearly dependent rows, or drop "
            "truly redundant ones with reduce_rank" % (dependent, mp.nstr(tol, 3)))
    signs = [1 if a[j][i] > 0 else -1 for i, j in enumerate(kept)] + [1] * (size - len(kept))
    r = [[sign * xi for sign, xi in zip(signs, x)] for x in a]
    mt = []  # mu~ in units 2^(mtop - top - F), R in units 2^(top - F)
    for i, j in enumerate(kept):
        mt.append(((mu[j] << frac) - sum(map(mul, r[j][:i], mt))) // r[j][i])
    q = [] if drop else [[sign << frac if i == c else 0 for i in range(size)]
                         for c, sign in enumerate(signs)]
    for k in range(len(kept) - 1, -1, -1):
        for z in q:
            reflect(z, reflectors[k], k, frac)
    return ([[mpf((z, -frac)) for z in col] for col in q[len(kept):] + q[:len(kept)]],
            [mpf((m, mtop - top - frac)) for m in mt],
            [(j, mpf((abs(sum(map(mul, r[j], mt)) - (mu[j] << frac)), mtop - 2 * frac)))
             for j in dependent])


def reduce_rank(cm: ConstraintMatrix, values, tol, ctx: Context = FAST):
    """Drop dependent constraint rows, verifying each dropped one is implied.

    Runs _factor's rank-revealing QR over the rows in order, keeping the
    first maximal independent subset.  Every eliminated row must be
    satisfied automatically by the kept ones: its predicted value under the
    minimum-norm interpolant of the kept rows has to match within tol,
    otherwise the system is contradictory.
    """
    tol = mpf(tol)
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    _check_targets(cm, values)
    with ctx.workprec():
        dropped = dict(_factor(cm, values, tol, drop=True)[2])
        for j, residual in dropped.items():
            if residual >= tol:
                raise InfeasibleConstraints(
                    "constraint %d is dependent but contradicts the others "
                    "(residual %s)" % (j, mp.nstr(residual, 5))
                )
        if not dropped:
            return cm, tuple(mpf(v) for v in values)
        kept = [j for j in range(cm.m) if j not in dropped]
        kept_cm = ConstraintMatrix(n=cm.n, entries=tuple(cm.entries[j] for j in kept),
                                   points=tuple(cm.points[j] for j in kept))
        return kept_cm, tuple(mpf(values[j]) for j in kept)


@dataclass(frozen=True)
class RotatedFrame:
    """Orthogonal rotation splitting coefficients into free and fixed parts.

    The rows of `rotation`, row tuples of mpf, are the new basis: the first
    free_dim rows span the unconstrained directions (the null space of the
    constraint matrix), the last M rows the constraint row space.  A
    coefficient vector A maps to B = rotation*A whose trailing M entries
    must equal mu_tilde.  Both are tuples, so int_rows never goes stale.
    assemble and the solver's K = W Delta W^T are integer dot products over
    int_rows.
    """

    rotation: tuple
    free_dim: int
    mu_tilde: tuple

    def __post_init__(self):
        object.__setattr__(self, "rotation", tuple(map(tuple, self.rotation)))
        object.__setattr__(self, "mu_tilde", tuple(self.mu_tilde))
        object.__setattr__(self, "_int_rows", {})

    def int_rows(self):
        """(rows, F): the rotation's rows as ints in units 2^-F, converted once
        per precision.  F = p + 64 at the current precision p: one product of
        p-bit entries needs no more, unlike the iterated QR and eigensolves."""
        frac = mp.prec + 64
        if frac not in self._int_rows:
            self._int_rows[frac] = [[fixed(x, frac) for x in row] for row in self.rotation]
        return self._int_rows[frac], frac

    @property
    def n(self):
        return len(self.rotation) - 1

    def assemble(self, free_part):
        """Coefficient tuple from free coordinates plus the fixed block, each
        coefficient an integer dot product rounded once."""
        rows, frac = self.int_rows()
        (b,), top = fixed_rows([[*free_part, *self.mu_tilde]], frac)
        return tuple(mpf((sum(map(mul, b, col)), top - 2 * frac)) for col in zip(*rows))

    def particular_solution(self):
        """Minimum-norm coefficient vector satisfying all constraints."""
        return self.assemble([0] * self.free_dim)


def orthonormal_frame(cm: ConstraintMatrix, values, ctx: Context = FAST) -> RotatedFrame:
    """Build the constraint-adapted orthonormal frame from one QR of C^T.

    The rotation's rows are the null-space columns of _factor's Q followed
    by the row-space ones.
    """
    if cm.m > cm.n + 1:
        raise ValueError("no solution for M>N+1")
    _check_targets(cm, values)
    with ctx.workprec():
        rotation, mu_tilde, _ = _factor(cm, values, ctx.rank_tolerance, drop=False)
        return RotatedFrame(rotation=rotation, free_dim=cm.n + 1 - cm.m, mu_tilde=mu_tilde)
