"""Interpolation constraints and the constraint-adapted orthonormal frame.

Constraints pin the signal to prescribed values at given points.  The
standard construction for forcing fast oscillation places M equally spaced
points on a subinterval with alternating +-1 targets.  The frame machinery
rotates coefficient space so the last M coordinates are fixed by the
constraints and the remaining N+1-M are free: one full Householder QR of
the transposed constraint matrix gives orthonormal bases of the constraint
row space and of its null space (the null-space method).
"""

from dataclasses import dataclass

from mpmath import mp, mpf

from .context import FAST, Context
from .errors import InfeasibleConstraints, RankDeficientConstraints
from .signals import cosine_basis


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

    @property
    def m(self):
        return len(self.points)


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
    """M x (N+1) matrix whose row j dotted with coefficients gives f(t_j)."""

    n: int
    entries: object  # mp.matrix
    points: tuple

    @property
    def m(self):
        return len(self.points)

    def row(self, j):
        return self.entries[j, :].T


def constraint_matrix(cs: ConstraintSet, n: int, ctx: Context = FAST) -> ConstraintMatrix:
    """Evaluate the cosine basis at the constraint points."""
    if n < 1:
        raise ValueError("band limit must be >= 1")
    with ctx.workprec():
        entries = mp.matrix([cosine_basis(n, ctx.real(t)) for t in cs.points])
        return ConstraintMatrix(n=n, entries=entries, points=cs.points)


def _check_targets(cm: ConstraintMatrix, values):
    if len(values) != cm.m:
        raise ValueError("%d target values for %d constraint rows" % (len(values), cm.m))


def _dependent_rows(rows, tol):
    """Indices of the rows within relative tol of the span of the kept rows before them."""
    basis, dropped = [], []
    for j, v in enumerate(rows):
        w = v
        for _ in range(2):
            for u in basis:
                w = w - u * (u.T * w)[0]
        nrm = mp.norm(w)
        if nrm <= tol * mp.norm(v):
            dropped.append(j)
        else:
            basis.append(w / nrm)
    return dropped


def _row_space_qr(cm: ConstraintMatrix, values, rank_tol):
    """Q of the full QR C^T = Q R with R's diagonal positive, and mu~.

    Q's leading M columns are the Gram-Schmidt basis of the rows in order
    and the rest span their null space.  C = R^T Q^T, so C A = mu fixes the
    row-space coordinates of A to the solution mu~ of R^T mu~ = mu.
    """
    q, r = mp.qr(cm.entries.T, mode="full")
    dependent = [j for j in range(cm.m) if abs(r[j, j]) <= rank_tol * mp.norm(cm.row(j))]
    if dependent:
        raise RankDeficientConstraints(
            "constraint rows %s are linearly dependent at relative tolerance %s; "
            "raise the precision to separate nearly dependent rows, or drop "
            "truly redundant ones with reduce_rank" % (dependent, mp.nstr(rank_tol, 3))
        )
    mu_tilde = mp.lu_solve(r[0:cm.m, 0:cm.m].T, mp.matrix(list(values)))
    for j in range(cm.m):
        if r[j, j] < 0:
            q[:, j], mu_tilde[j] = -q[:, j], -mu_tilde[j]
    return q, mu_tilde


def reduce_rank(cm: ConstraintMatrix, values, tol, ctx: Context = FAST):
    """Drop dependent constraint rows, verifying each dropped one is implied.

    Runs a rank-revealing orthogonalization over the rows in order, keeping
    the first maximal independent subset.  Every eliminated row must be
    satisfied automatically by the kept ones: its predicted value under the
    minimum-norm interpolant of the kept rows has to match within tol,
    otherwise the system is contradictory.
    """
    tol = mpf(tol)
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    _check_targets(cm, values)
    with ctx.workprec():
        dropped = _dependent_rows([cm.row(j) for j in range(cm.m)], tol)
        if not dropped:
            return cm, tuple(mpf(v) for v in values)
        kept = [j for j in range(cm.m) if j not in dropped]
        kept_cm = ConstraintMatrix(n=cm.n, entries=mp.matrix([list(cm.row(j)) for j in kept]),
                                   points=tuple(cm.points[j] for j in kept))
        kept_values = tuple(mpf(values[j]) for j in kept)
        q, mu_tilde = _row_space_qr(kept_cm, kept_values, tol)
        particular = q[:, 0:len(kept)] * mu_tilde
        for j in dropped:
            residual = abs((cm.row(j).T * particular)[0] - mpf(values[j]))
            if residual >= tol:
                raise InfeasibleConstraints(
                    "constraint %d is dependent but contradicts the others "
                    "(residual %s)" % (j, mp.nstr(residual, 5))
                )
        return kept_cm, kept_values


@dataclass(frozen=True)
class RotatedFrame:
    """Orthogonal rotation splitting coefficients into free and fixed parts.

    The rows of `rotation` are the new basis: the first free_dim rows span
    the unconstrained directions (the null space of the constraint matrix),
    the last M rows span the constraint row space.  A coefficient vector A
    maps to B = rotation*A whose trailing M entries must equal mu_tilde.
    completion_seed is only recorded: no entry depends on it.
    """

    rotation: object  # (N+1)x(N+1) mp.matrix
    free_dim: int
    mu_tilde: object  # M-vector, mp.matrix
    completion_seed: int
    points: tuple
    values: tuple

    @property
    def n(self):
        return self.rotation.rows - 1

    @property
    def m(self):
        return self.rotation.rows - self.free_dim

    def assemble(self, free_part):
        """Coefficient row vector from free coordinates plus the fixed block."""
        return mp.matrix([list(free_part) + list(self.mu_tilde)]) * self.rotation

    def particular_solution(self):
        """Minimum-norm coefficient vector satisfying all constraints."""
        return self.assemble([0] * self.free_dim)


def orthonormal_frame(
    cm: ConstraintMatrix, values, completion_seed: int = 0, ctx: Context = FAST
) -> RotatedFrame:
    """Build the constraint-adapted orthonormal frame from one QR of C^T.

    The rotation's rows are the null-space columns of Q followed by the
    row-space ones.  The frame is fully determined by the constraints;
    completion_seed is accepted and recorded but no number depends on it.
    """
    if cm.m > cm.n + 1:
        raise ValueError("no solution for M>N+1")
    _check_targets(cm, values)
    with ctx.workprec():
        q, mu_tilde = _row_space_qr(cm, values, ctx.rank_tolerance)
        order = list(range(cm.m, cm.n + 1)) + list(range(cm.m))
        return RotatedFrame(
            rotation=mp.matrix([list(q[:, i]) for i in order]),
            free_dim=cm.n + 1 - cm.m,
            mu_tilde=mu_tilde,
            completion_seed=completion_seed,
            points=tuple(cm.points),
            values=tuple(mpf(v) for v in values),
        )
