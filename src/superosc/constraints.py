"""Interpolation constraints and the constraint-adapted orthonormal frame.

Constraints pin the signal to prescribed values at given points.  The
standard construction for forcing fast oscillation places M equally spaced
points on a subinterval with alternating +-1 targets.  The frame machinery
rotates coefficient space so the last M coordinates are fixed by the
constraints and the remaining N+1-M are free: an orthonormal basis of the
constraint row space is completed by a seeded-random orthonormal
complement.
"""

import random
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


def _orthonormalize(vectors, against=(), r_out=None, drop_below=None):
    """Two-pass modified Gram-Schmidt of column vectors.

    Orthogonalizes each vector against `against` and the previously accepted
    ones.  With drop_below set, a vector whose remaining norm falls under
    drop_below * original-norm is dropped (its index is reported); otherwise
    a tiny remainder raises.  Returns (basis, dropped_indices).
    """
    basis = []
    dropped = []
    for j, v in enumerate(vectors):
        w = v.copy()
        orig = mp.sqrt((v.T * v)[0])
        for _ in range(2):
            for u in against:
                w = w - u * (u.T * w)[0]
            for i, u in enumerate(basis):
                c = (u.T * w)[0]
                if r_out is not None:
                    r_out[i, j] += c
                w = w - u * c
        nrm = mp.sqrt((w.T * w)[0])
        if drop_below is not None and nrm <= drop_below * orig:
            dropped.append(j)
            continue
        if r_out is not None:
            r_out[len(basis), j] = nrm
        basis.append(w / nrm)
    return basis, dropped


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
    with ctx.workprec():
        rows = [cm.row(j) for j in range(cm.m)]
        basis, dropped = _orthonormalize(rows, drop_below=tol)
        if not dropped:
            return cm, tuple(mpf(v) for v in values)
        kept = [j for j in range(cm.m) if j not in dropped]
        kept_entries = mp.zeros(len(kept), cm.n + 1)
        for i, j in enumerate(kept):
            for k in range(cm.n + 1):
                kept_entries[i, k] = cm.entries[j, k]
        kept_cm = ConstraintMatrix(
            n=cm.n, entries=kept_entries, points=tuple(cm.points[j] for j in kept)
        )
        kept_values = tuple(mpf(values[j]) for j in kept)
        basis, mu_tilde = _constraint_basis_and_mu_tilde(kept_cm, kept_values, tol)
        particular = sum((u * c for u, c in zip(basis, mu_tilde)), mp.zeros(cm.n + 1, 1))
        for j in dropped:
            predicted = (cm.row(j).T * particular)[0]
            if abs(predicted - mpf(values[j])) >= tol:
                raise InfeasibleConstraints(
                    "constraint %d is dependent but contradicts the others "
                    "(residual %s)" % (j, mp.nstr(abs(predicted - mpf(values[j])), 5))
                )
        return kept_cm, kept_values


def _constraint_basis_and_mu_tilde(cm: ConstraintMatrix, values, rank_tol):
    """Orthonormal basis of the constraint row space plus fixed coordinates.

    The triangular factor of the Gram-Schmidt pass expresses the rows in
    the orthonormal basis, so the fixed coordinates solve a triangular
    system instead of a squared-up Gram system.
    """
    rows = [cm.row(j) for j in range(cm.m)]
    r = mp.zeros(cm.m, cm.m)
    basis, dropped = _orthonormalize(rows, r_out=r, drop_below=rank_tol)
    if dropped:
        raise RankDeficientConstraints(
            "constraint rows %s are linearly dependent; run reduce_rank first"
            % (dropped,)
        )
    # rows stack to R^T * basis^T, so C A = mu becomes R^T mu_tilde = mu.
    mu_tilde = mp.zeros(cm.m, 1)
    for j in range(cm.m):
        acc = mpf(values[j])
        for i in range(j):
            acc -= r[i, j] * mu_tilde[i]
        mu_tilde[j] = acc / r[j, j]
    return basis, mu_tilde


@dataclass(frozen=True)
class RotatedFrame:
    """Orthogonal rotation splitting coefficients into free and fixed parts.

    The rows of `rotation` are the new basis: the first free_dim rows span
    the unconstrained directions (seeded-random completion), the last M rows
    span the constraint row space.  A coefficient vector A maps to
    B = rotation*A whose trailing M entries must equal mu_tilde.
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
        """Coefficient vector from free coordinates plus the fixed block."""
        full = mp.zeros(self.rotation.rows, 1)
        for i in range(self.free_dim):
            full[i] = free_part[i]
        for i in range(self.m):
            full[self.free_dim + i] = self.mu_tilde[i]
        return self.rotation.T * full

    def particular_solution(self):
        """Minimum-norm coefficient vector satisfying all constraints."""
        return self.assemble(mp.zeros(self.free_dim, 1) if self.free_dim else ())


def orthonormal_frame(
    cm: ConstraintMatrix, values, completion_seed: int = 0, ctx: Context = FAST
) -> RotatedFrame:
    """Build the constraint-adapted orthonormal frame.

    The free-space completion is drawn from a seeded RNG and orthonormalized
    against the constraint space; the seed is recorded so runs reproduce
    exactly.  Physics downstream must not depend on the completion, which
    the test suite checks by comparing seeds.
    """
    if cm.m > cm.n + 1:
        raise ValueError("no solution for M>N+1")
    with ctx.workprec():
        basis, mu_tilde = _constraint_basis_and_mu_tilde(cm, values, ctx.rank_tolerance)
        free_dim = cm.n + 1 - cm.m
        rng = random.Random(completion_seed)
        free = []
        while len(free) < free_dim:
            candidate = mp.matrix([mpf(rng.uniform(-1, 1)) for _ in range(cm.n + 1)])
            extra, dropped = _orthonormalize([candidate], against=basis + free,
                                             drop_below=mpf("0.01"))
            if not dropped:
                free.extend(extra)
        rotation = mp.zeros(cm.n + 1, cm.n + 1)
        for i, u in enumerate(free + basis):
            for k in range(cm.n + 1):
                rotation[i, k] = u[k]
        return RotatedFrame(
            rotation=rotation,
            free_dim=free_dim,
            mu_tilde=mu_tilde,
            completion_seed=completion_seed,
            points=tuple(cm.points),
            values=tuple(mpf(v) for v in values),
        )

