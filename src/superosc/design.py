"""End-to-end design pipeline: domain + alternating constraints -> spectrum.

Ties the pieces together for the common workflow: pick the constraint
interval from the domain, build the alternating constraint set, the overlap
matrix, the rotated frame, and solve for the full generalized spectrum.
"""

from dataclasses import dataclass

from mpmath import mpf

from .constraints import alternating_constraints, constraint_matrix, orthonormal_frame
from .context import FAST, Context
from .domains import Domain, overlap_matrix
from .solver import jacobi_spectrum, secular_spectrum

METHODS = ("secular", "jacobi")


def constraint_interval(domain: Domain):
    """Interval that receives the alternating constraint points.

    Constraints go on the rightmost interval of the domain; evenness of the
    cosine basis makes mirrored points redundant.  When that interval
    straddles the origin (a symmetric single interval), only its
    non-negative half is constrained, which by evenness still pins the full
    oscillation pattern.
    """
    lo, hi = domain.intervals[-1]
    if lo < 0 < hi:
        lo = mpf(0)
    return lo, hi


@dataclass(frozen=True)
class DesignResult:
    """Everything one solve produces, kept together for reporting."""

    domain: Domain
    delta: object         # OverlapMatrix
    constraints: object   # ConstraintSet
    frame: object         # RotatedFrame
    spectrum: object      # GeneralizedSpectrum

    @property
    def optimal_yield(self):
        return self.spectrum.eigenvalues[-1]

    @property
    def optimal_signal(self):
        return self.spectrum.signals[-1]


def design_spectrum(band_limit: int, m: int, domain: Domain, ctx: Context = FAST,
                    seed: int = 0, method: str = "secular") -> DesignResult:
    """Solve the constrained yield maximization for one configuration.

    seed is accepted and nothing reads it: the constraints fix every number.
    """
    if method not in METHODS:
        raise ValueError("method must be one of %s" % (METHODS,))
    lo, hi = constraint_interval(domain)
    with ctx.workprec():  # the points at the context's precision, not the ambient one
        cs = alternating_constraints(lo, hi, m)
    cm = constraint_matrix(cs, band_limit, ctx)
    frame = orthonormal_frame(cm, cs.values, ctx)
    delta = overlap_matrix(domain, band_limit, ctx)
    solve = secular_spectrum if method == "secular" else jacobi_spectrum
    spectrum = solve(delta, frame, ctx)
    return DesignResult(
        domain=domain,
        delta=delta,
        constraints=cs,
        frame=frame,
        spectrum=spectrum,
    )
