"""Yield-optimized superoscillating signal design.

Band-limited periodic signals can oscillate arbitrarily fast inside a
chosen domain; the price is paid in the fraction of signal energy that
lands there (the yield).  This package maximizes the yield under
alternating interpolation constraints by solving a generalized eigenvalue
problem: the full spectrum of stationary yields, the signals attaining
them, minimum-energy and unconstrained-concentration baselines, and the
sweep/analysis tooling around them.
"""

from .analysis import (
    SweepRow,
    SweepTable,
    YieldReport,
    monotonicity_table,
    scaling_sweep,
    yield_of,
    zero_crossings,
)
from .constraints import (
    ConstraintMatrix,
    ConstraintSet,
    RotatedFrame,
    alternating_constraints,
    constraint_matrix,
    orthonormal_frame,
    reduce_rank,
)
from .context import FAST, HIGH, Context
from .design import DesignResult, constraint_interval, design_spectrum
from .domains import (
    Domain,
    OverlapMatrix,
    overlap_matrix,
    parse_domain_spec,
    symmetrize_domain,
)
from .errors import (
    DomainError,
    InfeasibleConstraints,
    PrecisionWarning,
    RankDeficientConstraints,
    SolverFailure,
    SuperoscError,
)
from .signals import FourierCosineSignal, energy_per_period, evaluate, sample
from .solver import (
    BlockDecomposition,
    GeneralizedSpectrum,
    fk_min_energy_signal,
    jacobi_spectrum,
    rotate_and_partition,
    secular_spectrum,
    slepian_modes,
)

__version__ = "0.1.0"

__all__ = [
    "BlockDecomposition",
    "ConstraintMatrix",
    "ConstraintSet",
    "Context",
    "DesignResult",
    "Domain",
    "DomainError",
    "FAST",
    "FourierCosineSignal",
    "GeneralizedSpectrum",
    "HIGH",
    "InfeasibleConstraints",
    "OverlapMatrix",
    "PrecisionWarning",
    "RankDeficientConstraints",
    "RotatedFrame",
    "SolverFailure",
    "SuperoscError",
    "SweepRow",
    "SweepTable",
    "YieldReport",
    "alternating_constraints",
    "constraint_interval",
    "constraint_matrix",
    "design_spectrum",
    "energy_per_period",
    "evaluate",
    "fk_min_energy_signal",
    "jacobi_spectrum",
    "monotonicity_table",
    "orthonormal_frame",
    "overlap_matrix",
    "parse_domain_spec",
    "reduce_rank",
    "rotate_and_partition",
    "sample",
    "scaling_sweep",
    "secular_spectrum",
    "slepian_modes",
    "symmetrize_domain",
    "yield_of",
    "zero_crossings",
]
