"""Working-precision contexts.

All numerical routines in this package run under an explicit precision
context rather than whatever the global mpmath state happens to be.  A
context fixes the number of significant decimal digits for one solve; every
scalar and matrix inside that solve shares it.  Internally each operation
carries a fixed number of guard digits on top of the context precision so
that results are trustworthy to the full context precision.
"""

from dataclasses import dataclass

from mpmath import mp, mpf, mpmathify
from mpmath.libmp import dps_to_prec

# Guard digits added on top of the user-visible precision for internal work.
GUARD_DIGITS = 15

# Default number of significant digits of the two standard modes.
FAST_DIGITS = 15
HIGH_PRECISION_DIGITS = 100


@dataclass(frozen=True)
class Context:
    """Fixed-precision computation context.

    digits: significant decimal digits carried by results.  15 is "fast"
    mode, 100+ is high-precision mode for spectra that reach far below
    double-precision resolution.
    """

    digits: int = FAST_DIGITS

    def __post_init__(self):
        if self.digits < 15:
            raise ValueError("context needs at least 15 significant digits")

    # -- precision plumbing -------------------------------------------------

    @property
    def work_dps(self):
        return self.digits + GUARD_DIGITS

    def workprec(self):
        """Context manager entering the internal working precision."""
        return mp.workdps(self.work_dps)

    def real(self, x):
        """Convert x (int, float, str, mpf) to an mpf at working precision.

        Strings are the preferred way to pass non-representable decimals:
        ``ctx.real("0.1")`` is exact to the working precision whereas
        ``ctx.real(0.1)`` inherits the double-precision rounding of the
        float literal.
        """
        with self.workprec():
            return mpmathify(x) * mpf(1)

    # -- derived tolerances -------------------------------------------------

    @property
    def eps(self):
        """One unit in the last user-visible decimal place."""
        return mpf(10) ** (-self.digits)

    @property
    def rank_tolerance(self):
        """Pivot threshold below which constraint rows count as dependent.

        10^-(digits-5): 1e-10 in fast mode, scaling down with precision.
        Alternating-point constraint matrices at the sizes handled here are
        well conditioned, so this only fires on genuine duplication.
        """
        return mpf(10) ** (-(self.digits - 5))

    @property
    def bracket_rtol(self):
        """Relative gap below which the solver calls two quantities equal.

        Two eigenvalues closer than this (relative) are degenerate, and a
        unit bordered eigenvector whose last component is below it is
        decoupled from the constraints (deflated).  Leaves 10 guard digits
        of the internal working precision.
        """
        return mpf(10) ** (-(self.work_dps - 10))

    @property
    def trust_floor(self):
        """Magnitude below which eigenvalues are flagged as untrustworthy."""
        return mpf(10) ** (6 - self.digits)

    # -- serialization ------------------------------------------------------

    @property
    def decimal_digits(self):
        """Decimal digits needed to round-trip a working-precision mpf."""
        return int(dps_to_prec(self.work_dps) * 0.30103) + 3

    def to_decimal(self, x):
        """Serialize an mpf as a decimal string that parses back exactly.

        Scientific notation throughout: tiny eigenvalues would otherwise
        render as hundred-zero fixed-point strings.
        """
        with mp.workdps(self.decimal_digits + 5):
            return mp.nstr(mpf(x), self.decimal_digits, strip_zeros=True,
                           min_fixed=1, max_fixed=1)

    def from_decimal(self, s):
        """Parse a decimal string produced by to_decimal."""
        with self.workprec():
            return mpf(s)


FAST = Context(FAST_DIGITS)
HIGH = Context(HIGH_PRECISION_DIGITS)
