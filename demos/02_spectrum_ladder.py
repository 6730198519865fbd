#!/usr/bin/env python3
"""The full spectrum: trading yield for extra oscillations.

The constrained yield maximization is a generalized eigenvalue problem
with N+2-M stationary values.  The largest is the optimal yield; walking
down the ladder, each signal oscillates more inside the domain while its
yield collapses by several orders of magnitude per step.  Eigenvalues at
the bottom sit near 1e-23, far below double precision, hence the
100-digit context.
"""

from mpmath import mp

import superosc as so

ctx = so.Context(100)
domain = so.symmetrize_domain(0, 1)

result = so.design_spectrum(band_limit=10, m=6, domain=domain, ctx=ctx)

print("index  eigenvalue (yield)     crossings in (-1,1)")
for i, (lam, sig) in enumerate(
        zip(result.spectrum.eigenvalues, result.spectrum.signals), start=1):
    crossings = so.zero_crossings(sig, domain, 20001)
    print("  %d    %-22s %d" % (i, mp.nstr(lam, 6), crossings))

print()
print("top mode: oscillations pinned by the 6 constraints only")
print("bottom mode: maximal oscillation count, yield ~ 1e-23")

# Every signal in the ladder still interpolates the same constraint data.
for sig in result.spectrum.signals:
    for t, v in zip(result.constraints.points, result.constraints.values):
        assert abs(so.evaluate(sig, t, ctx) - v) < mp.mpf("1e-80")
print("\nall", len(result.spectrum), "modes interpolate the constraints to 1e-80")
