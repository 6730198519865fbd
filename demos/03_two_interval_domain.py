#!/usr/bin/env python3
"""Superoscillations concentrated on a two-interval domain.

Nothing in the machinery is specific to a single interval: the overlap
matrix integrates the basis products over any union of disjoint
subintervals.  Here the domain is (-1,-0.5) u (0.5,1) and the constraints
force alternating values on (0.5, 1); evenness mirrors them into the left
half automatically.
"""

from mpmath import mp

import superosc as so

ctx = so.Context(100)
domain = so.symmetrize_domain("0.5", 1)

result = so.design_spectrum(band_limit=10, m=6, domain=domain, ctx=ctx)

values = result.spectrum.eigenvalues
print("domain            :", [(mp.nstr(lo, 4), mp.nstr(hi, 4))
                              for lo, hi in domain.intervals])
print("eigenvalues       :", [mp.nstr(v, 6) for v in values])
print("optimal yield     :", mp.nstr(values[-1], 8))
print("smallest yield    :", mp.nstr(values[0], 8))
print("ratio             :", mp.nstr(values[-1] / values[0], 4))

top = result.spectrum.signals[-1]
bottom = result.spectrum.signals[0]
print("\ncrossings inside the domain: top mode %d, bottom mode %d"
      % (so.zero_crossings(top, domain, 20001),
         so.zero_crossings(bottom, domain, 20001)))

# The bottom mode buys its extra oscillations with signal magnitude: its
# coefficients are ~1e13 while its values on (0.5, 1) stay order one.
print("\nbottom-mode coefficient magnitude:",
      mp.nstr(max(abs(c) for c in bottom.coeffs), 4))
print("bottom-mode values at the constraint points:")
for t, v in zip(result.constraints.points, result.constraints.values):
    print("  f(%s) = %s  (target %+d)"
          % (mp.nstr(t, 5), mp.nstr(so.evaluate(bottom, t, ctx), 8), int(v)))
