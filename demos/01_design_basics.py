#!/usr/bin/env python3
"""Design a superoscillating signal and look at what you get.

A band-limited signal with 11 cosine coefficients (band limit N=10) is
forced to hit alternating values +-1 at five equally spaced points in
[0, 1).  That makes it oscillate at angular frequency pi*5/1 ~ 15.7 inside
(-1, 1) even though its fastest Fourier component is cos(10 t).  Among all
signals satisfying the constraints we pick the one with the largest yield:
the fraction of one period's energy that falls inside (-1, 1).
"""

from mpmath import mp

import superosc as so

ctx = so.Context(30)
domain = so.symmetrize_domain(0, 1)

result = so.design_spectrum(band_limit=10, m=5, domain=domain, ctx=ctx)

lam = result.optimal_yield
signal = result.optimal_signal

print("constraint points :", [mp.nstr(t, 5) for t in result.constraints.points])
print("constraint values :", [int(v) for v in result.constraints.values])
print("optimal yield     :", mp.nstr(lam, 10))
print("energy per period :", mp.nstr(so.energy_per_period(signal, ctx), 8))

# The constraints hold exactly and the yield matches the eigenvalue.
for t, v in zip(result.constraints.points, result.constraints.values):
    assert abs(so.evaluate(signal, t, ctx) - v) < 1e-12

report = so.yield_of(signal, domain, result.delta, ctx)
print("yield, quadrature :", mp.nstr(report.quadrature, 10))

# Near the constraint points the signal swings between -1 and 1, then grows
# by an order of magnitude toward the domain edge and beyond: even this
# optimal design keeps only ~7.4% of its energy inside (-1, 1).  Tighter
# superoscillation (more constraints, smaller interval) drives the yield
# down exponentially; see the other demos.
print("\n   t      f(t)")
for t, value in so.sample(signal, 0, mp.pi, 12, ctx):
    bar = "#" * min(60, int(abs(value) / 50))
    print("%6.3f  %12.3f %s" % (float(t), float(value), bar))

print("\npeak magnitude inside (-1,1):",
      mp.nstr(max(abs(v) for _, v in so.sample(signal, -1, 1, 2001, ctx)), 5))
print("peak magnitude over a period:",
      mp.nstr(max(abs(v) for _, v in so.sample(signal, -mp.pi, mp.pi, 2001, ctx)), 5))
