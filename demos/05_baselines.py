#!/usr/bin/env python3
"""Two baselines bracket the yield-optimal design.

Minimum-energy interpolation zeroes every free coordinate: it satisfies the
same constraints with the least total energy, but concentrates nothing, so
its yield is below the optimum.  At the other end, the unconstrained
energy-concentration modes (eigenvectors of the overlap matrix) show the
best possible yield any signal could have: the constrained optimum can
approach but never beat their top eigenvalue.  With a single constraint at
the origin the two problems coincide exactly.
"""

from mpmath import mp

import superosc as so

ctx = so.Context(30)
domain = so.symmetrize_domain(0, 1)

result = so.design_spectrum(band_limit=10, m=5, domain=domain, ctx=ctx)
fk = so.fk_min_energy_signal(result.frame, ctx)

fk_yield = so.yield_of(fk, domain, result.delta, ctx).algebraic
print("minimum-energy interpolant:")
print("  energy :", mp.nstr(so.energy_per_period(fk, ctx), 8))
print("  yield  :", mp.nstr(fk_yield, 8))
print("yield-optimal interpolant:")
print("  energy :", mp.nstr(so.energy_per_period(result.optimal_signal, ctx), 8))
print("  yield  :", mp.nstr(result.optimal_yield, 8))

modes = so.slepian_modes(result.delta, ctx)
print("\nunconstrained concentration eigenvalues (top 5 of %d):" % len(modes))
for lam, _ in modes[:5]:
    print("  ", mp.nstr(lam, 10))
print("constrained optimum", mp.nstr(result.optimal_yield, 6),
      "<= top mode", mp.nstr(modes[0][0], 6))

# One constraint at the origin only normalizes the signal, so the optimal
# yield equals the top concentration eigenvalue.
single = so.design_spectrum(10, 1, domain, ctx)
gap = abs(single.optimal_yield - modes[0][0]) / modes[0][0]
print("\nM=1 optimum vs top concentration mode: relative gap", mp.nstr(gap, 3))
