#!/usr/bin/env python3
"""How fast do yields die as the superoscillation interval shrinks?

Sweeping the interval radius a over powers of two and fitting log(lambda_i)
against log(a) reveals clean power laws: the i-th eigenvalue scales like
a^(4(N-i)+5).  At a=1/64 the smallest eigenvalue sits near 1e-98, which is
why the sweep refuses to run below a=0.1 without a high-precision context.
"""

from mpmath import mp, mpf

import superosc as so

ctx = so.Context(100)
n, m = 10, 5
radii = [mpf(1) / 64, mpf(1) / 32, mpf(1) / 16, mpf(1) / 8, mpf(1) / 4]

table = so.scaling_sweep(n, m, radii, ctx)

print("eigenvalues lambda_i(a), one column per radius:")
header = "  i  " + "".join("     a=1/%-6d" % round(1 / float(a)) for a in radii)
print(header)
for i in range(1, n + 2 - m + 1):
    row = [r for r in table.rows if r.index == i]
    cells = "".join("  %-12s" % mp.nstr(r.eigenvalue, 3) for r in row)
    print("  %d  %s" % (i, cells))

print("\nfitted log-log slopes vs the 4(N-i)+5 power law:")
for i in sorted(table.slopes):
    expected = 4 * (n - i) + 5
    slope = table.slopes[i]
    print("  i=%d  slope %8s   expected %2d   deviation %5.2f%%"
          % (i, mp.nstr(slope, 5), expected,
             100 * abs(float(slope) / expected - 1)))

print("\nnormalized values lambda_i / a^(4(N-i)+5) stay order-constant:")
for i in (1, 4, 7):
    row = [mp.nstr(r.normalized, 3) for r in table.rows if r.index == i]
    print("  i=%d: %s" % (i, row))
