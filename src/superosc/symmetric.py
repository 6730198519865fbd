"""Fixed point on Python ints: the exact mpf-to-int conversion and the
Householder reflectors the int kernels share, and the symmetric eigensolve
behind solver._eigensystem."""

import math
from operator import mul

from mpmath import mp, mpf

from .errors import SolverFailure


def fixed(x, shift):
    """int(x 2^shift), truncated toward zero as int() does, built exactly from
    x's mantissa and exponent: several times cheaper than int(mp.ldexp(...))."""
    sign, man, exp, bits = (x if isinstance(x, mpf) else mpf(x))._mpf_
    if bits < 0:  # mpmath's inf and nan: int() raises here too
        raise ValueError("cannot convert %s to fixed point" % x)
    exp += shift
    man = man << exp if exp >= 0 else man >> -exp
    return -man if sign else man


def fixed_rows(rows, frac):
    """(a, top): 2^top bounds the sum of all |x_ij| of rows of numbers, rounded
    up to a power of two, and a_ij = fixed(x_ij, frac - top)."""
    top = mp.frexp(mp.fsum((x for row in rows for x in row), absolute=True))[1]
    return [[fixed(x, frac - top) for x in row] for row in rows], top


def householder(x, pivot, frac):
    """(v, r): P = I - v v^T, |v| = sqrt 2 in units 2^-frac, maps the int
    vector x to r e_pivot, r = -sign(x_pivot) |x|; v comes from x shifted up
    to frac + 8 bits, so that a tiny x keeps its direction."""
    up = max(0, frac + 8 - max(map(abs, x)).bit_length())
    x = [xi << up for xi in x]
    s = math.isqrt(sum(map(mul, x, x))) * (-1 if x[pivot] > 0 else 1)
    h, x[pivot] = math.isqrt(s * s - x[pivot] * s), x[pivot] - s
    return [(xi << frac) // h for xi in x], s >> up


def reflect(x, v, i, frac):
    """x <- (I - v v^T) x on x[i:i + len(v)], v as householder's."""
    c = sum(map(mul, x[i:], v)) >> frac
    x[i:i + len(v)] = [xi - (c * vi >> frac) for xi, vi in zip(x[i:], v)]


def eigensystem(rows, max_iterations):
    """Ascending eigenvalues and unit eigenvectors (lists) of symmetric rows,
    or SolverFailure once one eigenvalue takes more than max_iterations QL steps.

    With p = mp.prec every entry is an integer multiple of u = 2^-F ||A||_1
    (the sum of all |a_ij|, rounded up to a power of two), F = 2p + 64, which
    leaves p + 64 guard bits below eps ||A||_1 for the small entries of a
    graded matrix; unit vectors carry F fraction bits.  A Householder
    tridiagonalization (Martin, Reinsch & Wilkinson, 1968) from the last row
    up, without Q, leaves z_last T's own.  e_m is negligible at
    max(2^-(p+8) (|d_m| + |d_m+1|), 2^(p+56) u), eight bits below eps ||A||_1:
    implicit QL (EISPACK imtql2) deflates there, each rotation's (f, g)
    shifted up to F + 8 bits before s and c are formed, and applies each
    rotation to the columns of Z, from Z = I, so that T = Z diag(d) Z^T.
    Each column of Z is then taken back through the reflectors: z = Q z.
    """
    size, prec = len(rows), mp.prec
    frac, floor, one = 2 * prec + 64, 1 << (prec + 56), 1 << (2 * prec + 64)
    a, top = fixed_rows(rows, frac)
    off, reflectors = [0] * size, []  # off[k] couples k and k + 1
    for i in range(size - 1, 0, -1):  # reflect a[i][:i] onto its last coordinate
        x = a[i][:i]
        if not any(x[:-1]):
            off[i - 1] = x[-1]
            continue
        v, off[i - 1] = householder(x, -1, frac)
        p = [sum(map(mul, row, v)) >> frac for row in a[:i]]
        half = sum(map(mul, p, v)) >> (frac + 1)
        q = [pj - (half * vj >> frac) for pj, vj in zip(p, v)]
        for j, (row, vj, qj) in enumerate(zip(a, v, q)):  # P A P = A - v q^T - q v^T
            row[:j + 1] = [ajk - ((vj * qk + qj * vk) >> frac)
                           for ajk, qk, vk in zip(row, q[:j + 1], v)]
            for k in range(j):  # mirror row j into column j: the next A v reads full rows
                a[k][j] = row[k]
        reflectors.append(v)
    values = [a[i][i] for i in range(size)]
    del a  # no longer needed: freeing it lowers the peak memory of the vectors

    def negligible(d, e, k):
        return abs(e[k]) <= max((abs(d[k]) + abs(d[k + 1])) >> (prec + 8), floor)

    z = [[one if j == k else 0 for j in range(size)] for k in range(size)]  # Z's columns
    for l in range(size):
        for its in range(max_iterations + 1):
            m = l
            while m < size - 1 and not negligible(values, off, m):
                m += 1
            if m == l:
                break
            if its == max_iterations:
                raise SolverFailure("implicit QL on the symmetric matrix of order %d did not "
                                    "converge" % size, diagnostics={"unconverged_index": l})
            # shift g: the eigenvalue of T[l:l+2, l:l+2] nearer values[l], minus values[m]
            el, dl = off[l], values[l + 1] - values[l]
            t = math.isqrt(dl * dl + 4 * el * el)
            g = values[m] - values[l] + 2 * el * el // (dl + t if dl >= 0 else dl - t)
            s, c, p = one, one, 0
            for i in range(m - 1, l - 1, -1):
                f, b = s * off[i] >> frac, c * off[i] >> frac
                up = max(0, frac + 8 - max(abs(f), abs(g)).bit_length())
                r = math.isqrt((f * f + g * g) << 2 * up)
                off[i + 1], c, s = (r >> up, (g << up + frac) // r, (f << up + frac) // r) \
                    if r else (0, one, 0)
                g = values[i + 1] - p
                r = ((values[i] - g) * s + 2 * c * b) >> frac
                p = s * r >> frac
                values[i + 1] = g + p
                g = (c * r >> frac) - b
                zi, zj = z[i], z[i + 1]  # rotate columns i and i + 1 of Z
                z[i] = [(c * x - s * y) >> frac for x, y in zip(zi, zj)]
                z[i + 1] = [(s * x + c * y) >> frac for x, y in zip(zi, zj)]
            values[l] -= p
            off[l], off[m] = g, 0
    for v in z:
        for u in reversed(reflectors):  # v <- Q v, the reflectors in reverse order
            reflect(v, u, 0, frac)
    pairs = sorted(zip(values, z), key=lambda pair: pair[0])
    return [mpf((y, top - frac)) for y, _ in pairs], [[mpf((zi, -frac)) for zi in v]
                                                       for _, v in pairs]
