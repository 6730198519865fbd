"""Independent numerical oracles.

Everything here deliberately avoids the library's computational paths:
overlap entries come from adaptive quadrature instead of antiderivatives,
minimum-norm interpolants from normal equations instead of the frame
machinery, optimal yields from random-restart projected ascent instead of
the bordered eigensolve, the secular function from an eigendecomposition
of the free block instead of the bordered matrix, free parts from LU
solves of the stationarity system instead of bordered eigenvectors,
crossing counts from every grid sample instead of the samples next to a
root, and Gauss-Legendre rules from Newton iteration in mpf alone.
"""

import math

import numpy as np
from mpmath import mp, mpf
from scipy.optimize import minimize

from superosc.signals import series_values


def basis_value(i, t):
    if i == 0:
        return 1 / mp.sqrt(2 * mp.pi)
    return mp.cos(i * t) / mp.sqrt(mp.pi)


def quad_overlap_entry(intervals, m, k, dps=45):
    """Overlap entry by adaptive quadrature of the basis product."""
    with mp.workdps(dps):
        return mp.fsum(
            mp.quad(lambda t: basis_value(m, t) * basis_value(k, t),
                    [mpf(lo), mpf(hi)])
            for lo, hi in intervals
        )


def quad_energy(signal, dps=40):
    """Energy per period by quadrature of the squared signal."""
    with mp.workdps(dps):
        def f(t):
            acc = signal.coeffs[0] / mp.sqrt(2 * mp.pi)
            for m in range(1, signal.band_limit + 1):
                acc += signal.coeffs[m] * mp.cos(m * t) / mp.sqrt(mp.pi)
            return acc * acc
        panels = 2 * signal.band_limit + 2
        step = 2 * mp.pi / panels
        return mp.fsum(
            mp.quad(f, [-mp.pi + i * step, -mp.pi + (i + 1) * step])
            for i in range(panels)
        )


def grid_crossings(signal, domain, grid_points):
    """Sign changes over every sample of zero_crossings' grid, brute force.

    The same grid, digits, cosine kernel and zero band as the package, so
    the two counts agree sample for sample, rounding included; samples
    within 10^-dps sum |A_k| of zero are skipped, which counts a sign change
    across them once.
    """
    scale = max(abs(c) for c in signal.coeffs)
    dps = 25 + (max(0, int(mp.ceil(mp.log10(scale)))) if scale else 0)
    noise = mpf(10) ** -dps * mp.fsum(abs(c) for c in signal.coeffs)
    changes = 0
    for lo, hi in domain.intervals:
        count = max(2, int(round(grid_points * float((hi - lo) / domain.measure))))
        with mp.workdps(dps):
            lo = mpf(lo) * 1
            step = (mpf(hi) * 1 - lo) / (count - 1)
            values = series_values(signal, [lo + k * step for k in range(count)])
        signs = [v > 0 for v in values if abs(v) > noise]
        changes += sum(a != b for a, b in zip(signs, signs[1:]))
    return changes


def chebyshev_roots(a, dps):
    """Every root of p = sum a_k T_k, complex ones included, by mp.polyroots
    at 2 dps digits on p's monomial coefficients (T_k+2 = 2x T_k+1 - T_k).
    The package isolates real roots on ints and roots no polynomial."""
    with mp.workdps(2 * dps):
        p, t0, t1 = [mpf(0)] * len(a), [mpf(1)], [mpf(0), mpf(1)]
        for ak in a:
            for i, v in enumerate(t0):
                p[i] += ak * v
            t0, t1 = t1, [2 * u - v for u, v in zip([0] + t1, t0 + [0, 0])]
        while not p[-1]:
            p.pop()
        return mp.polyroots(p[::-1], maxsteps=400, extraprec=8 * mp.prec)


def gauss_legendre(count, prec):
    """Gauss-Legendre (node, weight) pairs by Newton iteration in mpf only.

    Newton steps from the cosine start guesses, all at 1.5 times the
    precision, with the package's recurrence and stopping test but none of
    its float steps.
    """
    rule = []
    with mp.workprec(int(prec * 1.5)):
        for j in range(1, (count + 1) // 2 + 1):
            x = mpf(math.cos(math.pi * (j - 0.25) / (count + 0.5)) if 2 * j <= count else 0)
            dx = 1
            while abs(dx) > mp.ldexp(1, -prec - 8):
                p1, p0 = mpf(1), mpf(0)
                for k in range(1, count + 1):
                    p1, p0 = ((2 * k - 1) * x * p1 - (k - 1) * p0) / k, p1
                slope = count * (x * p1 - p0) / (x * x - 1)
                dx = p1 / slope
                x -= dx
            weight = 2 / ((1 - x * x) * slope ** 2)
            rule += [(x, weight), (-x, weight)] if x else [(x, weight)]
    with mp.workprec(prec):
        return tuple((+x, +w) for x, w in rule)


def min_norm_interpolant(cm_rows, values, dps=60):
    """Minimum-norm solution of C A = mu via normal equations C^T (C C^T)^-1 mu,
    C given as rows."""
    with mp.workdps(dps):
        c = mp.matrix(cm_rows)
        gram = c * c.T
        lam = mp.lu_solve(gram, mp.matrix([mpf(v) for v in values]))
        return c.T * lam


def constrained_rayleigh_float(delta, c, mu):
    """Unique-interpolant Rayleigh quotient in float64 (square C only)."""
    a = np.linalg.solve(c, mu)
    return float(a @ delta @ a) / float(a @ a)


def projected_ascent_max_float(delta, c, mu, restarts=100, seed=0):
    """Max constrained Rayleigh quotient by random-restart projected ascent.

    Parametrizes the affine feasible set {A : C A = mu} through an
    orthonormal null-space basis and runs a quasi-Newton ascent from each
    random start, followed by a few stationarity fixed-point polish steps.
    Pure float64: this is the fast-mode reference.
    """
    m, n = c.shape
    if m == n:
        return constrained_rayleigh_float(delta, c, mu)
    a_p, *_ = np.linalg.lstsq(c, mu, rcond=None)
    from scipy.linalg import null_space
    z = null_space(c)
    h = z.T @ delta @ z
    b = z.T @ (delta @ a_p)
    const = float(a_p @ delta @ a_p)
    base = float(a_p @ a_p)

    def ratio(y):
        return (y @ h @ y + 2 * b @ y + const) / (y @ y + base)

    def neg_with_grad(y):
        den = y @ y + base
        num = y @ h @ y + 2 * b @ y + const
        g = num / den
        grad = 2 * (h @ y + b - g * y) / den
        return -g, -grad

    rng = np.random.default_rng(seed)
    dim = z.shape[1]
    scale = np.sqrt(base)
    starts = [np.zeros(dim)]
    for _ in range(restarts - 1):
        mag = 10.0 ** rng.uniform(-2, 3)
        starts.append(rng.standard_normal(dim) * mag * scale)
    best = -np.inf
    for y0 in starts:
        res = minimize(neg_with_grad, y0, jac=True, method="BFGS",
                       options={"gtol": 1e-300, "maxiter": 500})
        y = res.x
        for _ in range(8):  # stationarity polish: y = (gI - H)^-1 b
            g = ratio(y)
            try:
                y_new = np.linalg.solve(g * np.eye(dim) - h, b)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(y_new)):
                break
            if ratio(y_new) >= g:
                y = y_new
            else:
                break
        best = max(best, ratio(y))
    return best


def projected_ascent_max_mpf(delta_rows, c_rows, mu, restarts=20, seed=0, dps=60):
    """Same maximization in arbitrary precision, for ill-conditioned cases;
    Delta and C given as rows."""
    with mp.workdps(dps):
        delta, c = mp.matrix(delta_rows), mp.matrix(c_rows)
        m, n = c.rows, c.cols
        mu_vec = mp.matrix([mpf(v) for v in mu])
        if m == n:
            a = mp.lu_solve(c, mu_vec)
            return (a.T * (delta * a))[0] / (a.T * a)[0]
        a_p = min_norm_interpolant(c_rows, mu, dps=dps)
        # orthonormal null-space basis by Gram-Schmidt against the rows
        rows = [c[j, :].T for j in range(m)]
        basis = []
        for v in rows:
            w = v.copy()
            for u in basis:
                w = w - u * (u.T * w)[0]
            basis.append(w / mp.sqrt((w.T * w)[0]))
        nullb = []
        k = 0
        while len(nullb) < n - m:
            v = mp.zeros(n, 1)
            v[k % n] = 1
            k += 1
            w = v.copy()
            for _ in range(2):
                for u in basis + nullb:
                    w = w - u * (u.T * w)[0]
            nrm = mp.sqrt((w.T * w)[0])
            if nrm > mpf("0.01"):
                nullb.append(w / nrm)
        z = mp.zeros(n, n - m)
        for j, u in enumerate(nullb):
            for i in range(n):
                z[i, j] = u[i]
        h = z.T * delta * z
        b = z.T * (delta * a_p)
        const = (a_p.T * (delta * a_p))[0]
        base = (a_p.T * a_p)[0]
        dim = n - m

        def ratio(y):
            return ((y.T * (h * y))[0] + 2 * (b.T * y)[0] + const) / ((y.T * y)[0] + base)

        def climb(g):
            try:
                return ratio(mp.lu_solve(g * mp.eye(dim) - h, b))
            except ZeroDivisionError:
                return None

        import random as _random
        rng = _random.Random(seed)
        best = mpf(-1)
        tol = mpf(10) ** (-dps + 8)
        for r in range(restarts):
            if r == 0:
                y = mp.zeros(dim, 1)
            else:
                mag = mpf(10) ** rng.uniform(-2, 3)
                y = mp.matrix([mpf(rng.gauss(0, 1)) * mag * mp.sqrt(base)
                               for _ in range(dim)])
            g = ratio(y)
            # monotone stationarity fixed point, then secant on g - climb(g):
            # the fixed point is safe but can crawl when the optimum sits
            # near its bracketing pole, which the secant polish finishes off.
            for _ in range(80):
                g_new = climb(g)
                if g_new is None or g_new <= g * (1 + tol):
                    break
                g = g_new
            g0, g1 = g, climb(g)
            if g1 is not None and g1 > g0:
                h0 = g0 - climb(g0) if climb(g0) is not None else None
                for _ in range(60):
                    c1 = climb(g1)
                    if c1 is None:
                        break
                    h1 = g1 - c1
                    best = max(best, c1)
                    if h0 is None or h1 == h0 or abs(h1) < tol * abs(g1):
                        break
                    g_next = g1 - h1 * (g1 - g0) / (h1 - h0)
                    if not (0 < g_next < 1):
                        break
                    g0, h0, g1 = g1, h1, g_next
            best = max(best, g)
        return best


def secular_equation(delta_free, gamma, delta_fixed, mu_tilde, dps):
    """Secular function of the block decomposition, pole form, at dps digits.

    With (d_k, u_k) the eigenpairs of delta_free, v = U^T gamma mu_tilde and
    q = mu_tilde^T delta_fixed mu_tilde, returns Y -> (s(Y), s'(Y)) where

        s(Y)  = q - Y ||mu_tilde||^2 - sum_k v_k^2 / (d_k - Y)
        s'(Y) = -||mu_tilde||^2 - sum_k v_k^2 / (d_k - Y)^2.

    |s'(Y)| is the energy of the stationary signal at Y, the scale by which
    s moves when Y is rounded.
    """
    with mp.workdps(dps):
        poles, basis = mp.eigsy(delta_free)
        weights = basis.T * (gamma * mu_tilde)
        q = (mu_tilde.T * (delta_fixed * mu_tilde))[0]
        norm_sq = (mu_tilde.T * mu_tilde)[0]

    def evaluate(y):
        with mp.workdps(dps):
            terms = [(v * v, d - y) for d, v in zip(poles, weights)]
            value = q - y * norm_sq - mp.fsum(w / gap for w, gap in terms)
            slope = -norm_sq - mp.fsum(w / (gap * gap) for w, gap in terms)
            return value, slope
    return evaluate


def stationary_free_part(delta_free, gamma, delta_fixed, mu_tilde, y, dps):
    """Free part x = -(Delta_free - y)^-1 Gamma mu~ by LU solves at dps digits.

    y is first taken to dps digits by eight Newton steps on the secular
    function s(y) = q - y ||mu~||^2 + g^T x(y), g = Gamma mu~, whose slope is
    -(||mu~||^2 + ||x(y)||^2): x(y) is far more sensitive to the rounding of
    a small root y than to the solve.
    """
    with mp.workdps(dps):
        g = gamma * mu_tilde
        q = (mu_tilde.T * (delta_fixed * mu_tilde))[0]
        norm_sq = (mu_tilde.T * mu_tilde)[0]
        eye = mp.eye(delta_free.rows)
        for _ in range(8):
            x = mp.lu_solve(delta_free - y * eye, -g)
            y += (q - y * norm_sq + (g.T * x)[0]) / (norm_sq + (x.T * x)[0])
        return mp.lu_solve(delta_free - y * eye, -g)


def mpf_matrix_to_numpy(rows):
    return np.array([[float(x) for x in row] for row in rows], dtype=float)
