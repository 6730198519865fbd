"""The benchmark's workloads: their operations and the checks on each output.

Every operation goes through superosc's public API, looked up on the module
at call time so that the traced run sees its wrappers.  Each check compares
an output with the stated problem (reference.py), never with bytes or grid
counts the package produced before, so the checks hold for the package as it
is and for one that computes the same quantities more exactly.
"""

import importlib
import json
import os
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from mpmath import mp, mpf

import reference

MATRIX = json.loads((Path(__file__).resolve().parent / "matrix.json").read_text())

# Relative tolerance on the top eigenvalue.  The package rounds its inputs
# to double precision, which moves the stated problem's spectrum by up to
# 2e-15 relative on this matrix; 1e-12 absorbs that with room to spare.
TOP_RTOL = mpf("1e-12")
# Relative size of the double rounding a constraint point may carry.
POINT_RTOL = mpf(2) ** -50


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]        # the timed call
    check: Callable[[object], list]  # its output -> problems (empty when right)


def stated_intervals(inner, outer):
    """Exact intervals of the symmetric domain with the given radii."""
    a, b = Fraction(inner), Fraction(outer)
    return ((-b, b),) if a == 0 else ((-b, -a), (a, b))


def trust_floor(digits):
    return mpf(10) ** (6 - digits)


# -- checks ------------------------------------------------------------------
# Each returns a list of problem strings; all arithmetic runs at the
# reference's working precision.

def check_spectrum(eigenvalues, ref, label):
    problems = []
    if len(eigenvalues) != ref.count:
        problems.append("%s: %d eigenvalues, expected N+2-M = %d"
                        % (label, len(eigenvalues), ref.count))
    if not all(0 < y < 1 for y in eigenvalues):
        problems.append("%s: eigenvalue outside (0, 1)" % label)
    if any(b <= a for a, b in zip(eigenvalues, eigenvalues[1:])):
        problems.append("%s: eigenvalues not strictly ascending" % label)
    if eigenvalues:
        problems += check_close(eigenvalues[-1], ref.top, TOP_RTOL, label + " top eigenvalue")
    return problems


def check_residual(coeffs, ref, label):
    """Constraint residual at the stated points.

    Allowed: the context's precision on the coefficient scale, plus what a
    double-rounded constraint point explains (|f'| times the rounding).
    """
    coeffs = [mpf(c) for c in coeffs]
    scale = mp.fsum(abs(c) for c in coeffs)
    slope = mp.fsum(k * abs(c) for k, c in enumerate(coeffs)) / mp.sqrt(mp.pi)
    dps = mp.dps + int(mp.log10(scale + 1))
    worst = mpf(0)
    for t, v in zip(ref.points, ref.values):
        tol = mpf(10) ** (-ref.digits) * scale + POINT_RTOL * abs(reference.real(t)) * slope
        worst = max(worst, abs(reference.evaluate(coeffs, t, dps) - v) / tol)
    if worst > 1:
        return ["%s: constraint residual %s times its tolerance" % (label, mp.nstr(worst, 3))]
    return []


def check_yields(algebraic, quadrature, eigenvalue, ref, label):
    """The two yield routes agree to the context precision above its floor."""
    if eigenvalue < trust_floor(ref.digits):
        return []
    if abs(algebraic - quadrature) > mpf(10) ** (3 - ref.digits):
        return ["%s: yield routes differ by %s"
                % (label, mp.nstr(abs(algebraic - quadrature), 3))]
    return []


def check_crossings(count, ref, label):
    if count < ref.forced_crossings:
        return ["%s: %d crossings, the constraints force %d"
                % (label, count, ref.forced_crossings)]
    return []


def check_close(value, expected, rtol, label):
    if abs(value - expected) > rtol * abs(expected):
        return ["%s: %s, expected %s" % (label, mp.nstr(value, 20), mp.nstr(expected, 20))]
    return []


def _checked(ref, fn):
    """Run a check at the reference's working precision."""
    def check(output):
        with mp.workdps(ref.digits + reference.EXTRA_DIGITS):
            return fn(output)
    return check


# -- solve_matrix ------------------------------------------------------------

def matrix_cells():
    """Accepted cells of the ROADMAP matrix: (digits, N, domain label, M)."""
    excluded = {(c["digits"], c["band_limit"], c["domain"], c["constraints"])
                for c in MATRIX["excluded"]}
    return [(p, n, d, m)
            for p in MATRIX["digits"] for n in MATRIX["band_limits"]
            for d in MATRIX["domains"] for m in MATRIX["constraints"]
            if (p, n, d, m) not in excluded]


def library_call(digits, n, domain_label, m, seed):
    """design_spectrum on one cell, with the domain stated as the user would."""
    so = importlib.import_module("superosc")
    inner, outer = MATRIX["domains"][domain_label]
    domain = so.symmetrize_domain(inner, outer)
    ctx = so.Context(digits)
    return lambda: so.design_spectrum(n, m, domain, ctx, seed=seed)


def solve_matrix(seed, outdir):
    ops = []
    for digits, n, label, m in matrix_cells():
        ref = reference.solve(n, m, stated_intervals(*MATRIX["domains"][label]), digits)
        name = "p%d-n%d-%s-m%d" % (digits, n, label, m)

        def check(result, ref=ref, name=name):
            spectrum = result.spectrum
            problems = check_spectrum(spectrum.eigenvalues, ref, name)
            for i, signal in enumerate(spectrum.signals, start=1):
                problems += check_residual(signal.coeffs, ref, "%s mode %d" % (name, i))
            return problems
        ops.append(Op(name, library_call(digits, n, label, m, seed), _checked(ref, check)))
    return ops


# -- CLI documents -----------------------------------------------------------

def cli_op(name, argv, seed, outdir, check):
    path = os.path.join(outdir, name + ".json")
    argv = argv.split() + ["--seed", str(seed), "--out", path]

    def run():
        code = importlib.import_module("superosc.cli").main(argv)
        if code != 0:
            raise RuntimeError("superosc %s exited with %d" % (argv[0], code))
        return path

    def check_doc(doc_path):
        with open(doc_path) as fh:
            doc = json.load(fh)
        os.remove(doc_path)  # so that a later run cannot pass on this document
        problems = []
        if doc["config"]["seed"] != seed:
            problems.append("%s: seed not echoed" % name)
        return problems + check(doc)
    return Op(name, run, check_doc)


def check_mode(mode, ref, label):
    lam = mpf(mode["eigenvalue"])
    return (check_yields(mpf(mode["yield_algebraic"]), mpf(mode["yield_quadrature"]),
                         lam, ref, label)
            + check_crossings(mode["crossings"], ref, label)
            + check_residual(mode["coefficients"], ref, label))


def spectrum_doc_check(ref, name):
    def check(doc):
        eig = [mpf(v) for v in doc["eigenvalues"]]
        problems = check_spectrum(eig, ref, name)
        if doc["count"] != len(eig) or len(doc["modes"]) != len(eig):
            problems.append("%s: count, eigenvalues and modes disagree" % name)
        for i, mode in enumerate(doc["modes"], start=1):
            label = "%s mode %d" % (name, i)
            if mode["index"] != i or mpf(mode["eigenvalue"]) != eig[i - 1]:
                problems.append("%s: index or eigenvalue does not match the list" % label)
            problems += check_mode(mode, ref, label)
        return problems
    return _checked(ref, check)


def design_doc_check(ref, name, outer):
    digits = ref.digits
    def check(doc):
        lam = mpf(doc["eigenvalue"])
        mode = doc["mode"]
        problems = check_close(lam, ref.top, TOP_RTOL, name + " top eigenvalue")
        if mode["index"] != ref.count or mpf(mode["eigenvalue"]) != lam:
            problems.append("%s: mode is not the top of %d" % (name, ref.count))
        problems += check_mode(mode, ref, name)
        points = [mpf(t) for t in doc["constraint_points"]]
        if len(points) != len(ref.points) or any(
                abs(t - reference.real(s)) > POINT_RTOL * abs(t) + mpf(10) ** -digits
                for t, s in zip(points, ref.points)):
            problems.append("%s: constraint points differ from the stated ones" % name)
        coeffs = [mpf(c) for c in mode["coefficients"]]
        scale = mp.fsum(abs(c) for c in coeffs)
        for key, (lo, hi) in (("full_period", (-mp.pi, mp.pi)), ("domain", (-outer, outer))):
            series = doc["series"][key]
            if not len(series["t"]) == len(series["f"]) == len(series["log10_abs_f"]) == 1001:
                problems.append("%s: %s series is not 1001 samples" % (name, key))
                continue
            ends = mpf(series["t"][0]), mpf(series["t"][-1])
            # The package takes pi at double precision here, as it takes inputs.
            if max(abs(ends[0] - lo), abs(ends[1] - hi)) > POINT_RTOL * hi + mpf(10) ** -digits:
                problems.append("%s: %s series does not span its interval" % (name, key))
            for i in range(0, 1001, 100):
                t, f = mpf(series["t"][i]), mpf(series["f"][i])
                if abs(reference.evaluate(coeffs, t, mp.dps) - f) > mpf(10) ** -digits * scale:
                    problems.append("%s: %s sample %d is off" % (name, key, i))
                elif f != 0 and (abs(mp.log10(abs(f)) - mpf(series["log10_abs_f"][i]))
                                 > mpf(10) ** -digits):
                    problems.append("%s: %s log10 sample %d is off" % (name, key, i))
        return problems
    return _checked(ref, check)


def baseline_doc_check(ref, name):
    digits = ref.digits
    def check(doc):
        fk = doc["fk_minimum_energy"]
        fk_alg, fk_quad = mpf(fk["yield_algebraic"]), mpf(fk["yield_quadrature"])
        problems = check_yields(fk_alg, fk_quad, fk_alg, ref, name + " fk")
        problems += check_close(fk_alg, ref.fk_yield, TOP_RTOL, name + " fk yield")
        problems += check_close(mpf(fk["energy"]), ref.fk_energy, TOP_RTOL, name + " fk energy")
        problems += check_close(mpf(fk["mu_tilde_norm_sq"]), mpf(fk["energy"]),
                                mpf(10) ** (3 - digits), name + " fk |mu~|^2")
        problems += check_residual(fk["coefficients"], ref, name + " fk")
        slepian = [mpf(v) for v in doc["slepian"]["eigenvalues"]]
        n_plus_1 = len(fk["coefficients"])
        if len(slepian) != n_plus_1 or doc["slepian"]["count"] != n_plus_1:
            problems.append("%s: %d slepian modes, expected N+1" % (name, len(slepian)))
        if not all(0 < y < 1 for y in slepian) or any(b > a for a, b in zip(slepian, slepian[1:])):
            problems.append("%s: slepian eigenvalues not descending in (0, 1)" % name)
        problems += check_close(slepian[0], ref.slepian_top, TOP_RTOL, name + " slepian top")
        top = mpf(doc["spectrum_max_eigenvalue"])
        problems += check_close(top, ref.top, TOP_RTOL, name + " spectrum top")
        if top > slepian[0]:
            problems.append("%s: constrained optimum beats the unconstrained one" % name)
        return problems
    return _checked(ref, check)


def sweep_doc_check(refs, name, radius):
    """refs: exact radius (a sweep) or constraint count (M sweep) -> reference.

    radius is the fixed interval radius of an M sweep, None for an a sweep.
    """
    def check(doc):
        problems = []
        if doc["errors"]:
            problems.append("%s: sweep reported errors %s" % (name, doc["errors"]))
        rows = {}
        for row in doc["rows"]:
            key = row["key"] if radius is not None else Fraction(row["key"])
            rows.setdefault(key, []).append(row)
        if set(rows) != set(refs):
            problems.append("%s: sweep keys %s" % (name, sorted(map(str, rows))))
        for key, ref in refs.items():
            label = "%s key %s" % (name, key)
            got = rows.get(key, [])
            problems += check_spectrum([mpf(r["eigenvalue"]) for r in got], ref, label)
            a = reference.real(Fraction(radius if radius is not None else key))
            for r in got:
                exponent = 4 * (ref.band_limit - r["index"]) + 5
                problems += check_close(mpf(r["normalized"]) * a ** exponent,
                                        mpf(r["eigenvalue"]), mpf(10) ** (3 - ref.digits),
                                        "%s index %d normalized" % (label, r["index"]))
        if radius is None:
            n = next(iter(refs.values())).band_limit
            for index, slope in doc["slopes"].items():
                if abs(mpf(slope) - (4 * (n - int(index)) + 5)) > mpf("0.5"):
                    problems.append("%s: slope %s of index %s is off the a^(4(N-i)+5) law"
                                    % (name, mp.nstr(mpf(slope), 5), index))
        return problems
    return _checked(next(iter(refs.values())), check)


def spectrum_report(seed, outdir):
    digits, n, m = 100, 10, 9
    ref = reference.solve(n, m, stated_intervals("0.5", "1"), digits)
    argv = "spectrum -n 10 -m 9 --annulus 0.5 1 --precision 100"
    return [cli_op("spectrum", argv, seed, outdir, spectrum_doc_check(ref, "spectrum"))]


SWEEP_RADII = ("0.015625", "0.03125", "0.0625", "0.125", "0.25")
SWEEP_M = (3, 5, 7)


def fast_cli(seed, outdir):
    unit = stated_intervals("0", "1")
    design_ref = reference.solve(10, 5, unit, 30)
    baseline_ref = reference.solve(10, 5, unit, 15)
    radius_refs = {Fraction(a): reference.solve(10, 5, stated_intervals("0", a), 100)
                   for a in SWEEP_RADII}
    m_refs = {m: reference.solve(10, m, stated_intervals("0", "0.015625"), 100)
              for m in SWEEP_M}
    return [
        cli_op("design", "design -n 10 -m 5 --interval 1 --precision 30", seed, outdir,
               design_doc_check(design_ref, "design", mpf(1))),
        cli_op("baseline", "baseline -n 10 -m 5 --interval 1", seed, outdir,
               baseline_doc_check(baseline_ref, "baseline")),
        cli_op("sweep_radius",
               "sweep --a-values %s -n 10 -m 5 --precision 100" % ",".join(SWEEP_RADII),
               seed, outdir,
               sweep_doc_check(radius_refs, "sweep_radius", None)),
        cli_op("sweep_constraints",
               "sweep --interval 0.015625 --m-values %s -n 10 -m 3 --precision 100"
               % ",".join(map(str, SWEEP_M)), seed, outdir,
               sweep_doc_check(m_refs, "sweep_constraints", "0.015625")),
    ]


WORKLOADS = {
    "solve_matrix": solve_matrix,
    "spectrum_report": spectrum_report,
    "fast_cli": fast_cli,
}


def refused_cells(seed):
    """Names of the excluded matrix cells the solver still refuses."""
    refused = []
    for cell in MATRIX["excluded"]:
        call = library_call(cell["digits"], cell["band_limit"], cell["domain"],
                            cell["constraints"], seed)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                call()
        except Exception as exc:  # any refusal keeps the cell excluded
            refused.append("p%d-n%d-%s-m%d: %s" % (cell["digits"], cell["band_limit"],
                                                    cell["domain"], cell["constraints"],
                                                    type(exc).__name__))
    return refused
