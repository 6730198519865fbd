"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines stream.  Expected result: `2 failed, 12 passed`.

Criterion 1 checks the golden figure spectrum (N=10, M=6) on (-1, 1), the
interval it belongs to.  On (-2, 2), `symmetrize_domain(0, 2)`, the six
alternating points lie 1/3 apart, a local frequency of 3*pi below the band
limit 10, so nothing superoscillates there.

Criteria 7 and 9 assert claims that are false of the stated problem: an
independent 160-200 digit solve from exact inputs reproduces the measured
counts and eigenvalues that violate them.  They are left failing rather
than weakened; the passing reference tests (1r, 9r) pin what does hold.
"""

import json
import time
import warnings

import pytest
from mpmath import mp, mpf

import superosc as so
from superosc.cli import main as cli_main

from oracles import projected_ascent_max_mpf

HIGH = so.Context(100)
FAST = so.Context(15)

FIGURE_SPECTRUM = [
    ("1.189e-23", 0.01),
    ("2.176e-18", 0.01),
    ("2.559e-14", 0.01),
    ("1.379e-10", 0.01),
    ("4.847e-7", 0.01),
    ("0.00233", 0.02),
]


def report(num, ok, detail):
    print("ACCEPTANCE %2s: %s — %s" % (num, "PASS" if ok else "FAIL", detail))
    return ok


def solve(n, m, domain, ctx, seed=0, method="secular"):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", so.PrecisionWarning)
        return so.design_spectrum(n, m, domain, ctx, seed=seed, method=method)


@pytest.fixture(scope="module")
def spectrum_a2():
    started = time.monotonic()
    result = solve(10, 6, so.symmetrize_domain(0, 2), HIGH)
    return result, time.monotonic() - started


@pytest.fixture(scope="module")
def spectrum_a1():
    started = time.monotonic()
    result = solve(10, 6, so.symmetrize_domain(0, 1), HIGH)
    return result, time.monotonic() - started


@pytest.fixture(scope="module")
def spectrum_annulus():
    started = time.monotonic()
    result = solve(10, 6, so.symmetrize_domain("0.5", 1), HIGH)
    return result, time.monotonic() - started


def check_spectrum_values(eigenvalues, expected):
    lines = []
    ok = True
    with HIGH.workprec():
        for i, ((target, tol), got) in enumerate(zip(expected, eigenvalues), 1):
            target = mpf(target)
            rel = abs(got - target) / target
            good = rel <= tol
            ok = ok and good
            lines.append("lambda_%d got %s want %s rel %.1e (tol %.0e) %s"
                         % (i, mp.nstr(got, 6), mp.nstr(target, 6), float(rel),
                            tol, "ok" if good else "MISMATCH"))
    return ok, lines


def test_criterion_01_golden_spectrum_at_stated_radius(spectrum_a1):
    """Golden six-eigenvalue spectrum at N=10, M=6 on the figure's interval.

    The figure's stated a=2 is the width of its interval, (-1, 1), not the
    half-width that `symmetrize_domain` takes.  On (-2, 2) the six points
    on [0, 2) lie 1/3 apart, a local frequency of 3*pi ~ 9.42 below the
    band limit 10: nothing superoscillates and the spectrum runs from
    3.9e-10 to 0.998.  The golden values span 23 decades, as only a
    superoscillation spectrum can, and an independent 160-digit solve on
    (-1, 1) gives 1.18922e-23, 2.17684e-18, 2.5596e-14, 1.37943e-10,
    4.84691e-7 and 2.32992e-3.
    """
    result, elapsed = spectrum_a1
    ok, lines = check_spectrum_values(result.spectrum.eigenvalues, FIGURE_SPECTRUM)
    ok = ok and elapsed < 30
    report(1, ok, "(-1,1) spectrum vs golden values (%.1fs)" % elapsed)
    assert ok, (
        "golden values not reproduced on (-1,1) within 30s (%.1fs):\n  "
        % elapsed + "\n  ".join(lines)
    )


def test_reference_golden_spectrum_matches_unit_radius(spectrum_a1):
    """The golden values are reproduced at a=1, the radius they belong to."""
    result, elapsed = spectrum_a1
    ok, lines = check_spectrum_values(result.spectrum.eigenvalues, FIGURE_SPECTRUM)
    report("1r", ok and elapsed < 30,
           "a=1 spectrum matches all six golden values (%.1fs)" % elapsed)
    assert ok, "\n".join(lines)
    assert elapsed < 30


def test_criterion_02_two_interval_spectrum(spectrum_annulus):
    result, elapsed = spectrum_annulus
    vals = result.spectrum.eigenvalues
    with HIGH.workprec():
        rel_top = abs(vals[-1] - mpf("0.000048136")) / mpf("0.000048136")
        rel_bottom = abs(vals[0] - mpf("2.36786e-26")) / mpf("2.36786e-26")
    ok = rel_top <= 0.005 and rel_bottom <= 0.01 and elapsed < 30
    report(2, ok,
           "annulus (0.5,1): lambda_max rel %.2e (tol 5e-3), lambda_min rel %.2e "
           "(tol 1e-2), %.1fs" % (float(rel_top), float(rel_bottom), elapsed))
    assert rel_top <= 0.005
    assert rel_bottom <= 0.01
    assert elapsed < 30


def test_criterion_03_full_period_identity():
    domain = so.Domain(((-mp.pi, mp.pi),))
    delta = so.overlap_matrix(domain, 10, FAST)
    worst_entry = max(
        abs(delta[i, j] - (1 if i == j else 0))
        for i in range(11) for j in range(11)
    )
    cs = so.alternating_constraints(0, mp.pi, 4)
    cm = so.constraint_matrix(cs, 10, FAST)
    frame = so.orthonormal_frame(cm, cs.values, ctx=FAST)
    import random
    rng = random.Random(0)
    worst_yield = mpf(0)
    with FAST.workprec():
        for _ in range(20):
            free = mp.matrix([mpf(rng.uniform(-3, 3)) for _ in range(frame.free_dim)])
            sig = so.FourierCosineSignal(10, tuple(frame.assemble(free)))
            rep = so.yield_of(sig, domain, delta, FAST)
            worst_yield = max(worst_yield, abs(rep.algebraic - 1),
                              abs(rep.quadrature - 1))
    ok = worst_entry < mpf("1e-12") and worst_yield < mpf("1e-10")
    report(3, ok, "identity deviation %.1e (tol 1e-12), yield deviation %.1e "
                  "(tol 1e-10)" % (float(worst_entry), float(worst_yield)))
    assert ok


def test_criterion_04_ascent_oracle_equivalence():
    started = time.monotonic()
    worst = (mpf(0), None)
    for n in range(3, 7):
        for m in range(1, n + 2):
            for a_str in ("0.5", "1", "2"):
                domain = so.symmetrize_domain(0, a_str)
                result = solve(n, m, domain, FAST, seed=1)
                lam = result.spectrum.eigenvalues[-1]
                cs = so.alternating_constraints(0, a_str, m)
                cm = so.constraint_matrix(cs, n, FAST)
                delta = so.overlap_matrix(domain, n, FAST)
                reference = projected_ascent_max_mpf(
                    delta.entries, cm.entries, cs.values,
                    restarts=100, seed=7, dps=FAST.work_dps)
                with FAST.workprec():
                    rel = abs(lam - reference) / reference
                if rel > worst[0]:
                    worst = (rel, (n, m, a_str))
    elapsed = time.monotonic() - started
    ok = worst[0] < mpf("1e-8") and elapsed < 120
    report(4, ok, "66 configs, worst relative deviation %.2e at %s "
                  "(tol 1e-8), %.0fs (budget 120s)"
           % (float(worst[0]), worst[1], elapsed))
    assert worst[0] < mpf("1e-8")
    assert elapsed < 120


def test_criterion_05_cross_method_agreement():
    configs = [
        (10, 6, so.symmetrize_domain(0, 1)),
        (10, 5, so.symmetrize_domain(0, 1)),
        (6, 3, so.symmetrize_domain(0, 1)),
        (10, 6, so.symmetrize_domain("0.5", 1)),
        (10, 6, so.symmetrize_domain(0, 2)),
    ]
    worst = mpf(0)
    for n, m, domain in configs:
        sec = solve(n, m, domain, HIGH, method="secular")
        jac = solve(n, m, domain, HIGH, method="jacobi")
        assert len(sec.spectrum) == len(jac.spectrum) == n + 2 - m
        with HIGH.workprec():
            for a, b in zip(sec.spectrum.eigenvalues, jac.spectrum.eigenvalues):
                worst = max(worst, abs(a - b) / a)
    ok = worst < mpf("1e-6")
    report(5, ok, "secular vs jacobi on %d configs, worst relative "
                  "disagreement %.1e (tol 1e-6)" % (len(configs), float(worst)))
    assert ok


def test_criterion_06_constraint_satisfaction(spectrum_a2, spectrum_a1,
                                              spectrum_annulus):
    worst = mpf(0)
    tol = mpf("1e-85")
    for result, _ in (spectrum_a2, spectrum_a1, spectrum_annulus):
        for sig in result.spectrum.signals:
            for t, v in zip(result.constraints.points, result.constraints.values):
                worst = max(worst, abs(so.evaluate(sig, t, HIGH) - v))
    ok = worst < tol
    report(6, ok, "max interpolation residual %.1e over three spectra "
                  "(tol %.0e)" % (float(worst), float(tol)))
    assert ok


def test_criterion_07_crossing_ladder(spectrum_a1):
    result, _ = spectrum_a1
    domain = result.domain
    counts = [so.zero_crossings(sig, domain, 400000)
              for sig in result.spectrum.signals]
    # counts are ascending-eigenvalue order; the ladder is read from the
    # top eigenvalue downwards.  The claim is false of this problem: an
    # exact count of the real roots in x = cos t gives the same ladder as
    # the grid, on (-1, 1) and on (-2, 2) alike.
    ladder = list(reversed(counts))
    steps = [b - a for a, b in zip(ladder, ladder[1:])]
    ok = all(s == 2 for s in steps)
    report(7, ok, "(-1,1) crossing counts top->bottom %s, steps %s "
                  "(want all +2)"
           % (ladder, steps))
    assert ok, (
        "crossing counts do not climb by exactly 2: counts top->bottom %s. "
        "Lower modes develop near-tangent dips (conjugate zero pairs just "
        "off the axis) that add visible oscillations without sign changes."
        % (ladder,)
    )


def test_criterion_08_small_radius_scaling_law():
    started = time.monotonic()
    radii = [mpf(1) / 64, mpf(1) / 32, mpf(1) / 16, mpf(1) / 8, mpf(1) / 4]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", so.PrecisionWarning)
        table = so.scaling_sweep(10, 5, radii, HIGH)
    elapsed = time.monotonic() - started
    assert not table.errors
    worst = 0.0
    details = []
    for i in range(1, 8):
        expected = 4 * (10 - i) + 5
        slope = float(table.slopes[i])
        dev = abs(slope / expected - 1)
        worst = max(worst, dev)
        details.append("i=%d slope %.2f want %d" % (i, slope, expected))
    ok = worst < 0.05 and elapsed < 300
    report(8, ok, "slopes %s; worst deviation %.2f%% (tol 5%%), %.0fs "
                  "(budget 300s)" % ("; ".join(details), 100 * worst, elapsed))
    assert worst < 0.05
    assert elapsed < 300


@pytest.fixture(scope="module")
def monotonicity_spectra():
    spectra = {}
    for m in (3, 5, 7):
        result = solve(10, m, so.symmetrize_domain(0, mpf(1) / 64), HIGH, seed=0)
        spectra[m] = result.spectrum.eigenvalues
    return spectra


def test_criterion_09_monotonicity_in_constraint_count(monotonicity_spectra):
    spectra = monotonicity_spectra
    violations = []
    for m_low, m_high in ((3, 5), (3, 7), (5, 7)):
        shared = min(len(spectra[m_low]), len(spectra[m_high]))
        for i in range(shared):
            if spectra[m_low][i] < spectra[m_high][i]:
                violations.append(
                    "i=%d: lambda(M=%d)=%s < lambda(M=%d)=%s"
                    % (i + 1, m_low, mp.nstr(spectra[m_low][i], 5),
                       m_high, mp.nstr(spectra[m_high][i], 5)))
    ok = not violations
    report(9, ok, "ascending shared-index comparison, %d violations"
           % len(violations))
    assert ok, (
        "eigenvalues are not non-increasing in M at shared ascending "
        "indices:\n  " + "\n  ".join(violations)
        + "\n(top-anchored alignment does hold: see the reference test)"
    )


def test_reference_top_anchored_monotonicity(monotonicity_spectra):
    """Aligned from the top eigenvalue down, dominance in M does hold."""
    spectra = {m: list(reversed(vals)) for m, vals in monotonicity_spectra.items()}
    for m_low, m_high in ((3, 5), (3, 7), (5, 7)):
        shared = min(len(spectra[m_low]), len(spectra[m_high]))
        for i in range(shared):
            assert spectra[m_low][i] >= spectra[m_high][i]
    report("9r", True, "top-anchored alignment: lambda monotone in M at "
                       "every shared rank")


def test_criterion_10_baseline_dominance():
    import random
    domain = so.symmetrize_domain(0, 1)
    result = solve(10, 5, domain, HIGH)
    fk = so.fk_min_energy_signal(result.frame, HIGH)
    fk_report = so.yield_of(fk, domain, result.delta, HIGH)
    fk_energy = so.energy_per_period(fk, HIGH)
    opt_energy = so.energy_per_period(result.optimal_signal, HIGH)
    rng = random.Random(99)
    random_ok = True
    with HIGH.workprec():
        for _ in range(100):
            free = mp.matrix([mpf(rng.uniform(-10, 10))
                              for _ in range(result.frame.free_dim)])
            candidate = so.FourierCosineSignal(
                10, tuple(result.frame.assemble(free)))
            if so.energy_per_period(candidate, HIGH) < fk_energy:
                random_ok = False
    top_slepian = so.slepian_modes(result.delta, HIGH)[0][0]
    checks = [
        fk_report.algebraic <= result.optimal_yield,
        fk_energy <= opt_energy,
        random_ok,
        top_slepian >= result.optimal_yield,
    ]
    ok = all(checks)
    report(10, ok,
           "fk yield %.2e <= optimum %.2e; fk energy minimal over optimum "
           "and 100 random interpolants; top concentration mode %.4f >= "
           "optimum" % (float(fk_report.algebraic),
                        float(result.optimal_yield), float(top_slepian)))
    assert ok, checks


def test_criterion_11_completion_invariance():
    domain = so.symmetrize_domain(0, 1)
    r1 = solve(10, 5, domain, HIGH, seed=12345)
    r2 = solve(10, 5, domain, HIGH, seed=67890)
    worst_eig = mpf(0)
    worst_coeff = mpf(0)
    with HIGH.workprec():
        for a, b in zip(r1.spectrum.eigenvalues, r2.spectrum.eigenvalues):
            worst_eig = max(worst_eig, abs(a - b) / a)
        for s1, s2 in zip(r1.spectrum.signals, r2.spectrum.signals):
            for x, y in zip(s1.coeffs, s2.coeffs):
                worst_coeff = max(worst_coeff, abs(x - y))
    ok = worst_eig < mpf("1e-10") and worst_coeff < mpf("1e-8")
    report(11, ok, "two seeds: eigenvalue rel dev %.1e (tol 1e-10), "
                   "coefficient dev %.1e (tol 1e-8)"
           % (float(worst_eig), float(worst_coeff)))
    assert ok


def test_criterion_12_cli_determinism(tmp_path):
    args = ["spectrum", "-n", "6", "-m", "3", "--interval", "1",
            "--precision", "20", "--seed", "7", "--samples", "11"]
    texts = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        code = cli_main(args + ["--out", str(out)])
        assert code == 0
        texts.append(out.read_bytes())
    ok = texts[0] == texts[1]
    report(12, ok, "repeated CLI run produced byte-identical %d-byte documents"
           % len(texts[0]))
    assert ok
    json.loads(texts[0])  # well-formed
