"""Command-line interface.

Subcommands
    design    top-eigenvalue signal with plot-ready sample series
    spectrum  all generalized eigenvalues with per-mode diagnostics
    baseline  minimum-energy interpolant and unconstrained concentration modes
    sweep     eigenvalue tables over interval radii or constraint counts

Numbers are serialized as decimal strings at full context precision so
values far below double precision survive JSON consumers.  Documents are
deterministic: the same configuration produces byte-identical
output (timing goes to stderr, never into the document).

Exit codes: 0 success, 2 invalid input, 3 solver failure.
"""

import argparse
import csv
import io
import json
import sys
import time

from mpmath import mp, mpf

from .analysis import monotonicity_table, scaling_sweep, yield_of, zero_crossings
from .constraints import RankDeficientConstraints
from .context import Context
from .design import METHODS, design_spectrum
from .domains import parse_domain_spec, symmetrize_domain
from .errors import InfeasibleConstraints, SolverFailure
from .signals import evaluate, sample
from .solver import fk_min_energy_signal, jacobi_spectrum, slepian_modes

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="superosc",
        description="Design yield-optimized superoscillating signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("design", cmd_design), ("spectrum", cmd_spectrum),
                     ("baseline", cmd_baseline), ("sweep", cmd_sweep)):
        p = sub.add_parser(name)
        _common_flags(p)
        if name == "sweep":
            p.add_argument("--a-values", help="comma-separated interval radii")
            p.add_argument("--m-values", help="comma-separated constraint counts")
        p.set_defaults(handler=fn)
    return parser


def _common_flags(p):
    p.add_argument("--band-limit", "-n", type=int, required=True)
    p.add_argument("--constraints", "-m", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--interval", metavar="A",
                       help="symmetric interval (-A, A)")
    group.add_argument("--annulus", nargs=2, metavar=("A", "B"),
                       help="symmetric pair (-B,-A) u (A,B)")
    group.add_argument("--domain", metavar="SPEC",
                       help="general domain 'lo,hi;lo,hi' in radians; write "
                            "--domain=SPEC when it starts with a minus sign")
    p.add_argument("--precision", type=int, default=15,
                   help="significant decimal digits (default 15)")
    p.add_argument("--method", choices=METHODS + ("both",), default="secular")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted and echoed; no number depends on it")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--samples", type=_sample_count, default=0,
                   help="points per exported sample series, 0 or at least 2 "
                        "(0: none, or 1001 for design)")
    p.add_argument("--out", help="output path (default stdout)")


def _sample_count(text):
    count = int(text)
    if count < 0 or count == 1:  # checked at parsing, before any solve
        raise argparse.ArgumentTypeError("must be 0 or at least 2, got %d" % count)
    return count


def _domain_from_args(args):
    if args.interval is not None:
        return symmetrize_domain(0, mpf(args.interval))
    if args.annulus is not None:
        return symmetrize_domain(mpf(args.annulus[0]), mpf(args.annulus[1]))
    if args.domain is not None:
        return parse_domain_spec(args.domain)
    raise ValueError("one of --interval, --annulus, --domain is required")


def _solve(args, ctx):
    """design_spectrum on the domain flags; --method both solves with secular."""
    method = "secular" if args.method == "both" else args.method
    return design_spectrum(args.band_limit, args.constraints, _domain_from_args(args),
                           ctx, seed=args.seed, method=method)


def _config_echo(args, ctx, domain=None):
    echo = {
        "command": args.command,
        "band_limit": args.band_limit,
        "constraints": args.constraints,
    }
    if domain is not None:  # a radius sweep's grid defines its domains
        echo["domain"] = [[ctx.to_decimal(lo), ctx.to_decimal(hi)]
                          for lo, hi in domain.intervals]
    echo.update(precision_digits=ctx.digits, method=args.method, seed=args.seed,
                format=args.format, samples=args.samples)
    return echo


def _series(signal, lo, hi, count, ctx):
    pts = sample(signal, lo, hi, count, ctx)
    with ctx.workprec():
        return {
            "t": [ctx.to_decimal(t) for t, _ in pts],
            "f": [ctx.to_decimal(v) for _, v in pts],
            "log10_abs_f": [
                ctx.to_decimal(mp.log10(abs(v))) if v != 0 else "-inf"
                for _, v in pts
            ],
        }


def _mode_entry(index, lam, signal, result, ctx):
    report = yield_of(signal, result.domain, result.delta, ctx)
    diag = result.spectrum.diagnostics
    with ctx.workprec():
        residual = max(
            abs(evaluate(signal, t, ctx) - v)
            for t, v in zip(result.frame.points, result.frame.values)
        )
    return {
        "index": index,
        "eigenvalue": ctx.to_decimal(lam),
        "coefficients": [ctx.to_decimal(c) for c in signal.coeffs],
        "yield_algebraic": ctx.to_decimal(report.algebraic),
        "yield_quadrature": ctx.to_decimal(report.quadrature),
        "crossings": zero_crossings(signal, result.domain),
        "stationarity_residual": ctx.to_decimal(
            diag["stationarity_residuals"][index - 1]),
        "secular_residual": ctx.to_decimal(diag["secular_residuals"][index - 1]),
        "constraint_residual": ctx.to_decimal(residual),
        "deflated": diag["deflated"][index - 1],
    }


def cmd_design(args, ctx):
    result = _solve(args, ctx)
    domain = result.domain
    lam = result.optimal_yield
    signal = result.optimal_signal
    samples = args.samples if args.samples > 0 else 1001
    return {
        "config": _config_echo(args, ctx, domain),
        "eigenvalue": ctx.to_decimal(lam),
        "mode": _mode_entry(len(result.spectrum), lam, signal, result, ctx),
        "constraint_points": [ctx.to_decimal(t) for t in result.frame.points],
        "constraint_values": [ctx.to_decimal(v) for v in result.frame.values],
        "series": {
            "full_period": _series(signal, -mp.pi, mp.pi, samples, ctx),
            "domain": _series(signal, domain.intervals[0][0],
                              domain.intervals[-1][1], samples, ctx),
        },
    }


def cmd_spectrum(args, ctx):
    result = _solve(args, ctx)
    domain = result.domain
    modes = [
        _mode_entry(i, lam, sig, result, ctx)
        for i, (lam, sig) in enumerate(
            zip(result.spectrum.eigenvalues, result.spectrum.signals), start=1)
    ]
    doc = {
        "config": _config_echo(args, ctx, domain),
        "count": len(result.spectrum),
        "eigenvalues": [ctx.to_decimal(v) for v in result.spectrum.eigenvalues],
        "modes": modes,
    }
    if args.method == "both":
        other = jacobi_spectrum(result.delta, result.frame, ctx)
        with ctx.workprec():
            deltas = [
                ctx.to_decimal(abs(a - b) / a)
                for a, b in zip(result.spectrum.eigenvalues, other.eigenvalues)
            ]
        doc["jacobi_eigenvalues"] = [
            ctx.to_decimal(v) for v in other.eigenvalues]
        doc["method_relative_deltas"] = deltas
    if args.samples > 0:
        doc["series"] = {
            str(i): _series(sig, domain.intervals[0][0],
                            domain.intervals[-1][1], args.samples, ctx)
            for i, sig in enumerate(result.spectrum.signals, start=1)
        }
    return doc


def cmd_baseline(args, ctx):
    result = _solve(args, ctx)
    fk = fk_min_energy_signal(result.frame, ctx)
    fk_report = yield_of(fk, result.domain, result.delta, ctx)
    with ctx.workprec():
        # the FK signal is (0, mu~) in the orthogonal frame: its energy is
        # ||mu~||^2, one value for both fields rather than two roundings of it
        fk_energy = (result.frame.mu_tilde.T * result.frame.mu_tilde)[0]
    modes = slepian_modes(result.delta, ctx)
    return {
        "config": _config_echo(args, ctx, result.domain),
        "fk_minimum_energy": {
            "coefficients": [ctx.to_decimal(c) for c in fk.coeffs],
            "energy": ctx.to_decimal(fk_energy),
            "mu_tilde_norm_sq": ctx.to_decimal(fk_energy),
            "yield_algebraic": ctx.to_decimal(fk_report.algebraic),
            "yield_quadrature": ctx.to_decimal(fk_report.quadrature),
        },
        "slepian": {
            "count": len(modes),
            "eigenvalues": [ctx.to_decimal(lam) for lam, _ in modes],
            "modes": [
                {"index": i,
                 "eigenvalue": ctx.to_decimal(lam),
                 "coefficients": [ctx.to_decimal(c) for c in sig.coeffs]}
                for i, (lam, sig) in enumerate(modes, start=1)
            ],
        },
        "spectrum_max_eigenvalue": ctx.to_decimal(result.optimal_yield),
    }


def cmd_sweep(args, ctx):
    if bool(args.a_values) == bool(args.m_values):
        raise ValueError("sweep needs exactly one of --a-values or --m-values")
    domain = None
    if args.a_values:
        radii = [mpf(s) for s in args.a_values.split(",")]
        table = scaling_sweep(args.band_limit, args.constraints, radii, ctx,
                              seed=args.seed)
        grid = {"kind": "interval_radius",
                "values": [ctx.to_decimal(a) for a in radii]}
    else:
        domain = _domain_from_args(args)
        if len(domain.intervals) != 1 or domain.intervals[0][0] != -domain.intervals[0][1]:
            raise ValueError("constraint-count sweep expects --interval A")
        ms = [int(s) for s in args.m_values.split(",")]
        table = monotonicity_table(args.band_limit, domain.intervals[0][1], ms,
                                   ctx, seed=args.seed)
        grid = {"kind": "constraint_count", "values": ms}
    rows = [
        {"key": ctx.to_decimal(r.key) if not isinstance(r.key, int) else r.key,
         "index": r.index,
         "eigenvalue": ctx.to_decimal(r.eigenvalue),
         "normalized": ctx.to_decimal(r.normalized)}
        for r in table.rows
    ]
    return {
        "config": _config_echo(args, ctx, domain),
        "grid": grid,
        "rows": rows,
        "slopes": {str(i): ctx.to_decimal(s) for i, s in sorted(table.slopes.items())},
        "errors": {str(k): v for k, v in table.errors.items()},
    }


def render_json(doc):
    return json.dumps(doc, indent=2) + "\n"


def render_csv(doc):
    """Main CSV table: one row per eigenvalue/sweep row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if "modes" in doc or "mode" in doc:
        writer.writerow(["index", "eigenvalue", "yield_quadrature", "crossings"])
        for mode in doc.get("modes", [doc.get("mode")]):
            writer.writerow([mode["index"], mode["eigenvalue"],
                             mode["yield_quadrature"], mode["crossings"]])
    elif "rows" in doc:
        writer.writerow(["key", "index", "eigenvalue", "normalized"])
        for row in doc["rows"]:
            writer.writerow([row["key"], row["index"], row["eigenvalue"],
                             row["normalized"]])
    elif "fk_minimum_energy" in doc:
        writer.writerow(["which", "index", "eigenvalue"])
        writer.writerow(["fk", 1, doc["fk_minimum_energy"]["yield_algebraic"]])
        for i, lam in enumerate(doc["slepian"]["eigenvalues"], start=1):
            writer.writerow(["slepian", i, lam])
    return buf.getvalue()


def write_output(doc, args):
    text = render_json(doc) if args.format == "json" else render_csv(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.format == "csv" and args.out and "series" in doc:
        base = args.out[:-4] if args.out.endswith(".csv") else args.out
        for key, series in doc["series"].items():
            path = "%s_series_%s.csv" % (base, key)
            with open(path, "w") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["t", "f", "log10_abs_f"])
                for row in zip(series["t"], series["f"], series["log10_abs_f"]):
                    writer.writerow(row)


def parse_document(text):
    """Inverse of render_json; numbers stay decimal strings (lossless)."""
    return json.loads(text)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # invalid arguments (2) or --help (0)
        return exc.code
    started = time.monotonic()
    try:
        ctx = Context(digits=args.precision)
        doc = args.handler(args, ctx)
        write_output(doc, args)
    except (ValueError, InfeasibleConstraints, RankDeficientConstraints) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except SolverFailure as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        if exc.diagnostics:
            print("diagnostics: " + json.dumps(
                exc.diagnostics, default=ctx.to_decimal,
                sort_keys=True), file=sys.stderr)
        return EXIT_SOLVER
    print("elapsed %.2fs" % (time.monotonic() - started), file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
