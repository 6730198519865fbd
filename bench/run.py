"""superosc benchmark: closed-loop workloads over the public API.

Usage, from the root of a checkout:

    python3 bench/run.py --workload solve_matrix --seed 1 --seconds 10 --trace 0

One client runs one operation at a time, in one process and thread, through
full passes over the workload's operation list until the operations have
taken --seconds in total, or until a pass in which every operation failed.
The seed is the completion seed handed to the package (``seed=`` /
``--seed``).  Every output is checked against the stated problem
(workloads.py, reference.py).

Workloads (see BENCHMARK.json for why each is there):
    solve_matrix     design_spectrum on the 14 accepted cells of the ROADMAP
                     matrix (matrix.json lists the 10 refused ones)
    spectrum_report  superosc spectrum -n 10 -m 9 --annulus 0.5 1 --precision 100
    fast_cli         superosc design, baseline and two sweeps

--trace 0 prints the end-to-end metrics:
    setup_s      median time of a fresh interpreter that imports superosc
                 and makes its first design_spectrum call (two probes after
                 every pass, at least five)
    ops_per_s    operations completed per second of operation time
    op_p50_s     median seconds per completed operation (Harrell-Davis
                 estimate, see median())
    peak_rss_mb  peak resident memory of the benchmark process over its first
                 pass (later passes add a few MB of cached state, and how
                 many passes fit in a run depends on the host's speed)
The three times are wall times rescaled to the reference speed of a
calibration loop (see Speed): the host's cores are shared, and their speed
drifts by tens of percent over minutes, more than the bounds allow.  The
report line carries them unscaled too, under "wall"; its op_seconds are
unscaled wall times.
--trace 1 alternates traced and untraced passes (traced first) and prints
the per-layer metrics, each per traced pass: self time of every layer,
counts recorded at the layer boundaries, calls per wrapped function, and the
tracing overhead (traced minus untraced pass wall time).

The line before the last is a report: failure and wrong-output fractions,
the tail percentile, the problems found, warnings counted and run metadata.
The last line is the result object.  Exit code 2 when the package source
is missing.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Set-up probes: PROBES_PER_PASS after every pass, so that they sample the
# machine over the whole run, at least SETUP_PROBES and at most MAX_PROBES.
SETUP_PROBES = 5
PROBES_PER_PASS = 2
MAX_PROBES = 9
SETUP_CODE = ("import superosc as so\n"
              "so.design_spectrum(10, 5, so.symmetrize_domain(0, '1'), so.Context(30), seed=%d)\n")
# Interpreter-bound loop that samples the speed of the machine, and its
# median wall time on the reference machine (2 shared cores of a 2.1 GHz
# Xeon, CPython 3.11).
CALIBRATION_LOOP = 300000
CALIBRATION_S = 0.038
# Calibration time as a share of the timed time, so that the samples
# follow the host's speed over the whole run; the fewest loops after a call,
# since one loop alone strays by 10%; and calibration before the first call.
CALIBRATION_SHARE = 0.2
CALIBRATION_MIN_LOOPS = 3
CALIBRATION_START_S = 1.0
# Least share of an operation's traced wall time the layer spans must cover.
MIN_COVERAGE = 0.99
COUNTS = ("solver.eigenvalues", "solver.precision_warnings", "analysis.yield_calls",
          "analysis.grid_points", "signals.samples", "cli.doc_bytes")


def calibrate():
    """Wall time of CALIBRATION_LOOP steps of an interpreter-bound loop."""
    start = time.perf_counter()
    s = 0
    for i in range(CALIBRATION_LOOP):
        s += i * i % 7
    return time.perf_counter() - start


class Speed:
    """Rescales wall times to the reference speed of the calibration loop.

    Tenants sharing the host slow its cores by 10-50% for seconds to
    minutes at a time, process CPU time included.  After every timed call
    the calibration loop runs for CALIBRATION_SHARE of the call's time, and
    the call's time is scaled by CALIBRATION_S over the median loop time
    just before and just after it.  Over ten seeds on each workload, on 2
    shared cores of a 2.1 GHz Xeon, this cut the spread (interquartile range
    over median) of ops_per_s and op_p50_s between runs from 0.06-0.16 to
    0.03-0.09.
    """

    def __init__(self):
        self.loops = []
        self.recent = self._sample(CALIBRATION_START_S)

    def _sample(self, seconds):
        count = max(CALIBRATION_MIN_LOOPS, math.ceil(seconds / CALIBRATION_S))
        loops = [calibrate() for _ in range(count)]
        self.loops += loops
        return loops

    def scale(self, seconds):
        """`seconds` of wall time just measured, at the reference speed."""
        before, self.recent = self.recent, self._sample(CALIBRATION_SHARE * seconds)
        return seconds * CALIBRATION_S / statistics.median(before + self.recent)


class Stats:
    """Outcome of every operation a run attempted."""

    def __init__(self):
        self.durations = []   # every attempted operation, seconds
        self.scaled = []      # the same at reference speed (see Speed)
        self.scaled_completed = []
        self.completed = []   # operations that returned
        self.by_op = {}       # operation name -> seconds of each completed run
        self.failed = 0
        self.wrong = 0
        self.problems = []
        self.precision_warnings = 0


def run_op(op, stats, precision_warning, tracer=None, speed=None):
    """Time one operation, then check its output outside the timed region."""
    err = io.StringIO()
    output = error = None
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        span = tracer.span(spans.OP_SPAN) if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span:
                output = op.run()
        except Exception as exc:  # a refused operation is counted, not fatal
            error = exc
        elapsed = time.perf_counter() - start
    scaled = speed.scale(elapsed) if speed else elapsed
    for w in caught:
        if issubclass(w.category, precision_warning):
            stats.precision_warnings += 1
            if tracer:
                tracer.counts["solver.precision_warnings"] += 1
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    stats.durations.append(elapsed)
    stats.scaled.append(scaled)
    if error is not None:
        stats.failed += 1
        stats.problems.append("%s raised %s: %s %s" % (op.name, type(error).__name__,
                                                       error, err.getvalue().strip()))
        return elapsed
    stats.completed.append(elapsed)
    stats.scaled_completed.append(scaled)
    stats.by_op.setdefault(op.name, []).append(elapsed)
    try:
        problems = op.check(output)
    except Exception as exc:  # an output the check cannot read is wrong
        problems = ["%s: check raised %s: %s" % (op.name, type(exc).__name__, exc)]
    if problems:
        stats.wrong += 1
        stats.problems.extend(problems)
    return elapsed


def run_pass(ops, stats, precision_warning, tracer=None, speed=None):
    return sum(run_op(op, stats, precision_warning, tracer, speed) for op in ops)


def probe_setup(seed, times, scaled, count, problems, speed):
    """Time fresh interpreters doing import + first design_spectrum, until
    `times` holds `count` probes (MAX_PROBES at most); `scaled` gets their
    times at reference speed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    while len(times) < min(count, MAX_PROBES):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-W", "ignore", "-c", SETUP_CODE % seed],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        scaled.append(speed.scale(times[-1]))
        if done.returncode != 0:
            problems.append("set-up probe failed: %s" % done.stderr.strip()[-300:])


def median(samples):
    """Harrell-Davis estimate of the median (Biometrika 69, 1982).

    A weighted mean of all order statistics: the operation lists mix cells
    of very different cost, and their middle one or two samples sit in the
    gap between two clusters, where the plain median jumps from run to run.
    The Beta((n+1)/2, (n+1)/2) weights are taken in their normal
    approximation, which stays cheap and finite for any sample count.
    """
    x = sorted(samples)
    n = len(x)
    weight = statistics.NormalDist(0.5, 0.5 / (n + 2) ** 0.5).cdf
    w = [weight((i + 1) / n) - weight(i / n) for i in range(n)]
    return sum(wi * v for wi, v in zip(w, x)) / sum(w)


def tail(samples):
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value_s": sorted(samples)[n - 11],
            "samples": n}


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def metadata(superosc):
    import mpmath
    return {
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "api_size": len(superosc.__all__),
    }


def layer_metrics(tracer, traced_wall, plain_wall):
    """Per-layer metrics per traced pass, the layer shares, and the least
    share of an operation's wall time that layer spans cover."""
    passes = len(traced_wall)
    by_name, roots = tracer.self_times()
    layer_of = spans.layer_of()
    values = {layer + "_s": 0.0 for layer in spans.LAYERS}
    values["trace.unattributed_s"] = by_name.pop(spans.OP_SPAN, 0.0)
    for name, seconds in by_name.items():
        values[layer_of[name] + "_s"] += seconds
    metrics = {name: (v / passes, "s") for name, v in values.items()}
    for name in COUNTS:
        metrics[name] = (tracer.counts[name] / passes, "count")
    for fn in spans.wrapped_functions():
        metrics["calls." + fn] = (tracer.counts["calls." + fn] / passes, "count")
    traced, plain = statistics.mean(traced_wall), statistics.mean(plain_wall)
    coverage = min(1 - own / total for total, own in roots)
    metrics.update({
        "trace.wall_s": (traced, "s"),
        "trace.untraced_wall_s": (plain, "s"),
        "trace.overhead_s": (traced - plain, "s"),
        "trace.overhead_frac": ((traced - plain) / plain, "ratio"),
        "trace.coverage": (coverage, "ratio"),
        "trace.spans": (len(tracer.spans) / passes, "count"),
    })
    shares = {name: v / (traced * passes) for name, v in values.items() if v}
    return metrics, shares, coverage


def main(argv=None):
    parser = argparse.ArgumentParser(description="superosc benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "superosc" / "__init__.py").is_file():
        print("error: no superosc package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import superosc
    if Path(superosc.__file__).resolve().parent != SRC / "superosc":
        print("error: imported superosc from %s" % superosc.__file__, file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error("--workload must be one of %s" % ", ".join(workloads.WORKLOADS))

    stats = Stats()
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "metadata": metadata(superosc)}
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".out-") as outdir:
        ops = workloads.WORKLOADS[args.workload](args.seed, outdir)
        if args.trace:
            tracer = spans.Tracer()
            traced_wall, plain_wall = [], []
            while True:
                failed = stats.failed
                with tracer.installed():
                    traced_wall.append(run_pass(ops, stats, superosc.PrecisionWarning, tracer))
                plain_wall.append(run_pass(ops, stats, superosc.PrecisionWarning))
                if (stats.failed - failed == 2 * len(ops)
                        or sum(traced_wall) + sum(plain_wall) >= args.seconds):
                    break
            metrics, shares, coverage = layer_metrics(tracer, traced_wall, plain_wall)
            if coverage < MIN_COVERAGE:
                stats.problems.append("layer spans cover only %.4f of an operation" % coverage)
            refused = workloads.refused_cells(args.seed)
            metrics["matrix.refused_cells"] = (len(refused), "count")
            report.update(passes=len(traced_wall) + len(plain_wall), shares=shares,
                          missing_attributes=tracer.missing, refused_cells=refused)
        else:
            passes = 0
            setup_times, setup_scaled = [], []
            speed = Speed()
            while True:
                failed = stats.failed
                run_pass(ops, stats, superosc.PrecisionWarning, speed=speed)
                passes += 1
                if passes == 1:
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                probe_setup(args.seed, setup_times, setup_scaled,
                            len(setup_times) + PROBES_PER_PASS, stats.problems, speed)
                if stats.failed - failed == len(ops) or sum(stats.durations) >= args.seconds:
                    break
            probe_setup(args.seed, setup_times, setup_scaled, SETUP_PROBES, stats.problems,
                        speed)
            metrics = {
                "setup_s": (statistics.median(setup_scaled), "s"),
                "ops_per_s": (len(stats.completed) / sum(stats.scaled), "1/s"),
                # With nothing completed, failed operations stand in: a
                # refused request misses any latency target.
                "op_p50_s": (median(stats.scaled_completed or stats.scaled), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            wall = {
                "setup_s": statistics.median(setup_times),
                "ops_per_s": len(stats.completed) / sum(stats.durations),
                "op_p50_s": median(stats.completed or stats.durations),
                "calibration_s": statistics.median(speed.loops),
                "calibration_loops": len(speed.loops),
            }
            report.update(passes=passes, op_tail=tail(stats.scaled_completed),
                          setup_probes=setup_scaled, wall=wall)

    attempted = len(stats.durations)
    report.update(
        operations=len(ops),
        failed_frac=stats.failed / attempted,
        wrong_frac=stats.wrong / max(1, len(stats.completed)),
        precision_warnings=stats.precision_warnings,
        op_seconds=stats.by_op,
        problems=stats.problems[:20],
    )
    if args.workload == "solve_matrix":
        report["excluded_cells"] = workloads.MATRIX["excluded"]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not stats.problems,
        "attempted": attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
