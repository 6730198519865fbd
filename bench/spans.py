"""In-memory spans and counts recorded around calls into superosc's layers.

The benchmark wraps public functions at the module attributes where callers
look them up (``superosc.design.secular_spectrum``, ``superosc.cli.yield_of``,
...), so no file of the package changes.  Each span records name, start,
end and parent; a span's self time is its duration minus the durations of
its direct children (calls are single-threaded and properly nested).
"""

import functools
import importlib
import math
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _grid_points(args, kwargs):
    grid = _arg(args, kwargs, 2, "grid_points")
    if grid is None:  # the package's default density over the domain
        analysis = importlib.import_module("superosc.analysis")
        measure = _arg(args, kwargs, 1, "domain").measure
        grid = max(1000, math.ceil(analysis.GRID_DENSITY * float(measure)))
    return int(grid)


def _doc_bytes(args, kwargs):
    out = _arg(args, kwargs, 1, "args").out
    return os.path.getsize(out) if out else 0


# layer -> [(module, attribute, counter or None)]; a counter maps a call's
# (args, kwargs, result) to (count name, amount).
LAYERS = {
    "design.pipeline": [
        ("superosc", "design_spectrum", None),
        ("superosc.cli", "design_spectrum", None),
        ("superosc.analysis", "design_spectrum", None),
    ],
    "constraints.frame": [
        ("superosc.design", "alternating_constraints", None),
        ("superosc.design", "constraint_matrix", None),
        ("superosc.design", "orthonormal_frame", None),
    ],
    "domains.overlap": [
        ("superosc.design", "overlap_matrix", None),
        ("superosc.analysis", "overlap_matrix", None),
    ],
    "solver.rotate": [("superosc.design", "rotate_and_partition", None)],
    "solver.spectrum": [
        ("superosc.design", "secular_spectrum",
         lambda a, k, r: ("solver.eigenvalues", len(r.eigenvalues))),
    ],
    "solver.baseline": [
        ("superosc.cli", "fk_min_energy_signal", None),
        ("superosc.cli", "slepian_modes", None),
    ],
    "analysis.yield": [
        ("superosc.cli", "yield_of", lambda a, k, r: ("analysis.yield_calls", 1)),
    ],
    "analysis.crossings": [
        ("superosc.cli", "zero_crossings",
         lambda a, k, r: ("analysis.grid_points", _grid_points(a, k))),
    ],
    "analysis.sweep": [
        ("superosc.cli", "scaling_sweep", None),
        ("superosc.cli", "monotonicity_table", None),
    ],
    "signals.sample": [
        ("superosc.cli", "sample",
         lambda a, k, r: ("signals.samples", int(_arg(a, k, 3, "count")))),
    ],
    "signals.evaluate": [("superosc.cli", "evaluate", None)],
    "cli.render": [
        ("superosc.cli", "render_json", None),
        ("superosc.cli", "write_output", lambda a, k, r: ("cli.doc_bytes", _doc_bytes(a, k))),
    ],
    "cli.command": [
        ("superosc.cli", "main", None),
        ("superosc.cli", "cmd_design", None),
        ("superosc.cli", "cmd_spectrum", None),
        ("superosc.cli", "cmd_baseline", None),
        ("superosc.cli", "cmd_sweep", None),
    ],
}

# Name of the root span of one benchmark operation; its self time is the
# part of the operation no layer accounts for.
OP_SPAN = "op"


def wrapped_functions():
    return sorted({attr for targets in LAYERS.values() for _, attr, _ in targets})


class Tracer:
    """Spans ``[name, start, end, parent]`` and counts, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []

    @contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), None,
                  self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts["calls." + name] += 1
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                key, amount = counter(args, kwargs, result)
                self.counts[key] += amount
            return result
        return traced

    @contextmanager
    def installed(self):
        """Patch every layer function for the duration of the block.

        Attributes a later version of the package no longer has are skipped
        and listed in ``self.missing``; their time shows up in the caller.
        """
        saved = []
        self.missing = []
        try:
            for targets in LAYERS.values():
                for module_name, attr, counter in targets:
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr, None)
                    if fn is None:
                        self.missing.append("%s.%s" % (module_name, attr))
                        continue
                    saved.append((module, attr, fn))
                    setattr(module, attr, self.wrap(attr, fn, counter))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self):
        """Self time per span name, and (duration, self time) of each root."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        by_name = defaultdict(float)
        roots = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            own = end - start - child[i]
            by_name[name] += own
            if parent is None:
                roots.append((end - start, own))
        return by_name, roots


def layer_of():
    """Function name -> layer name."""
    return {attr: layer for layer, targets in LAYERS.items() for _, attr, _ in targets}
