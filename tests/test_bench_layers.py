"""The benchmark's traced layers wrap attributes that exist in the package.

bench/spans.py times each layer by wrapping a function at the module
attribute where callers look it up.  A refactor that moves or renames one
of them leaves its time in trace.unattributed_s without any error, so every
(module, attribute) pair of its LAYERS table is checked here.  The file is
loaded by path and only read: nothing is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# the solver.rotate layer still names the rotate-and-partition step, whose
# work moved into the bordered solve; it goes at the benchmark's next change
STALE = {("superosc.design", "rotate_and_partition")}


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


def test_every_traced_attribute_exists():
    targets = {(module, attr) for entries in load_layers().values()
               for module, attr, _ in entries}
    assert targets >= {("superosc.design", "secular_spectrum"),
                       ("superosc.cli", "slepian_modes"),
                       ("superosc.cli", "fk_min_energy_signal")}
    missing = sorted((module, attr) for module, attr in targets - STALE
                     if not hasattr(importlib.import_module(module), attr))
    assert missing == []
