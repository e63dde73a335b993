"""In-memory spans recorded around the library's layer boundaries.

The library itself carries no instrumentation, so the benchmark wraps public
functions at the module attribute their caller looks up at call time (for
example `polyvsi.powerflow.build_augmented`, which PolyphaseSystem calls) and
hands run_cpf a copy of the system whose methods are wrapped.  Wrappers are
installed only inside `instrument()` and removed on exit, so untraced runs
execute the unmodified library.

Spans nest strictly (one thread, one closed-loop caller), so a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import copy
import importlib
import time
from dataclasses import dataclass

from polyvsi.errors import NonConvergence, SingularJacobian

ROOT = "instance"
CORRECTOR = "continuation.corrector"
NEWTON = "powerflow.newton"

# (module, attribute, span name): every place a layer is entered from outside.
MODULE_SPANS = (
    ("polyvsi.gridfile", "parse_grid_text", "gridfile.parse"),
    ("polyvsi.powerflow", "PolyphaseSystem", "powerflow.build"),
    ("polyvsi.powerflow", "build_augmented", "vsi.augment"),
    ("polyvsi.vsi", "assemble_admittance", "grid.assemble"),
    ("polyvsi.vsi", "kron_reduce", "grid.kron"),
    ("polyvsi.vsi", "hybrid_partition", "grid.hybrid"),
    ("polyvsi.powerflow", "evaluate_vsi", "vsi.index"),
    ("polyvsi.vsi", "evaluate_vsi", "vsi.index"),
    ("polyvsi.vsi", "vsi_coefficients", "vsi.coeff"),
    ("polyvsi.vsi", "pm_zip_at", "nodes.zip"),
    ("polyvsi.powerflow", "jacobian_svd", "powerflow.svd"),
    ("polyvsi.powerflow", "newton_solve", NEWTON),
    ("polyvsi.continuation", "newton_solve", NEWTON),
    ("polyvsi.continuation", "tangent_direction", "continuation.tangent"),
    ("polyvsi.continuation", "arclength_correct", CORRECTOR),
    ("polyvsi.reporting", "write_trace_csv", "reporting.csv"),
    ("polyvsi.reporting", "write_snapshot_csv", "reporting.csv"),
)

# PolyphaseSystem methods the continuation engine and the hooks call.
SYSTEM_SPANS = (
    ("residual", "powerflow.residual"),
    ("jacobian_x", "powerflow.jacobian"),
    ("jacobian_xi", "powerflow.jacobian_xi"),
    ("vsi_at", "powerflow.vsi_at"),
    ("svd_at", "powerflow.svd_at"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    child_s: float = 0.0
    iterations: int = 0  # Newton iterations, on NEWTON spans only
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Collects the spans of one pipeline instance."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._open.append(index)
        try:
            out = fn(*args, **kwargs)
        except NonConvergence as exc:
            span.failed = True
            span.iterations = max(len(exc.residuals or ()) - 1, 0)
            raise
        except SingularJacobian:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if parent >= 0:
                self.spans[parent].child_s += span.duration
        if name == NEWTON:
            span.iterations = out.iterations
        return out

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def system(self, system):
        """Shallow copy of a PolyphaseSystem whose solver methods record spans.

        The wrapped methods are bound to the copy, so the system's calls to
        its own methods (svd_at calling jacobian_x) are recorded as well.
        """
        proxy = copy.copy(system)
        for attr, name in SYSTEM_SPANS:
            setattr(proxy, attr, self.wrap(name, getattr(proxy, attr)))
        return proxy


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers at MODULE_SPANS for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name in MODULE_SPANS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_totals(spans) -> dict:
    """Per span name: calls, summed self time, Newton iterations, failures.

    Newton spans opened by a corrector are also totalled under
    CORRECTOR + ".newton" so corrector iterations can be told apart from the
    base-case and fixed-loading solves.
    """
    totals: dict = {}

    def add(key, span):
        t = totals.setdefault(key, {"calls": 0, "self_s": 0.0, "iterations": 0, "failures": 0})
        t["calls"] += 1
        t["self_s"] += span.self_s
        t["iterations"] += span.iterations
        t["failures"] += int(span.failed)

    for span in spans:
        add(span.name, span)
        if span.name == NEWTON and span.parent >= 0 and spans[span.parent].name == CORRECTOR:
            add(CORRECTOR + ".newton", span)
    return totals
