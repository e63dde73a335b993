"""The benchmark's workloads, their correctness gates and the timing loop.

Every workload is a closed loop with one caller: one pipeline instance runs
to completion before the next starts.  An instance is what a user pays for
one command: parse the grid text and build the system (set-up), then either
trace to the fold and write the trace CSV (`polyvsi cpf --out`) or solve one
operating point, evaluate the index and write a voltage snapshot (`polyvsi
pf` then `polyvsi vsi`).  The harness calls the library only through module
attributes so that spans.instrument() can trace the same calls.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from polyvsi import benchmark, continuation, gridfile, powerflow, reporting, vsi
from polyvsi.errors import PolyvsiError

import spans
import synthfeeder

# Reference values the gates compare against.
BUNDLED_XI_MAX = 1.787102
BUNDLED_SAMPLES = 50
BUNDLED_CRITICAL = (25, 1)
FEEDER_CPF_SEED = 0
FEEDER_CPF_NODES = 40
FEEDER_CPF_XI_MAX = 1.915917  # recorded for FEEDER_CPF_SEED
SV_COLLAPSE = 1e-2  # final / base smallest singular value, acceptance 5 rule
SNAPSHOT_NODES = 300
SNAPSHOT_XI = 1.0
SNAPSHOT_EPS = 1e-8

TAIL_BEYOND = 10  # instances beyond the reported tail percentile

# On shared hosts speed drifts by 20-30 % over minutes (seen on a 2-vCPU
# cloud VM), more than the regression bounds allow.  Each instance is
# therefore bracketed by a fixed reference kernel that calls no polyvsi code,
# and end-to-end times are reported at the speed where the kernel takes REF_S.
REF_S = 0.01
_REF_MATRIX = np.random.default_rng(0).standard_normal((120, 120))


@dataclass
class Instance:
    """One timed pipeline run and what its gate found."""

    run_s: float
    setup_s: float
    failures: list
    size: dict = field(default_factory=dict)
    layers: dict | None = None
    ref_s: float = REF_S  # reference kernel time around this instance

    def scaled(self, seconds: float) -> float:
        """A time of this instance at the reference speed."""
        return seconds * REF_S / self.ref_s


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir

    def grid_text(self, index: int) -> str:
        """Input of instance `index`; index -1 is the warm-up."""
        raise NotImplementedError

    def pipeline(self, text: str, wrap_system):
        raise NotImplementedError

    def gate(self, result) -> list:
        raise NotImplementedError

    def size(self, result) -> dict:
        raise NotImplementedError


def _parse_and_build(text):
    grid, slacks, resources = gridfile.parse_grid_text(text)
    return powerflow.PolyphaseSystem(grid, slacks, resources)


class CpfWorkload(Workload):
    """Parse, build, trace to the fold with index and SVD recording, write CSV."""

    def pipeline(self, text, wrap_system):
        t0 = time.perf_counter()
        system = _parse_and_build(text)
        t1 = time.perf_counter()
        trace = continuation.run_cpf(wrap_system(system))
        path = os.path.join(self.out_dir, f"{self.name}-trace.csv")
        reporting.write_trace_csv(path, trace)
        t2 = time.perf_counter()
        return t2 - t0, t1 - t0, (system, trace, path)

    def size(self, result) -> dict:
        system, trace, path = result
        return {
            "nodes": len(system.grid.nodes),
            "states": 2 * system.n_unknown,
            "samples": len(trace.samples),
            "csv_bytes": os.path.getsize(path),
        }


def cpf_failures(trace) -> list:
    """Checks every trace must pass: fold reached, xi strictly increasing,
    and the smallest singular value collapsed (acceptance criterion 5)."""
    out = []
    if trace.termination != continuation.TERM_FOLD:
        out.append(f"termination {trace.termination!r}")
    xi = np.array([s.xi for s in trace.samples])
    if np.any(np.diff(xi) <= 0.0):
        out.append("xi not strictly increasing")
    base, final = trace.samples[0].sv, trace.final.sv
    if base is None or final is None or not final[0] / base[0] <= SV_COLLAPSE:
        out.append("smallest singular value did not collapse")
    return out


class BundledCpf(CpfWorkload):
    name = "bundled-cpf"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.text = benchmark.bundled_grid_text()

    def grid_text(self, index):
        return self.text

    def gate(self, result):
        _, trace, _ = result
        out = cpf_failures(trace)
        if round(trace.xi_max, 6) != BUNDLED_XI_MAX:
            out.append(f"xi_max {trace.xi_max!r} != {BUNDLED_XI_MAX}")
        if len(trace.samples) != BUNDLED_SAMPLES:
            out.append(f"{len(trace.samples)} samples != {BUNDLED_SAMPLES}")
        if trace.final.vsi is None or trace.final.vsi.critical != BUNDLED_CRITICAL:
            out.append("critical pair differs from (25, 1)")
        return out


class FeederCpf(CpfWorkload):
    """The same synthetic feeder every instance and every seed, so that its
    xi_max can be checked against the recorded value and run times compare
    across seeds."""

    name = "feeder-cpf"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.text = synthfeeder.feeder_text(FEEDER_CPF_SEED, FEEDER_CPF_NODES)

    def grid_text(self, index):
        return self.text

    def gate(self, result):
        _, trace, _ = result
        out = cpf_failures(trace)
        if round(trace.xi_max, 6) != FEEDER_CPF_XI_MAX:
            out.append(f"xi_max {trace.xi_max!r} != {FEEDER_CPF_XI_MAX}")
        return out


class FeederSnapshot(Workload):
    """A stream of distinct feeders drawn from the run seed: parse, build,
    power flow at xi = 1 from flat start, index, voltage snapshot CSV."""

    name = "feeder-snapshot"

    def grid_text(self, index):
        # Feeder seeds of different run seeds never collide.
        return synthfeeder.feeder_text(self.seed * 1_000_003 + index + 1, SNAPSHOT_NODES)

    def pipeline(self, text, wrap_system):
        t0 = time.perf_counter()
        system = _parse_and_build(text)
        t1 = time.perf_counter()
        op, newton = powerflow.solve_power_flow(wrap_system(system), xi=SNAPSHOT_XI, eps=SNAPSHOT_EPS)
        index = vsi.evaluate_vsi(system.hybrid, system.slacks, system.resources_at(SNAPSHOT_XI), op)
        path = os.path.join(self.out_dir, f"{self.name}-voltages.csv")
        reporting.write_snapshot_csv(path, op)
        t2 = time.perf_counter()
        return t2 - t0, t1 - t0, (system, op, newton, index, path)

    def gate(self, result):
        system, op, newton, index, _ = result
        out = []
        worst = powerflow.mismatch(system, op).norm_inf
        if not (newton.converged and worst <= SNAPSHOT_EPS * system.s_base):
            out.append(f"mismatch {worst:.3e} VA above {SNAPSHOT_EPS * system.s_base:.3e}")
        if not 0.0 < index.global_value < 1.0:
            out.append(f"L_global {index.global_value!r} outside (0, 1)")
        return out

    def size(self, result):
        system, _, newton, _, path = result
        return {
            "nodes": len(system.grid.nodes),
            "states": 2 * system.n_unknown,
            "newton_iters": newton.iterations,
            "csv_bytes": os.path.getsize(path),
        }


WORKLOADS = {w.name: w for w in (BundledCpf, FeederCpf, FeederSnapshot)}


def run_instance(workload: Workload, index: int, traced: bool) -> Instance:
    """Run and gate one instance; library errors count as a failed instance."""
    text = workload.grid_text(index)
    tracer = spans.Tracer() if traced else None
    try:
        if tracer is None:
            run_s, setup_s, result = workload.pipeline(text, lambda s: s)
        else:
            with spans.instrument(tracer):
                run_s, setup_s, result = tracer.call(
                    spans.ROOT, workload.pipeline, text, tracer.system)
    except PolyvsiError as exc:
        return Instance(float("nan"), float("nan"), [f"{type(exc).__name__}: {exc}"])
    inst = Instance(run_s, setup_s, workload.gate(result), workload.size(result))
    if tracer is not None:
        inst.layers = layer_metrics(tracer.spans, inst.size)
    return inst


def layer_metrics(trace_spans, size: dict) -> dict:
    """Per-layer metrics of one traced instance (see BENCHMARK.json)."""
    t = spans.layer_totals(trace_spans)
    zero = {"calls": 0, "self_s": 0.0, "iterations": 0, "failures": 0}

    def get(name):
        return t.get(name, zero)

    corrector = get(spans.CORRECTOR)
    accepted = size.get("samples", 1) - 1
    return {
        "gridfile.parse_s": get("gridfile.parse")["self_s"],
        "grid.assemble_s": get("grid.assemble")["self_s"],
        "grid.kron_s": get("grid.kron")["self_s"],
        "grid.hybrid_s": get("grid.hybrid")["self_s"],
        "powerflow.build_self_s": get("powerflow.build")["self_s"],
        "vsi.augment_s": get("vsi.augment")["self_s"],
        "vsi.index_s": get("vsi.index")["self_s"],
        "vsi.index_calls": get("vsi.index")["calls"],
        "vsi.coeff_s": get("vsi.coeff")["self_s"],
        "nodes.zip_calls": get("nodes.zip")["calls"],
        "powerflow.residual_s": get("powerflow.residual")["self_s"],
        "powerflow.residual_calls": get("powerflow.residual")["calls"],
        "powerflow.jacobian_s": get("powerflow.jacobian")["self_s"],
        "powerflow.jacobian_calls": get("powerflow.jacobian")["calls"],
        "powerflow.jacobian_xi_s": get("powerflow.jacobian_xi")["self_s"],
        "powerflow.svd_s": get("powerflow.svd")["self_s"],
        "powerflow.svd_calls": get("powerflow.svd")["calls"],
        "powerflow.hooks_self_s": get("powerflow.vsi_at")["self_s"] + get("powerflow.svd_at")["self_s"],
        "powerflow.newton_self_s": get(spans.NEWTON)["self_s"],
        "powerflow.newton_iters": get(spans.NEWTON)["iterations"],
        "powerflow.states": size["states"],
        "continuation.tangent_self_s": get("continuation.tangent")["self_s"],
        "continuation.corrector_self_s": corrector["self_s"],
        "continuation.corrector_iters": get(spans.CORRECTOR + ".newton")["iterations"],
        "continuation.corrector_failures": corrector["failures"],
        "continuation.samples": size.get("samples", 0),
        "continuation.accept_ratio": accepted / corrector["calls"] if corrector["calls"] else 0.0,
        "reporting.csv_s": get("reporting.csv")["self_s"],
        "reporting.csv_bytes": size["csv_bytes"],
        "bench.unattributed_s": get(spans.ROOT)["self_s"],
    }


def tail(values) -> tuple:
    """Highest percentile with TAIL_BEYOND values above it: (value, percentile)."""
    v = sorted(values)
    k = max(len(v) - TAIL_BEYOND - 1, 0)
    return v[k], 100.0 * (k + 1) / len(v)


def reference_s() -> float:
    """Wall time of a fixed kernel mixing LAPACK calls and interpreted
    float arithmetic (no allocation of tracked objects, so no GC work)."""
    t0 = time.perf_counter()
    for _ in range(3):
        np.linalg.svd(_REF_MATRIX)
        np.linalg.solve(_REF_MATRIX, _REF_MATRIX)
    x = 0.0
    for i in range(60000):
        x = x * 0.5 + i
    return time.perf_counter() - t0


def measure(workload: Workload, seconds: float, traced: bool) -> list:
    """Warm up once, then run instances until `seconds` have passed.

    With traced=True instances alternate untraced and traced, so both the
    per-layer numbers and the tracing overhead come from the same run.
    """
    run_instance(workload, -1, traced=False)
    out = []
    ref_before = reference_s()
    deadline = time.perf_counter() + seconds
    while len(out) < 1 + traced or time.perf_counter() < deadline:
        inst = run_instance(workload, len(out), traced=traced and len(out) % 2 == 1)
        ref_after = reference_s()
        inst.ref_s = (ref_before + ref_after) / 2.0
        ref_before = ref_after
        out.append(inst)
    return out


def median(values) -> float:
    return float(statistics.median(values))


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"
