"""Tests of the benchmark itself: generator, gates, tracing and output.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from polyvsi import PolyphaseSystem, parse_grid_text, run_cpf, serialize_grid, validate_parameters
from polyvsi.continuation import CpfTrace
from polyvsi.powerflow import solve_power_flow

import spans
import synthfeeder
import workloads

from conftest import BENCH, ROOT

SMALL = 30  # lower-level nodes of the feeders traced here


def _edges(grid):
    return [(b.from_node, b.to_node) for b in grid.branches]


def test_same_seed_gives_identical_text():
    assert synthfeeder.feeder_text(7, SMALL) == synthfeeder.feeder_text(7, SMALL)


def test_different_seeds_give_different_trees():
    a = synthfeeder.build_feeder(7, SMALL)[0]
    b = synthfeeder.build_feeder(8, SMALL)[0]
    assert _edges(a) != _edges(b)
    assert synthfeeder.feeder_text(7, SMALL) != synthfeeder.feeder_text(8, SMALL)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_feeder_is_valid_round_trips_and_folds(seed):
    grid, slacks, resources = synthfeeder.build_feeder(seed, SMALL)
    text = serialize_grid(grid, slacks, resources)
    parsed = parse_grid_text(text)
    assert validate_parameters(parsed[0]) == []
    assert parsed == (grid, slacks, resources)
    assert serialize_grid(*parsed) == text

    trace = run_cpf(PolyphaseSystem(*parsed))
    assert trace.termination == "fold-detected"
    assert 1.5 < trace.xi_max < 3.0


def test_snapshot_feeder_converges_from_flat_start():
    workload = workloads.FeederSnapshot(seed=5, out_dir=".")
    grid, slacks, resources = parse_grid_text(workload.grid_text(0))
    assert len(grid.nodes) == workloads.SNAPSHOT_NODES + 2
    assert validate_parameters(grid) == []
    _, newton = solve_power_flow(PolyphaseSystem(grid, slacks, resources), xi=1.0)
    assert newton.converged


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("out"))


@pytest.fixture(scope="module")
def bundled(out_dir):
    workload = workloads.BundledCpf(0, out_dir)
    return workload, workload.pipeline(workload.grid_text(0), lambda s: s)[2]


@pytest.fixture(scope="module")
def feeder_cpf(out_dir):
    workload = workloads.FeederCpf(0, out_dir)
    return workload, workload.pipeline(workload.grid_text(0), lambda s: s)[2]


def _with_samples(result, samples, termination=None):
    system, trace, path = result
    return system, CpfTrace(samples=samples, termination=termination or trace.termination), path


def test_bundled_gate_accepts_the_reference_and_rejects_perturbations(bundled):
    workload, result = bundled
    assert workload.gate(result) == []
    samples = result[1].samples
    moved = samples[:-1] + [dataclasses.replace(samples[-1], xi=samples[-1].xi + 1e-5)]
    assert workload.gate(_with_samples(result, moved))
    assert workload.gate(_with_samples(result, samples[:-1]))
    swapped = samples[:-2] + [samples[-1], samples[-2]]
    assert workload.gate(_with_samples(result, swapped))
    flat = samples[:-1] + [dataclasses.replace(samples[-1], sv=samples[0].sv)]
    assert workload.gate(_with_samples(result, flat))


def test_feeder_cpf_gate_accepts_the_reference_and_rejects_perturbations(feeder_cpf):
    workload, result = feeder_cpf
    assert workload.gate(result) == []
    samples = result[1].samples
    assert workload.gate(_with_samples(result, samples, termination="step-limit"))
    moved = samples[:-1] + [dataclasses.replace(samples[-1], xi=samples[-1].xi + 1e-5)]
    assert workload.gate(_with_samples(result, moved))


def test_snapshot_gate_rejects_a_perturbed_operating_point(out_dir):
    workload = workloads.FeederSnapshot(seed=0, out_dir=out_dir)
    result = workload.pipeline(synthfeeder.feeder_text(3, SMALL), lambda s: s)[2]
    assert workload.gate(result) == []
    system, op, newton, index, path = result
    shifted = dataclasses.replace(op, e=op.e * 1.001)
    assert workload.gate((system, shifted, newton, index, path))
    beyond = dataclasses.replace(index, global_value=1.2)
    assert workload.gate((system, op, newton, beyond, path))


def test_traced_self_times_fit_in_the_traced_run(out_dir):
    inst = workloads.run_instance(workloads.BundledCpf(0, out_dir), 0, traced=True)
    assert inst.failures == []
    layer_s = {k: v for k, v in inst.layers.items() if k.endswith("_s") and not k.startswith("bench.")}
    assert all(v >= 0.0 for v in layer_s.values())
    assert sum(layer_s.values()) <= inst.run_s
    assert inst.layers["powerflow.svd_calls"] == inst.layers["continuation.samples"] == 50
    assert 0.0 < inst.layers["continuation.accept_ratio"] <= 1.0


def test_instrument_restores_the_library():
    def current():
        return [getattr(importlib.import_module(m), a) for m, a, _ in spans.MODULE_SPANS]

    before = current()
    with spans.instrument(spans.Tracer()):
        assert all(x is not y for x, y in zip(current(), before))
    assert all(x is y for x, y in zip(current(), before))


def _run(cwd, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "bundled-cpf",
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_output_lists_the_declared_metrics(trace, key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[key]}
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
