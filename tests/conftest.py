"""
Shared fixtures for the polyvsi test suite.

Provides:
  * session-scoped bundled benchmark system and its continuation trace,
    and the 252-state synthetic feeder system with its trace
  * synthfeeder / spans: the benchmark's seeded feeder generator and its
    layer tracer, loaded from perfbench/ without putting that directory on
    sys.path
  * an acceptance recorder whose lines are echoed in the terminal summary

The shared helpers (random_system, two_bus, fd_jacobian, ...) live in
polyvsi_cases.py.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from polyvsi.benchmark import build_benchmark
from polyvsi.continuation import run_cpf
from polyvsi.gridfile import parse_grid_text
from polyvsi.powerflow import PolyphaseSystem


@pytest.fixture(scope="session")
def bench_system():
    grid, slacks, resources = build_benchmark()
    return PolyphaseSystem(grid, slacks, resources)


@pytest.fixture(scope="session")
def bench_trace(bench_system):
    return run_cpf(bench_system)


@pytest.fixture(scope="session")
def feeder_trace(synthfeeder):
    system = PolyphaseSystem(*parse_grid_text(synthfeeder.feeder_text(0, 40)))
    assert 2 * system.n_unknown == 252
    return system, run_cpf(system)


def _perfbench_module(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def synthfeeder():
    return _perfbench_module("synthfeeder")


@pytest.fixture(scope="session")
def spans():
    return _perfbench_module("spans")


_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_report():
    def record(criterion, passed, detail):
        line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
        _ACCEPTANCE_LINES.append(line)
        print(line)
    return record


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
