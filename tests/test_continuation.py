"""
Arclength continuation: predictor, corrector, fold bracketing.

Proves:
 Group 1 - Pieces on a scalar path f = x - xi
   1.  Tangent is (1, 1)/sqrt(2); a sigma step along it lands on the path
   2.  On-path prediction is a corrector fixed point (0 iterations)
   3.  Off-path prediction is pulled back onto path x = xi and the sphere
   3a. A singular or non-finite state Jacobian, dense or sparse, makes the
       tangent raise SingularJacobian

 Group 2 - Trajectory handling
   4.  PolyphaseSystem.resources_at scales loads by xi and pins
       compensators at 1
   5.  Negative xi raises ValueError
   6.  Missing flat_start without x0 raises ValueError
   6a. A load's own lam multiplies xi: the two-bus load at lam 0.5, read
       from a grid file, folds at the closed form 2 / lam = 4
   6b. run_cpf packs the resources into a ZipTable only at system build

 Group 3 - Termination taxonomy
   7.  Flat (load-free) path hits the step budget: step-limit, xi steps
       by exactly sigma; strict mode raises with the partial trace
   8.  Analytic parabola x^2 + xi - 2 folds at xi = 2: fold-detected
   9.  Residual wall (NaN past xi = 1) exhausts halvings: corrector-failure
  10.  Infeasible base case raises BaseCaseDiverged

 Group 4 - Two-bus fold (closed form xi_max = 2)
  11.  xi_max within 1e-3 of 2, never above; termination fold-detected
  12.  Index at the last sample is ~ 1 (tangency certificate)
  13.  Consecutive samples sit on spheres of radius sigma0 / 2^m
  14.  Every sample satisfies the power-flow residual (manifold adherence)
  15.  xi increases strictly; xi_max/final agree with the sample list
  16.  Recording switches drop vsi / sv payloads; xi_start moves the base
  17.  Config validation rejects non-positive budgets

 Group 5 - Empty trace
  18.  xi_max / final on an empty trace raise ValueError

 Group 6 - Sparse path
  19.  The bundled trace with the sparse path forced keeps 50 samples,
       xi_max 1.787102 and critical pair (25, 1), and its states agree
       with the dense trace to 1e-9
"""

import numpy as np
import pytest
from scipy.sparse import csc_array

from conftest import two_bus
from polyvsi import powerflow
from polyvsi.continuation import (
    TERM_CORRECTOR,
    TERM_FOLD,
    TERM_STEP_LIMIT,
    CpfConfig,
    CpfTrace,
    arclength_correct,
    run_cpf,
    tangent_direction,
)
from polyvsi.errors import BaseCaseDiverged, SingularJacobian, StepLimitReached
from polyvsi.gridfile import parse_grid_text, serialize_grid
from polyvsi.nodes import ZipTable
from polyvsi.powerflow import PolyphaseSystem


class _ScalarPath:
    """f(x, xi) = x - xi; the path is the diagonal, never folding."""

    def residual(self, x, xi):
        return np.array([x[0] - xi])

    def jacobian_x(self, x, xi):
        return np.array([[1.0]])

    def jacobian_xi(self, x, xi):
        return np.array([-1.0])


class _Parabola:
    """f(x, xi) = x^2 + xi - 2; upper branch x = sqrt(2 - xi), fold at 2."""

    def residual(self, x, xi):
        return np.array([x[0] ** 2 + xi - 2.0])

    def jacobian_x(self, x, xi):
        return np.array([[2.0 * x[0]]])

    def jacobian_xi(self, x, xi):
        return np.array([1.0])


class _Wall:
    """Solvable only for xi <= 1; anything beyond returns NaN residuals."""

    def residual(self, x, xi):
        if xi <= 1.0:
            return np.array([x[0]])
        return np.array([np.nan])

    def jacobian_x(self, x, xi):
        return np.array([[1.0]])

    def jacobian_xi(self, x, xi):
        return np.array([0.0])


# -- Group 1 ---------------------------------------------------------------


def test_tangent_and_predict_scalar():
    prob = _ScalarPath()
    x = np.array([1.0])
    t_x, t_xi = tangent_direction(prob, x, 1.0)
    assert t_x[0] == pytest.approx(1.0 / np.sqrt(2.0))
    assert t_xi == pytest.approx(1.0 / np.sqrt(2.0))
    xp, xip = x + 0.3 * t_x, 1.0 + 0.3 * t_xi
    assert xp[0] == pytest.approx(1.0 + 0.3 / np.sqrt(2.0))
    assert xip == pytest.approx(1.0 + 0.3 / np.sqrt(2.0))


def test_corrector_fixed_point():
    prob = _ScalarPath()
    anchor = (np.array([1.0]), 1.0)
    t_x, t_xi = tangent_direction(prob, anchor[0], anchor[1])
    predicted = (anchor[0] + 0.3 * t_x, anchor[1] + 0.3 * t_xi)
    x_c, xi_c = arclength_correct(prob, predicted, anchor, 0.3)
    assert x_c[0] == pytest.approx(predicted[0][0], abs=1e-12)
    assert xi_c == pytest.approx(predicted[1], abs=1e-12)


def test_corrector_pulls_back_to_path():
    prob = _ScalarPath()
    anchor = (np.array([1.0]), 1.0)
    x_c, xi_c = arclength_correct(prob, (np.array([1.4]), 1.2), anchor, 0.3)
    assert x_c[0] == pytest.approx(xi_c, abs=1e-9)
    r = np.hypot(x_c[0] - 1.0, xi_c - 1.0)
    assert r == pytest.approx(0.3, rel=1e-8)


# -- Group 2 ---------------------------------------------------------------


def test_tangent_singular_jacobian_is_typed():
    class Fixed:
        def __init__(self, j):
            self.j = j

        def jacobian_x(self, x, xi):
            return self.j

        def jacobian_xi(self, x, xi):
            return np.array([-1.0, 0.0])

    for bad in (np.array([[1.0, 2.0], [2.0, 4.0]]), np.full((2, 2), np.nan)):
        for j in (bad, csc_array(bad)):
            with pytest.raises(SingularJacobian):
                tangent_direction(Fixed(j), np.zeros(2), 0.0)


def test_load_trajectory_scaling(bench_system):
    kinds = [r.kind for r in bench_system.resources]
    assert "load" in kinds and "compensator" in kinds
    for xi in (0.0, 1.7):
        out = bench_system.resources_at(xi)
        assert [r.node for r in out] == [r.node for r in bench_system.resources]
        for r in out:
            assert r.lam == (xi if r.kind == "load" else 1.0)
    with pytest.raises(ValueError):
        bench_system.resources_at(-0.1)


def test_missing_flat_start_needs_x0():
    with pytest.raises(ValueError, match="x0"):
        run_cpf(_Parabola())


def test_resource_lam_scales_the_fold():
    grid, slacks, resources = two_bus()
    text = serialize_grid(grid, slacks, [resources[0].with_lam(0.5)])
    assert "lam 0.5" in text
    trace = run_cpf(PolyphaseSystem(*parse_grid_text(text)))
    # criterion 7's tolerances around the closed form 2 / lam
    assert trace.termination == TERM_FOLD
    assert abs(trace.xi_max - 4.0) <= 0.01 * 4.0
    assert 0.99 <= trace.final.vsi.global_value <= 1.01


def test_cpf_packs_resources_once(bench_system, monkeypatch):
    calls = []
    pack = ZipTable.from_resources.__func__

    def counted(cls, resources):
        calls.append(len(resources))
        return pack(cls, resources)

    monkeypatch.setattr(ZipTable, "from_resources", classmethod(counted))
    system = PolyphaseSystem(bench_system.grid, bench_system.slacks, bench_system.resources)
    assert len(calls) == 1
    trace = run_cpf(system)
    assert trace.final.vsi is not None
    assert len(calls) == 1


# -- Group 3 ---------------------------------------------------------------


def test_flat_path_hits_step_limit():
    grid, slacks, resources = two_bus(p0_kw=0.0)
    system = PolyphaseSystem(grid, slacks, resources)
    config = CpfConfig(sigma=0.05, max_steps=10)
    trace = run_cpf(system, config)
    assert trace.termination == TERM_STEP_LIMIT
    assert len(trace.samples) == 11
    xis = [s.xi for s in trace.samples]
    assert np.allclose(np.diff(xis), 0.05, atol=1e-9)
    with pytest.raises(StepLimitReached) as exc:
        run_cpf(system, config, strict=True)
    assert len(exc.value.trace.samples) == 11


def test_parabola_fold():
    trace = run_cpf(_Parabola(), CpfConfig(sigma=0.1), x0=np.array([1.5]))
    assert trace.termination == TERM_FOLD
    assert trace.xi_max <= 2.0 + 1e-9
    assert trace.xi_max >= 2.0 - 1e-3
    # samples stay on the parabola (the nose may be rounded onto x < 0)
    for s in trace.samples:
        assert s.x[0] ** 2 + s.xi == pytest.approx(2.0, abs=1e-6)


def test_residual_wall_is_corrector_failure():
    trace = run_cpf(_Wall(), CpfConfig(sigma=0.05, max_steps=10), x0=np.array([0.0]))
    assert trace.termination == TERM_CORRECTOR
    assert len(trace.samples) == 1
    assert any("diverged" in e for e in trace.events)


def test_infeasible_base_case():
    grid, slacks, resources = two_bus(p0_kw=-300.0)
    system = PolyphaseSystem(grid, slacks, resources)
    with pytest.raises(BaseCaseDiverged):
        run_cpf(system)


# -- Group 4 ---------------------------------------------------------------


@pytest.fixture(scope="module")
def two_bus_trace():
    grid, slacks, resources = two_bus()
    system = PolyphaseSystem(grid, slacks, resources)
    return run_cpf(system)


def test_two_bus_fold_location(two_bus_trace):
    assert two_bus_trace.termination == TERM_FOLD
    assert two_bus_trace.xi_max <= 2.0 + 1e-6
    assert two_bus_trace.xi_max >= 2.0 - 1e-3


def test_two_bus_tangency_certificate(two_bus_trace):
    final = two_bus_trace.final
    assert final.vsi is not None
    assert 0.99 <= final.vsi.global_value <= 1.01
    assert final.vsi.critical == (2, 1)


def test_sphere_invariant(two_bus_trace):
    sigma0 = 0.05
    samples = two_bus_trace.samples
    for a, b in zip(samples, samples[1:]):
        r = float(np.sqrt(np.sum((b.x - a.x) ** 2) + (b.xi - a.xi) ** 2))
        assert r <= sigma0 * (1.0 + 1e-6)
        m = round(np.log2(sigma0 / r))
        assert m >= 0
        assert abs(r - sigma0 / 2**m) <= 1e-6 * sigma0 / 2**m


def test_manifold_adherence(two_bus_trace):
    grid, slacks, resources = two_bus()
    system = PolyphaseSystem(grid, slacks, resources)
    for s in two_bus_trace.samples:
        res = system.residual(s.x, s.xi)
        assert np.abs(res).max() <= 1e-8


def test_xi_strictly_increasing(two_bus_trace):
    xis = np.array([s.xi for s in two_bus_trace.samples])
    assert np.all(np.diff(xis) > 0)
    assert two_bus_trace.xi_max == pytest.approx(xis.max())
    assert two_bus_trace.final is two_bus_trace.samples[-1]


def test_recording_switches_and_xi_start():
    grid, slacks, resources = two_bus()
    system = PolyphaseSystem(grid, slacks, resources)
    trace = run_cpf(system, CpfConfig(record_vsi=False, record_svd=False, max_steps=3))
    for s in trace.samples:
        assert s.vsi is None and s.sv is None
        assert s.op is not None
    shifted = run_cpf(system, CpfConfig(xi_start=1.5, max_steps=3))
    assert shifted.samples[0].xi == 1.5
    assert shifted.samples[0].vsi is not None
    assert len(shifted.samples[0].sv) == 3


def test_config_validation():
    with pytest.raises(ValueError):
        CpfConfig(sigma=0.0)
    with pytest.raises(ValueError):
        CpfConfig(eps=0.0)
    with pytest.raises(ValueError):
        CpfConfig(max_steps=0)
    with pytest.raises(ValueError):
        CpfConfig(max_corrector_iter=0)


# -- Group 5 ---------------------------------------------------------------


def test_empty_trace_raises():
    empty = CpfTrace()
    with pytest.raises(ValueError):
        _ = empty.xi_max
    with pytest.raises(ValueError):
        _ = empty.final


# -- Group 6 ---------------------------------------------------------------


def test_sparse_bundled_trace_matches_dense(bench_system, bench_trace, monkeypatch):
    monkeypatch.setattr(powerflow, "SPARSE_MIN_STATES", 0)
    system = PolyphaseSystem(bench_system.grid, bench_system.slacks, bench_system.resources)
    assert system.sparse
    trace = run_cpf(system)
    assert trace.termination == TERM_FOLD
    assert len(trace.samples) == len(bench_trace.samples) == 50
    assert round(trace.xi_max, 6) == 1.787102
    assert trace.final.vsi.critical == (25, 1)
    for s, d in zip(trace.samples, bench_trace.samples):
        assert np.abs(s.x - d.x).max() <= 1e-9
        assert abs(s.xi - d.xi) <= 1e-9
