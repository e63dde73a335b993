"""
Fixed-loading power flow: state packing, residual, Jacobians, Newton.

Proves:
 Group 1 - State handling
   1.  wrap_angle maps onto (-pi, pi] including both endpoints
   2.  flat_start is nominal magnitude with symmetric sequence angles
   3.  operating_point / pack round-trip; accessors; unknown node -> KeyError
   4.  Residual is gauge-consistent under theta -> theta + 2 pi

 Group 2 - Residual correctness
   5.  Zero loading reduces to the linear network solve
   6.  Converged solutions carry a mismatch certificate <= eps * s_base
   7.  Analytic Jacobians match central differences (d/dx and d/dxi), and
       jacobian_x, dense and sparse, matches the dense reference formula to
       rounding
   7a. The topology pattern lists each entry once and covers every nonzero
       of Y_uu (bundled feeder, 302-node synthetic feeder, parallel branches)

 Group 3 - Newton iteration
   8.  Scalar quadratic converges; converged start returns 0 iterations
   9.  Residual history decreases monotonically on the two-bus case
  10.  Exhausted budget raises NonConvergence with x_last and history
  11.  Singular or non-finite Jacobian raises SingularJacobian, dense or
       sparse
  12.  jacobian_svd returns (min, mean, max), densifies a sparse Jacobian
       and raises SingularJacobian on a non-finite one

 Group 4 - System-level
  13.  Benchmark-style overload (xi = 5 flat start) raises NonConvergence
  14.  Constructor rejects missing resources and missing nominal voltages
  15.  branch_series_currents reproduces ohm's law and the load current;
       a singular series impedance or a non-finite voltage raises
       SingularBranch
  16.  Parsing with validation and building a system call no SVD (bundled
       feeder, 302-node synthetic feeder); jacobian_svd still does
  17.  The 302-node feeder takes the sparse path, and its power flow agrees
       with the forced-dense one in x and iteration count
  17a. Building that sparse system peaks below one dense n_unknown^2
       complex array (tracemalloc): no dense admittance is formed
  18.  Parsing, building and tracing the two small CPF inputs with SVD
       never imports scipy (fresh interpreter)
  19.  Every library attribute the benchmark's layer tracer wraps by name
       exists: module functions and PolyphaseSystem methods
"""

import importlib
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csc_array

from conftest import fd_jacobian, random_system, two_bus
from polyvsi import powerflow
from polyvsi.benchmark import bundled_grid_text
from polyvsi.grid import GridModel
from polyvsi.errors import NonConvergence, SingularBranch, SingularJacobian
from polyvsi.gridfile import parse_grid_text
from polyvsi.nodes import pm_power_at
from polyvsi.powerflow import (
    Jacobian,
    OperatingPoint,
    PolyphaseSystem,
    jacobian_svd,
    mismatch,
    newton_solve,
    solve_power_flow,
    wrap_angle,
)
from polyvsi.vsi import build_augmented


# -- Group 1 ---------------------------------------------------------------


def test_wrap_angle_range():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3.0 * np.pi) == pytest.approx(np.pi)
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(2.0 * np.pi) == pytest.approx(0.0, abs=1e-12)
    ang = np.array([0.1, -0.1, np.pi + 0.2, -np.pi - 0.2])
    w = wrap_angle(ang)
    assert np.all(w > -np.pi) and np.all(w <= np.pi)
    assert np.allclose(w[:2], ang[:2])


def test_flat_start_layout():
    grid, slacks, resources = two_bus()
    system = PolyphaseSystem(grid, slacks, resources)
    x0 = system.flat_start()
    assert x0.shape == (4,)
    assert np.allclose(x0[:2], 1.0)
    assert np.allclose(x0[2:], 0.0)

    rng = np.random.default_rng(2)
    grid, slacks, resources = random_system(rng, n_nodes=3, p=3)
    system3 = PolyphaseSystem(grid, slacks, resources)
    x0 = system3.flat_start()
    seq = wrap_angle(-2.0 * np.pi * np.arange(3) / 3)
    assert np.allclose(x0[:9], 1.0)
    assert np.allclose(x0[9:], np.tile(seq, 3))


def test_operating_point_accessors_and_pack():
    rng = np.random.default_rng(4)
    grid, slacks, resources = random_system(rng, n_nodes=4, p=2)
    system = PolyphaseSystem(grid, slacks, resources)
    x = system.flat_start()
    x[: system.n_unknown] *= rng.uniform(0.95, 1.05, system.n_unknown)
    x[system.n_unknown:] += rng.uniform(-0.3, 0.3, system.n_unknown)
    op = system.operating_point(x, xi=1.3)
    assert op.xi == 1.3
    assert op.magnitude(2, 1) == pytest.approx(x[2] * 1000.0)
    assert op.angle(2, 2) == pytest.approx(x[system.n_unknown + 3])
    v = op.voltage(2, 1)
    assert v == pytest.approx(op.magnitude(2, 1) * np.exp(1j * op.angle(2, 1)))
    assert op.phasors().shape == (4, 2)
    with pytest.raises(KeyError):
        op.voltage(99, 1)
    expected = np.concatenate([x[: system.n_unknown],
                               wrap_angle(x[system.n_unknown:])])
    assert np.allclose(system.pack(op), expected, atol=1e-14)
    # pack reorders rows of a point listing the nodes in another order
    perm = [2, 0, 3, 1]
    shuffled = OperatingPoint(nodes=[op.nodes[i] for i in perm], p=op.p,
                              e=op.e[perm], theta=op.theta[perm], xi=op.xi)
    assert shuffled.voltage(2, 1) == v
    assert np.array_equal(system.pack(shuffled), system.pack(op))


def test_gauge_invariance():
    grid, slacks, resources = two_bus()
    system = PolyphaseSystem(grid, slacks, resources)
    x = system.flat_start()
    shifted = x.copy()
    shifted[system.n_unknown:] += 2.0 * np.pi
    r0 = system.residual(x, 1.0)
    r1 = system.residual(shifted, 1.0)
    assert np.linalg.norm(r1 - r0) < 1e-9


# -- Group 2 ---------------------------------------------------------------


def test_zero_loading_is_linear_solve():
    rng = np.random.default_rng(6)
    for _ in range(5):
        grid, slacks, resources = random_system(rng)
        loads = [r for r in resources if r.kind == "load"]
        comps = [r for r in resources if r.kind == "compensator"]
        if comps or not loads:
            continue
        system = PolyphaseSystem(grid, slacks, resources)
        op, res = solve_power_flow(system, xi=0.0)
        assert res.converged
        # independent linear reference from the augmented admittance
        aug = build_augmented(grid, slacks)
        yp = aug.y_prime
        phys = list(grid.node_ids)
        pi = yp.row_indices(phys)
        ii = yp.row_indices(list(aug.internal_nodes))
        v_te = np.concatenate([s.v_te for s in slacks])
        v_ref = np.linalg.solve(yp.data[np.ix_(pi, pi)],
                                -yp.data[np.ix_(pi, ii)] @ v_te)
        v_op = op.phasors().ravel()
        assert np.linalg.norm(v_op - v_ref) <= 1e-7 * np.linalg.norm(v_ref)


def test_solution_certificate():
    rng = np.random.default_rng(8)
    done = 0
    while done < 8:
        grid, slacks, resources = random_system(rng)
        system = PolyphaseSystem(grid, slacks, resources)
        op, res = solve_power_flow(system, xi=1.0)
        assert res.converged
        mis = mismatch(system, op)
        assert mis.norm_inf <= 1e-8 * system.s_base
        assert mis.dp.shape == (len(grid.node_ids), grid.p)
        done += 1


def _y_uu(system):
    """The physical-node block of the augmented admittance, dense."""
    u0 = len(system.aug.internal_nodes) * system.p
    return system.aug.y_prime.data[u0:, u0:]


def dense_jacobian_x(system, x, xi):
    """Reference state Jacobian built from full-size complex temporaries.

    The textbook form of PolyphaseSystem.jacobian_x: dS/dtheta and dS/dE as
    dense complex matrices, ZIP derivatives on the diagonal, then the blocks
    stacked and scaled.  The in-place assembly must match it to rounding.
    """
    e, theta, v, i_u = system._split(x)
    unit = np.exp(1j * theta)
    y_uu = _y_uu(system)
    m = v[:, None] * np.conj(y_uu * v[None, :])
    ds_dth = -1j * m
    np.fill_diagonal(ds_dth, ds_dth.diagonal() + 1j * v * np.conj(i_u))
    ds_de = v[:, None] * np.conj(y_uu * unit[None, :])
    np.fill_diagonal(ds_de, ds_de.diagonal() + unit * np.conj(i_u))
    dp_de, dq_de = system._zip.power_de(e[system._res], system._lam(xi))
    j_pe = ds_de.real
    j_qe = ds_de.imag
    r = system._res
    j_pe[r, r] -= dp_de
    j_qe[r, r] -= dq_de
    scale = system.e_nom[None, :]
    top = np.hstack([j_pe * scale, ds_dth.real])
    bot = np.hstack([j_qe * scale, ds_dth.imag])
    return np.vstack([top, bot]) / system.s_base


def test_jacobians_match_finite_differences(bench_system, monkeypatch):
    """Analytic Jacobians against central differences, and jacobian_x
    against the dense reference formula to 1e-13 (relative Frobenius), on
    the dense path and, with the size threshold lowered, the sparse one."""
    rng = np.random.default_rng(10)
    points = []
    cases = [two_bus()]
    for _ in range(3):
        cases.append(random_system(rng))
    for grid, slacks, resources in cases:
        system = PolyphaseSystem(grid, slacks, resources)
        for _ in range(3):
            x = system.flat_start()
            x[: system.n_unknown] *= rng.uniform(0.9, 1.1, system.n_unknown)
            x[system.n_unknown:] += rng.uniform(-0.2, 0.2, system.n_unknown)
            points.append((system, x, float(rng.uniform(0.2, 1.5))))
    for xi in (1.0, 1.3):
        op, _ = solve_power_flow(bench_system, xi=xi)
        points.append((bench_system, bench_system.pack(op), xi))

    monkeypatch.setattr(powerflow, "SPARSE_MIN_STATES", 0)
    twins = {}
    for system, x, xi in list(points):
        if id(system) not in twins:
            twins[id(system)] = PolyphaseSystem(system.grid, system.slacks, system.resources)
        points.append((twins[id(system)], x, xi))

    for system, x, xi in points:
        j_an = system.jacobian_x(x, xi)
        if system.sparse:
            assert j_an.format == "csc"
            j_an = j_an.toarray()
        j_ref = dense_jacobian_x(system, x, xi)
        assert np.linalg.norm(j_an - j_ref) <= 1e-13 * np.linalg.norm(j_ref)

        j_fd = fd_jacobian(lambda z: system.residual(z, xi), x)
        err = np.linalg.norm(j_an - j_fd) / max(np.linalg.norm(j_an), 1.0)
        assert err <= 1e-6

        d_an = system.jacobian_xi(x, xi)
        h = 1e-6
        d_fd = (system.residual(x, xi + h) - system.residual(x, xi - h)) / (2 * h)
        assert np.linalg.norm(d_an - d_fd) <= 1e-6 * max(np.linalg.norm(d_an), 1.0)


def test_topology_pattern_covers_admittance(bench_system, synthfeeder, monkeypatch):
    grid, slacks, resources = two_bus()
    doubled = GridModel(nodes=grid.nodes, branches=grid.branches * 2, p=grid.p)
    monkeypatch.setattr(powerflow, "SPARSE_MIN_STATES", 0)
    parallel = PolyphaseSystem(doubled, slacks, resources)
    systems = [
        bench_system,
        PolyphaseSystem(*parse_grid_text(synthfeeder.feeder_text(0, 300))),
        parallel,
    ]
    for system in systems:
        rows, cols = system._rows, system._cols
        assert len(set(zip(rows.tolist(), cols.tolist()))) == rows.size
        y_uu = _y_uu(system)
        covered = np.zeros(y_uu.shape, dtype=bool)
        covered[rows, cols] = True
        assert np.all(y_uu[~covered] == 0.0)
    # Parallel branches add their admittances once into one pattern entry.
    x = parallel.flat_start()
    j_ref = dense_jacobian_x(parallel, x, 1.0)
    j_an = parallel.jacobian_x(x, 1.0).toarray()
    assert np.linalg.norm(j_an - j_ref) <= 1e-13 * np.linalg.norm(j_ref)


# -- Group 3 ---------------------------------------------------------------


def test_newton_scalar_quadratic():
    fun = lambda x: np.array([x[0] ** 2 - 4.0])
    jac = lambda x: np.array([[2.0 * x[0]]])
    res = newton_solve(fun, jac, np.array([3.0]), eps=1e-12)
    assert res.converged
    assert res.iterations >= 1
    assert abs(res.x[0] - 2.0) < 1e-10
    at_solution = newton_solve(fun, jac, np.array([2.0]), eps=1e-12)
    assert at_solution.iterations == 0
    assert at_solution.converged


def test_newton_history_decreases():
    grid, slacks, resources = two_bus()
    system = PolyphaseSystem(grid, slacks, resources)
    _, res = solve_power_flow(system, xi=1.0)
    hist = res.residuals
    assert hist[-1] <= 1e-8
    assert all(hist[k + 1] < hist[k] for k in range(len(hist) - 1))


def test_newton_nonconvergence_carries_state():
    fun = lambda x: np.array([x[0] ** 2 + 1.0])
    jac = lambda x: np.array([[2.0 * x[0]]])
    with pytest.raises(NonConvergence) as exc:
        newton_solve(fun, jac, np.array([0.7]), max_iter=5)
    assert exc.value.x_last is not None
    assert len(exc.value.residuals) == 6


def test_newton_singular_jacobian():
    fun = lambda x: np.array([x[0] - 1.0])
    jac = lambda x: np.array([[0.0]])
    with pytest.raises(SingularJacobian):
        newton_solve(fun, jac, np.array([5.0]))
    # Exactly singular and non-finite Jacobians, dense (LAPACK) and sparse
    # (SuperLU), all raise the typed error.
    fun2 = lambda x: x - 1.0
    for bad in (np.array([[1.0, 2.0], [2.0, 4.0]]), np.full((2, 2), np.nan)):
        for j in (bad, csc_array(bad)):
            with pytest.raises(SingularJacobian):
                newton_solve(fun2, lambda x: j, np.array([5.0, 5.0]))


def test_jacobian_svd_triplet():
    assert jacobian_svd(np.eye(3)) == pytest.approx((1.0, 1.0, 1.0))
    sv = jacobian_svd(np.diag([3.0, 1.0, 2.0]))
    assert sv == pytest.approx((1.0, 2.0, 3.0))
    wrapped = jacobian_svd(Jacobian(dx=np.diag([2.0, 4.0]), dxi=np.zeros(2)))
    assert wrapped == pytest.approx((2.0, 3.0, 4.0))
    assert jacobian_svd(csc_array(np.diag([3.0, 1.0, 2.0]))) == pytest.approx((1.0, 2.0, 3.0))
    with pytest.raises(SingularJacobian, match="SVD"):
        jacobian_svd(np.full((3, 3), np.nan))


# -- Group 4 ---------------------------------------------------------------


def test_overload_raises_nonconvergence(bench_system):
    with pytest.raises(NonConvergence) as exc:
        solve_power_flow(bench_system, xi=5.0)
    assert exc.value.x_last is not None
    assert len(exc.value.residuals) > 1


def test_constructor_validation():
    grid, slacks, resources = two_bus()
    with pytest.raises(ValueError, match="resource models"):
        PolyphaseSystem(grid, slacks, [])
    from polyvsi.grid import Branch, GridModel, Node

    bare = GridModel(
        nodes=(Node(1, "slack", vnom=1000.0), Node(2, "resource")),
        branches=(Branch(1, 2, np.array([[0.5 + 0j]])),),
        p=1,
    )
    with pytest.raises(ValueError, match="nominal voltage"):
        PolyphaseSystem(bare, slacks, resources)


def test_branch_series_currents():
    grid, slacks, resources = two_bus()
    system = PolyphaseSystem(grid, slacks, resources)
    op, _ = solve_power_flow(system, xi=1.0, eps=1e-12)
    (branch, i_series), = system.branch_series_currents(op)
    v1, v2 = op.voltage(1, 1), op.voltage(2, 1)
    assert abs(i_series[0] - (v1 - v2) / branch.z[0, 0]) < 1e-9
    i_load = np.conj(pm_power_at(resources[0], 1, v2) / v2)
    assert abs(i_series[0] + i_load) < 1e-6 * abs(i_load)

    bad_op = OperatingPoint(nodes=op.nodes, p=1, e=np.array([[1000.0], [np.nan]]), theta=op.theta)
    with pytest.raises(SingularBranch, match="not finite"):
        system.branch_series_currents(bad_op)
    system.grid = replace(grid, branches=(replace(branch, z=np.zeros((1, 1))),))
    with pytest.raises(SingularBranch, match="1-2 series impedance is singular"):
        system.branch_series_currents(op)


def test_setup_calls_no_svd(monkeypatch, synthfeeder):
    # A full SVD is O(n^3) with a large constant; set-up must not pay it for
    # a pass/fail condition check.  Only jacobian_svd may call it.
    texts = [bundled_grid_text(), synthfeeder.feeder_text(0, 300)]

    class SvdCalled(Exception):
        pass

    def no_svd(*args, **kwargs):
        raise SvdCalled

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for text in texts:
        system = PolyphaseSystem(*parse_grid_text(text, validate=True))
        with pytest.raises(SvdCalled):
            system.svd_at(system.flat_start(), 1.0)


def test_large_feeder_sparse_matches_dense(synthfeeder, monkeypatch):
    parsed = parse_grid_text(synthfeeder.feeder_text(0, 300))
    sparse = PolyphaseSystem(*parsed)
    assert sparse.sparse and 2 * sparse.n_unknown == 1812
    monkeypatch.setattr(powerflow, "SPARSE_MIN_STATES", 10**9)
    dense = PolyphaseSystem(*parsed)
    assert not dense.sparse
    _, res_s = solve_power_flow(sparse, xi=1.0)
    _, res_d = solve_power_flow(dense, xi=1.0)
    assert res_s.iterations == res_d.iterations
    assert np.abs(res_s.x - res_d.x).max() <= 1e-10


def test_sparse_build_forms_no_dense_admittance(synthfeeder):
    import scipy.sparse.linalg  # noqa: F401  (the import is not the build's memory)

    parsed = parse_grid_text(synthfeeder.feeder_text(0, 300))
    tracemalloc.start()
    try:
        system = PolyphaseSystem(*parsed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense_bytes = np.dtype(complex).itemsize * system.n_unknown ** 2
    assert system.sparse
    assert peak < dense_bytes, f"build peak {peak / 2**20:.1f} MiB >= {dense_bytes / 2**20:.1f} MiB"


def test_small_systems_never_import_scipy():
    # Importing scipy.sparse.linalg costs about 32 MB of peak RSS, more than
    # a small CPF run uses in all; systems below SPARSE_MIN_STATES states
    # must not pay it.  A fresh interpreter sees only what the library loads.
    root = Path(__file__).resolve().parents[1]
    script = f"""
import sys
sys.path[:0] = [{str(root / "src")!r}, {str(root / "perfbench")!r}]
from polyvsi.benchmark import bundled_grid_text
from polyvsi.continuation import run_cpf
from polyvsi.gridfile import parse_grid_text
from polyvsi.powerflow import PolyphaseSystem
import synthfeeder

for text in (bundled_grid_text(), synthfeeder.feeder_text(0, 40)):
    system = PolyphaseSystem(*parse_grid_text(text))
    assert not system.sparse
    trace = run_cpf(system)
    assert trace.final.sv is not None
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_tracer_targets_exist(spans, bench_system):
    # perfbench/spans.py times layers by replacing these attributes; a rename
    # in the library would otherwise break only the traced benchmark run.
    for module_name, attr, _ in spans.MODULE_SPANS:
        assert hasattr(importlib.import_module(module_name), attr), (module_name, attr)
    for attr, _ in spans.SYSTEM_SPANS:
        assert callable(getattr(bench_system, attr, None)), attr
