"""
Fixed-loading power flow: state packing, residual, Jacobians, Newton.

Proves:
 Group 1 - State handling
   1.  wrap_angle maps onto (-pi, pi] including both endpoints
   2.  flat_start is nominal magnitude with symmetric sequence angles
   3.  operating_point / pack round-trip; accessors; unknown node -> KeyError,
       a phase outside 1..p (0, -1, p + 1) -> ValueError naming it
   4.  Residual is gauge-consistent under theta -> theta + 2 pi

 Group 2 - Residual correctness
   5.  Zero loading reduces to the linear network solve
   6.  Converged solutions carry a mismatch certificate <= eps * s_base
   7.  Analytic Jacobians match central differences (d/dx and d/dxi), and
       jacobian_x matches the dense reference formula to rounding
   7a. The topology pattern lists each entry once and covers every nonzero
       of Y_uu (bundled feeder, 302-node synthetic feeder, parallel branches)
   7b. The residual is a function of the phasor: the state (-E, theta + pi)
       gives the residual of (E, theta) to rounding, on random grids whose
       ZIP rows carry an I term (beta != 0), p = 1, 2 and 3
   7c. At E < 0, jacobian_x matches central differences of the residual
       and of the residual read at the same phasors with |E|
   7d. A two-bus near series resonance, where flat-start Newton reaches a
       negative magnitude, ends in a typed error or at a state whose
       phasor leaves a residual below eps

 Group 3 - Newton iteration
   8.  Scalar quadratic converges; converged start returns 0 iterations
   9.  Residual history decreases monotonically on the two-bus case
  10.  Exhausted budget raises NonConvergence with x_last and history
  11.  Singular or non-finite Jacobian raises SingularJacobian, a plain
       array or a BandMatrix
  12.  jacobian_svd returns (min, mean, max), densifies a BandMatrix and
       raises SingularJacobian on a non-finite one
  12a. With a block and its solver, jacobian_svd seeds it next to the exact
       triplet, then steps it to sv_min alone, an upper bound within 1e-6
       of the exact value; an exactly singular Jacobian, a plain array or
       a BandMatrix, gives a finite sv_min instead of raising

 Group 4 - System-level
  13.  Benchmark-style overload (xi = 5 flat start) raises NonConvergence
  14.  Constructor rejects missing or duplicate resource models
       (IncompleteModel) and missing nominal voltages
  15.  branch_series_currents reproduces ohm's law and the load current;
       a non-finite voltage raises SingularBranch, and a grid with a
       singular series impedance the ValidationError of its violations
  15a. On a 302-node synthetic feeder with transformers, every current
       from the stacked inverse agrees element by element with a
       per-branch solve to 1e-12 relative
  16.  Parsing with validation and building a system call no SVD (bundled
       feeder, 302-node synthetic feeder); jacobian_svd still does
  17.  The 302-node feeder's power flow on the band LU over all 1812
       states agrees with the np.linalg.solve fallback taken without
       numpy's LAPACK binding, in x to 1e-10 and in iteration count
  17a. Building that system and solving its power flow from flat start
       peaks below one dense n_unknown^2 complex array (tracemalloc): no
       dense admittance or Jacobian is formed
  17b. Parsing and building it calls np.linalg.inv a few times, not once
       per branch: branch impedances are inverted as one stack
  17c. Parsing and building it runs the grid's passivity rule once:
       validation and the admittance stamping share one result
  17d. From parsing the bundled feeder through its power flow and branch
       currents, one _inverse call holds grid branch impedances, and it is
       exactly their stack
  17e. From parsing the bundled feeder through its power flow, a short
       trace and its branch currents, one _inverse call holds the slack's
       z_te, SlackModel's own: the stamp reads the y_te kept there
  17f. Two slacks passed in either order build one system: the same
       internal and hybrid source nodes, a bit-identical power flow, equal
       indices and an equal traced fold, with each source voltage behind
       its own Thevenin impedance
  18.  Parsing, building and tracing the two small CPF inputs with SVD,
       and parsing, building, solving and indexing a 302-node feeder,
       never import scipy (fresh interpreter)
  19.  Every library attribute the benchmark's layer tracer wraps by name
       exists: module functions and PolyphaseSystem methods
  20.  A system's band order is a permutation of all states that keeps
       each node's 2p states together and bounds the band of J_x along the
       trace to at most 1.5 times the measured kl = ku = 17 (bundled) and
       29 (252-state feeder)
"""

import importlib
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from polyvsi_cases import CP, VNOM, band_matrix, fd_jacobian, random_system, two_bus
from polyvsi import grid as grid_module
from polyvsi import nodes as nodes_module
from polyvsi import powerflow
from polyvsi.benchmark import ZIP_LOAD_IM, ZIP_LOAD_RE, bundled_grid_text
from polyvsi.continuation import CpfConfig, run_cpf
from polyvsi.grid import Branch, GridModel, Node, Shunt, linear_solver, validate_parameters
from polyvsi.errors import (IncompleteModel, NonConvergence, PolyvsiError, SingularBranch,
                            SingularJacobian, ValidationError)
from polyvsi.gridfile import parse_grid_text
from polyvsi.nodes import PhaseResource, ResourceModel, SlackModel, ZipCoefficients, pm_power_at
from polyvsi.powerflow import (
    OperatingPoint,
    PolyphaseSystem,
    SvdBlock,
    jacobian_svd,
    mismatch,
    newton_solve,
    solve_power_flow,
    wrap_angle,
)
from polyvsi.vsi import build_augmented, evaluate_vsi, te_node


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
    for phase in (0, -1, 3):  # 1-based: neither wrapped round nor a bare IndexError
        for accessor in (op.magnitude, op.angle, op.voltage):
            with pytest.raises(ValueError, match=f"^phase {phase} is outside 1..2$"):
                accessor(2, phase)
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


def test_jacobians_match_finite_differences(bench_system):
    """Analytic Jacobians against central differences, and jacobian_x
    against the dense reference formula to 1e-13 (relative Frobenius)."""
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

    for system, x, xi in points:
        j_an = np.asarray(system.jacobian_x(x, xi))
        j_ref = dense_jacobian_x(system, x, xi)
        assert np.linalg.norm(j_an - j_ref) <= 1e-13 * np.linalg.norm(j_ref)

        j_fd = fd_jacobian(lambda z: system.residual(z, xi), x)
        err = np.linalg.norm(j_an - j_fd) / max(np.linalg.norm(j_an), 1.0)
        assert err <= 1e-6

        d_an = system.jacobian_xi(x, xi)
        h = 1e-6
        d_fd = (system.residual(x, xi + h) - system.residual(x, xi - h)) / (2 * h)
        assert np.linalg.norm(d_an - d_fd) <= 1e-6 * max(np.linalg.norm(d_an), 1.0)


def _flip(system, x, rows):
    """x with the magnitudes of the given unknown rows negated and their
    angles turned by pi: the same phasors."""
    n = system.n_unknown
    y = x.copy()
    y[rows] *= -1.0
    y[n + rows] += np.pi
    return y


def _random_states(rng, system, count):
    for _ in range(count):
        x = system.flat_start()
        x[: system.n_unknown] *= rng.uniform(0.8, 1.2, system.n_unknown)
        x[system.n_unknown:] += rng.uniform(-0.5, 0.5, system.n_unknown)
        yield x


def test_residual_is_a_function_of_the_phasor():
    rng = np.random.default_rng(72)
    for p in (1, 2, 3):
        for _ in range(3):
            grid, slacks, resources = random_system(rng, p=p)
            system = PolyphaseSystem(grid, slacks, resources)
            assert system._zip.zip_re[:, 1].all() and system._zip.zip_im[:, 1].all()
            for x in _random_states(rng, system, 3):
                xi = float(rng.uniform(0.2, 1.5))
                rows = np.flatnonzero(rng.random(system.n_unknown) < 0.5)
                rows = np.union1d(rows, system._res[:1])  # at least one resource row
                r0 = system.residual(x, xi)
                r1 = system.residual(_flip(system, x, rows), xi)
                assert np.abs(r1 - r0).max() <= 1e-12 * max(np.abs(r0).max(), 1.0)


def test_jacobian_matches_finite_differences_at_negative_magnitudes():
    rng = np.random.default_rng(73)
    for p in (1, 3):
        grid, slacks, resources = random_system(rng, p=p)
        system = PolyphaseSystem(grid, slacks, resources)
        for x in _random_states(rng, system, 2):
            xi = float(rng.uniform(0.2, 1.5))
            x = _flip(system, x, system._res)
            neg = x[: system.n_unknown] < 0.0
            assert neg.any()

            def by_phasor(z):
                return system.residual(_flip(system, z, np.flatnonzero(neg)), xi)

            j_an = np.asarray(system.jacobian_x(x, xi))
            scale = max(np.linalg.norm(j_an), 1.0)
            assert np.linalg.norm(j_an - fd_jacobian(lambda z: system.residual(z, xi), x)) <= 1e-6 * scale
            assert np.linalg.norm(j_an - fd_jacobian(by_phasor, x)) <= 1e-6 * scale


def test_resonant_two_bus_solves_the_physical_phasor():
    """X_te 2 ohm, line 3.001 ohm, a 0.2 S shunt (resonant with 5 ohm) and
    a 1 kW load with the bundled ZIP triples: flat-start Newton ends at a
    negative magnitude at the load node (-0.0041 pu)."""
    vnom, eps = 1000.0, 1e-8
    grid = GridModel(nodes=(Node(1, "slack", vnom=vnom), Node(2, "resource", vnom=vnom)),
                     branches=(Branch(1, 2, np.array([[3.001j]])),),
                     shunts=(Shunt(2, np.array([[0.2j]])),), p=1)
    slacks = [SlackModel(node=1, v_te=np.array([vnom + 0j]), z_te=np.array([[2j]]))]
    zips = (ZipCoefficients.from_table(*ZIP_LOAD_RE), ZipCoefficients.from_table(*ZIP_LOAD_IM))
    resources = [ResourceModel(node=2, v0=vnom, phases=(PhaseResource(-1e3, 0.0, *zips),))]
    system = PolyphaseSystem(grid, slacks, resources)
    try:
        _, res = solve_power_flow(system, xi=1.0, eps=eps)
    except PolyvsiError:
        return
    x = res.x
    neg = np.flatnonzero(x[: system.n_unknown] < 0.0)
    physical = _flip(system, x, neg)
    assert (physical[: system.n_unknown] >= 0.0).all()
    assert np.abs(system.residual(physical, 1.0)).max() <= eps


def test_topology_pattern_covers_admittance(bench_system, synthfeeder):
    grid, slacks, resources = two_bus()
    doubled = GridModel(nodes=grid.nodes, branches=grid.branches * 2, p=grid.p)
    parallel = PolyphaseSystem(doubled, slacks, resources)
    systems = [
        bench_system,
        PolyphaseSystem(*parse_grid_text(synthfeeder.feeder_text(0, 300))),
        parallel,
    ]
    for system in systems:
        band = system.aug.y_uu.band
        rows, cols = (a.ravel() for a in band.entries)
        assert len(set(zip(rows.tolist(), cols.tolist()))) == rows.size
        y_uu = _y_uu(system)
        covered = np.zeros(y_uu.shape, dtype=bool)
        covered[rows, cols] = True
        assert np.all(y_uu[~covered] == 0.0)
    # Parallel branches add their admittances once into one pattern entry.
    x = parallel.flat_start()
    j_ref = dense_jacobian_x(parallel, x, 1.0)
    j_an = np.asarray(parallel.jacobian_x(x, 1.0))
    assert np.linalg.norm(j_an - j_ref) <= 1e-13 * np.linalg.norm(j_ref)


# -- Group 3 ---------------------------------------------------------------


def test_newton_scalar_quadratic():
    fun = lambda x: np.array([x[0] ** 2 - 4.0])
    jac = lambda x: linear_solver(np.array([[2.0 * x[0]]]), "J")
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
    jac = lambda x: linear_solver(np.array([[2.0 * x[0]]]), "J")
    with pytest.raises(NonConvergence) as exc:
        newton_solve(fun, jac, np.array([0.7]), max_iter=5)
    assert exc.value.x_last is not None
    assert len(exc.value.residuals) == 6


def test_newton_singular_jacobian():
    fun = lambda x: np.array([x[0] - 1.0])
    jac = lambda x: linear_solver(np.array([[0.0]]), "J")
    with pytest.raises(SingularJacobian):
        newton_solve(fun, jac, np.array([5.0]))
    # Exactly singular and non-finite Jacobians, plain arrays
    # (np.linalg.solve) and BandMatrix (the band LU), all raise the typed error.
    fun2 = lambda x: x - 1.0
    for bad in (np.array([[1.0, 2.0], [2.0, 4.0]]), np.full((2, 2), np.nan)):
        for j in (bad, band_matrix(bad)):
            with pytest.raises(SingularJacobian):
                newton_solve(fun2, lambda x: linear_solver(j, "J"), np.array([5.0, 5.0]))


def test_jacobian_svd_triplet():
    assert jacobian_svd(np.eye(3)) == pytest.approx((1.0, 1.0, 1.0))
    sv = jacobian_svd(np.diag([3.0, 1.0, 2.0]))
    assert sv == pytest.approx((1.0, 2.0, 3.0))
    assert jacobian_svd(band_matrix(np.diag([3.0, 1.0, 2.0]))) == pytest.approx((1.0, 2.0, 3.0))
    with pytest.raises(SingularJacobian, match="SVD"):
        jacobian_svd(np.full((3, 3), np.nan))


def test_jacobian_svd_block_step():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((30, 30)) + 6.0 * np.eye(30)
    exact = np.linalg.svd(a, compute_uv=False)
    block = SvdBlock()
    assert jacobian_svd(a, block, linear_solver(a, "a")) == (exact[-1], exact.mean(), exact[0])
    assert block.vectors.shape == (30, powerflow.SVD_BLOCK)
    nearby = a + 1e-3 * rng.standard_normal((30, 30))
    s_min = np.linalg.svd(nearby, compute_uv=False)[-1]
    for j in (nearby, band_matrix(nearby)):
        stepped = SvdBlock(block.vectors.copy())
        sv = jacobian_svd(j, stepped, linear_solver(j, "j"))
        assert sv[1:] == (None, None)
        assert -1e-12 <= (sv[0] - s_min) / s_min <= 1e-6
    singular = a.copy()
    singular[:, 0] = 0.0
    solve = linear_solver(singular, "singular")  # a dense factor fails at its first solve
    for j in (singular, band_matrix(singular)):
        sv = jacobian_svd(j, SvdBlock(block.vectors.copy()), solve)
        assert np.isfinite(sv[0]) and sv[0] <= 1e-12 * sv[2]


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
    # Two models at one node: the power flow would keep one of them and the
    # index would meet more rows than the reduction has.
    with pytest.raises(IncompleteModel, match="resource models"):
        PolyphaseSystem(grid, slacks, resources + [resources[0]])
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
    with pytest.raises(ValidationError, match="branch 1-2 impedance: singular") as exc:
        system.branch_series_currents(op)
    assert exc.value.violations == validate_parameters(system.grid)


def test_branch_series_currents_match_per_branch_solve(synthfeeder):
    # The stacked inverse applied to the drop against one solve per branch,
    # on a feeder with step-down transformers (gain != 1).
    system = PolyphaseSystem(*parse_grid_text(synthfeeder.feeder_text(5, 300)))
    op, _ = solve_power_flow(system)
    v = op.phasors()
    currents = system.branch_series_currents(op)
    assert [b for b, _ in currents] == list(system.grid.branches)
    assert any(b.gain != 1.0 for b, _ in currents)
    for b, got in currents:
        want = np.linalg.solve(b.z, b.gain * v[op._row(b.from_node)] - v[op._row(b.to_node)])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (b.from_node, b.to_node)


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
        system = PolyphaseSystem(*parse_grid_text(text))
        with pytest.raises(SvdCalled):
            system.svd_at(system.flat_start(), 1.0)


def test_large_feeder_band_matches_fallback(synthfeeder, monkeypatch):
    system = PolyphaseSystem(*parse_grid_text(synthfeeder.feeder_text(0, 300)))
    assert 2 * system.n_unknown == system.band.perm.size == 1812
    _, res_band = solve_power_flow(system, xi=1.0)
    monkeypatch.setattr(grid_module, "_lapack", lambda: {})
    _, res_dense = solve_power_flow(system, xi=1.0)
    assert res_band.iterations == res_dense.iterations
    assert np.abs(res_band.x - res_dense.x).max() <= 1e-10


def test_build_and_solve_form_no_dense_matrix(synthfeeder):
    parsed = parse_grid_text(synthfeeder.feeder_text(0, 300))
    tracemalloc.start()
    try:
        system = PolyphaseSystem(*parsed)
        _, result = solve_power_flow(system, xi=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense_bytes = np.dtype(complex).itemsize * system.n_unknown ** 2
    assert result.converged and 2 * system.n_unknown == 1812
    assert peak < dense_bytes, f"peak {peak / 2**20:.1f} MiB >= {dense_bytes / 2**20:.1f} MiB"


def test_setup_inverts_branches_as_one_stack(synthfeeder, monkeypatch):
    text = synthfeeder.feeder_text(0, 300)
    calls = []

    def inv(a):
        calls.append(np.shape(a))
        return np_inv(a)

    np_inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", inv)
    grid, slacks, resources = parse_grid_text(text)
    PolyphaseSystem(grid, slacks, resources)
    assert len(grid.branches) == 301
    assert len(calls) <= 4, calls
    assert (len(grid.branches), 3, 3) in calls


@pytest.fixture
def inverse_calls(monkeypatch):
    """The argument of every _inverse call, under both names it is called
    by: grid's own and the one nodes imports for SlackModel."""
    calls = []

    def inverse(a):
        calls.append(np.array(a))
        return grid_inverse(a)

    grid_inverse = grid_module._inverse
    for module in (grid_module, nodes_module):
        monkeypatch.setattr(module, "_inverse", inverse)
    return calls


def _holding(calls, mats, p):
    """The calls whose argument holds one of the P x P matrices mats."""
    held = {np.asarray(m).tobytes() for m in mats}
    return [a for a in calls if any(m.tobytes() in held for m in np.reshape(a, (-1, p, p)))]


def test_branch_impedances_inverted_once(inverse_calls):
    grid, slacks, resources = parse_grid_text(bundled_grid_text())
    system = PolyphaseSystem(grid, slacks, resources)
    op, _ = solve_power_flow(system)
    system.branch_series_currents(op)
    stack = np.array([b.z for b in grid.branches])
    holding = _holding(inverse_calls, stack, grid.p)
    assert len(holding) == 1, [a.shape for a in holding]
    assert holding[0].tobytes() == stack.tobytes() and holding[0].shape == stack.shape


def test_thevenin_impedances_inverted_once(inverse_calls):
    grid, slacks, resources = parse_grid_text(bundled_grid_text())
    system = PolyphaseSystem(grid, slacks, resources)
    op, _ = solve_power_flow(system)
    run_cpf(system, CpfConfig(max_steps=2))
    system.branch_series_currents(op)
    for s in slacks:
        holding = _holding(inverse_calls, [s.z_te], grid.p)
        assert len(holding) == 1, [a.shape for a in holding]
        assert holding[0].tobytes() == s.z_te.tobytes() and holding[0].shape == s.z_te.shape


def test_slack_order_is_one_rule():
    grid = GridModel(
        nodes=(Node(1, "slack", vnom=VNOM), Node(2, "resource", vnom=VNOM), Node(3, "slack", vnom=VNOM)),
        branches=(Branch(1, 2, np.array([[0.5 + 0.2j]])), Branch(2, 3, np.array([[0.8 + 0.3j]]))),
        p=1,
    )
    slacks = (SlackModel(node=1, v_te=np.array([VNOM + 0j]), z_te=np.array([[0.5 + 0.5j]])),
              SlackModel(node=3, v_te=np.array([0.98 * VNOM * np.exp(-0.05j)]), z_te=np.array([[0.3 + 0.4j]])))
    resources = [ResourceModel(node=2, v0=VNOM, phases=(PhaseResource(p0=-300e3, q0=-100e3, zip_re=CP, zip_im=CP),))]
    orders = (slacks, slacks[::-1])
    a, b = (PolyphaseSystem(grid, order, resources) for order in orders)
    assert a.slacks == b.slacks == slacks
    assert a.aug.internal_nodes == b.aug.internal_nodes == a.hybrid.mc_nodes == b.hybrid.mc_nodes \
        == (te_node(1), te_node(3))

    # At zero load node 2 divides the two sources by their series impedances.
    y = [1.0 / (s.z_te[0, 0] + br.z[0, 0]) for s, br in zip(slacks, grid.branches)]
    divider = (y[0] * slacks[0].v_te[0] + y[1] * slacks[1].v_te[0]) / (y[0] + y[1])
    for system in (a, b):
        op, _ = solve_power_flow(system, xi=0.0, eps=1e-12)
        assert abs(op.voltage(2, 1) - divider) < 1e-9 * VNOM

    (op_a, res_a), (op_b, res_b) = solve_power_flow(a), solve_power_flow(b)
    assert res_a.x.tobytes() == res_b.x.tobytes()
    assert a.vsi_at(res_a.x, 1.0) == b.vsi_at(res_b.x, 1.0)
    assert evaluate_vsi(a.hybrid, orders[0], resources, op_a) == evaluate_vsi(b.hybrid, orders[1], resources, op_b)
    assert run_cpf(a).xi_max == run_cpf(b).xi_max


def test_setup_runs_the_passivity_rule_once(synthfeeder, monkeypatch):
    calls = []

    def faults(grid, *args, **kwargs):
        calls.append(grid)
        return grid_faults(grid, *args, **kwargs)

    grid_faults = grid_module._grid_faults
    monkeypatch.setattr(grid_module, "_grid_faults", faults)
    grid, slacks, resources = parse_grid_text(synthfeeder.feeder_text(0, 300))
    PolyphaseSystem(grid, slacks, resources)
    assert len(calls) == 1 and calls[0] is grid


def test_band_order_bounds_the_jacobian(bench_system, bench_trace, feeder_trace):
    # Reverse Cuthill-McKee on the node graph, each node's 2p states kept
    # together: measured kl = ku = 17 of 150 states and 29 of 252.  The bound
    # of 1.5 times that refuses an order that leaves about n / 2, as the
    # unpermuted feeders do (86 and 146).
    for (system, trace), measured in (((bench_system, bench_trace), 17), (feeder_trace, 29)):
        band, n, p = system.band, 2 * system.n_unknown, system.p
        assert np.array_equal(np.sort(band.perm), np.arange(n))
        node = np.where(band.perm < n // 2, band.perm, band.perm - n // 2) // p
        assert (node.reshape(-1, 2 * p) == node[:: 2 * p, None]).all()  # 2p states per node, together
        assert max(band.kl, band.ku) <= 1.5 * measured
        for s in trace.samples[:: len(trace.samples) // 4]:
            i, j = np.nonzero(np.asarray(system.jacobian_x(s.x, s.xi))[np.ix_(band.perm, band.perm)])
            assert (i - j).max() <= band.kl and (j - i).max() <= band.ku


def test_small_systems_never_import_scipy():
    # Importing scipy.sparse.linalg costs about 32 MB of peak RSS, more than
    # a small CPF run uses in all; numpy is the library's only dependency,
    # at every size.  A fresh interpreter sees only what the library loads.
    root = Path(__file__).resolve().parents[1]
    script = f"""
import sys
sys.path[:0] = [{str(root / "src")!r}, {str(root / "perfbench")!r}]
from polyvsi.benchmark import bundled_grid_text
from polyvsi.continuation import run_cpf
from polyvsi.gridfile import parse_grid_text
from polyvsi.powerflow import PolyphaseSystem, solve_power_flow
from polyvsi.vsi import evaluate_vsi
import synthfeeder

for text in (bundled_grid_text(), synthfeeder.feeder_text(0, 40)):
    trace = run_cpf(PolyphaseSystem(*parse_grid_text(text)))
    assert trace.final.sv is not None
system = PolyphaseSystem(*parse_grid_text(synthfeeder.feeder_text(0, 300)))
op, _ = solve_power_flow(system)
assert 0.0 < evaluate_vsi(system.hybrid, system.slacks, system.resources_at(1.0), op).global_value < 1.0
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
