"""
Stability index pipeline: augmentation, reduction, coefficients, indices.

Proves:
 Group 1 - Augmented grid
   1.  Thevenin stamp pattern on a two-node feeder is exact
   2.  Slack set / phase count mismatches and a grid node that reuses a
       source node's id raise ValueError

 Group 2 - Reduction closed forms
   3.  Two-bus reduction gives h_mm = z_te + z_line, h_mmc = 1, h_mcmc = 0
   3a. The system's one-factorization reduction equals stepwise Kron then
       hybrid to 1e-10 relative in all four blocks (h_mcmc on the scale of
       Y_II), with the same node orders (random grids p = 1..3, bundled
       feeder, 302-node synthetic feeder), dense and sparse

 Group 3 - Coefficients
   4.  Zero loading collapses a = c = 0 and b = source voltage
   5.  Vectorized coefficients match an explicit per-pair block loop
   6.  VsiCoefficients.at addresses the right pair
   7.  Missing resource model raises ValueError

 Group 4 - Index values
   8.  Two-bus index matches the closed-form |1 - E/V| at the solution
   9.  Primal and dual forms agree at power-flow solutions (random grids)
  10.  Zero loading gives L ~ 0 at the solved open-circuit point
  11.  Global index picks the maximum; ties resolve by node order then phase
  12.  |1 + a| ~ 0 raises DegenerateDenominator; zero voltage raises

 Group 5 - One index, two entry points
  13.  system.vsi_at (packed resource rows, the system's loading rule)
       equals evaluate_vsi on system.resources_at(xi) in every local
       value, the global value and the critical pair: every bundled trace
       sample, a sparse 302-node synthetic feeder, and a random grid with a
       lam != 1 load and a compensator
  14.  On the bundled trace L_global starts below 1 and first reaches 1
       before the fold (the index errs on the safe side)
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import random_system, two_bus
from polyvsi import powerflow
from polyvsi.benchmark import build_benchmark
from polyvsi.errors import DegenerateDenominator, ZeroVoltage
from polyvsi.grid import assemble_admittance, hybrid_partition, kron_reduce
from polyvsi.gridfile import parse_grid_text
from polyvsi.nodes import pm_zip_at
from polyvsi.powerflow import OperatingPoint, PolyphaseSystem, solve_power_flow
from polyvsi.vsi import (
    VsiCoefficients,
    build_augmented,
    evaluate_vsi,
    reduce_augmented,
    te_node,
    vsi_coefficients,
    vsi_global,
    vsi_local,
    vsi_local_dual,
)


# -- Group 1 ---------------------------------------------------------------


def test_augmented_stamp_pattern():
    grid, slacks, _ = two_bus()
    z_line = grid.branches[0].z[0, 0]
    y_br = 1.0 / z_line
    y_te = 1.0 / slacks[0].z_te[0, 0]
    aug = build_augmented(grid, slacks)
    yp = aug.y_prime
    te = te_node(1)
    assert yp.row_nodes == (te, 1, 2)
    assert np.isclose(yp.block(te, te)[0, 0], y_te)
    assert np.isclose(yp.block(te, 1)[0, 0], -y_te)
    assert np.isclose(yp.block(te, 2)[0, 0], 0.0)
    assert np.isclose(yp.block(1, 1)[0, 0], y_te + y_br)
    assert np.isclose(yp.block(1, 2)[0, 0], -y_br)
    assert np.isclose(yp.block(2, 2)[0, 0], y_br)


def test_augmented_mismatch_raises():
    grid, slacks, _ = two_bus()
    with pytest.raises(ValueError):
        build_augmented(grid, [])
    with pytest.raises(ValueError):
        build_augmented(grid, [replace(slacks[0], node=2)])
    bad = replace(slacks[0], v_te=np.array([1000.0 + 0j, 1000.0 + 0j]),
                  z_te=0.5 * np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        build_augmented(grid, [bad])
    clash = replace(grid, nodes=(grid.nodes[0], replace(grid.nodes[1], id=te_node(1))),
                    branches=(replace(grid.branches[0], to_node=te_node(1)),))
    with pytest.raises(ValueError):
        build_augmented(clash, slacks)


# -- Group 2 ---------------------------------------------------------------


def test_two_bus_reduction_closed_form():
    grid, slacks, _ = two_bus()
    z_tot = grid.branches[0].z[0, 0] + slacks[0].z_te[0, 0]
    aug = build_augmented(grid, slacks)
    h = reduce_augmented(aug)
    assert h.m_nodes == (2,)
    assert h.mc_nodes == (te_node(1),)
    assert abs(h.h_mm.data[0, 0] - z_tot) < 1e-12
    assert abs(h.h_mmc.data[0, 0] - 1.0) < 1e-12
    assert abs(h.h_mcmc.data[0, 0]) < 1e-12


@pytest.mark.parametrize("sparse", [False, True])
def test_reduction_matches_stepwise(sparse, synthfeeder, monkeypatch):
    monkeypatch.setattr(powerflow, "SPARSE_MIN_STATES", 0 if sparse else 10**9)
    rng = np.random.default_rng(29)
    cases = [random_system(rng, n_nodes=6, p=p) for p in (1, 2, 3)]
    cases += [build_benchmark(), parse_grid_text(synthfeeder.feeder_text(0, 300))]
    for grid, slacks, resources in cases:
        system = PolyphaseSystem(grid, slacks, resources)
        assert system.sparse == sparse
        assert hasattr(system._y_uu_op, "toarray") == sparse
        eliminate = set(grid.slack_nodes) | set(grid.zero_nodes)
        ref = hybrid_partition(kron_reduce(system.aug.y_prime, eliminate), set(grid.resource_nodes))
        h = system.hybrid
        assert (h.m_nodes, h.mc_nodes) == (ref.m_nodes, ref.mc_nodes)
        # h_mcmc = Y_II - Y_IU Y_UU^-1 Y_UI is what the sources see with the
        # resources open: only the grid's shunts, exactly 0 without any.  Both
        # paths subtract terms of Y_II's size, so it is compared on that scale.
        u0 = len(h.mc_nodes) * grid.p
        y_ii = np.linalg.norm(system.aug.y_prime.data[:u0, :u0])
        for name in ("h_mm", "h_mmc", "h_mcm", "h_mcmc"):
            got, want = getattr(h, name), getattr(ref, name)
            assert (got.row_nodes, got.col_nodes) == (want.row_nodes, want.col_nodes)
            scale = max(np.linalg.norm(want.data), y_ii if name == "h_mcmc" else 0.0)
            assert np.linalg.norm(got.data - want.data) <= 1e-10 * scale, name


# -- Group 3 ---------------------------------------------------------------


def test_zero_loading_coefficients():
    grid, slacks, resources = two_bus()
    system = PolyphaseSystem(grid, slacks, resources)
    op, _ = solve_power_flow(system, xi=0.0)
    coeffs = vsi_coefficients(system.hybrid, slacks,
                              [r.with_lam(0.0) for r in resources], op)
    assert abs(coeffs.a[0]) < 1e-14
    assert abs(coeffs.c[0]) < 1e-14
    assert abs(coeffs.b[0] - slacks[0].v_te[0]) < 1e-12


def test_coefficients_match_scalar_loop():
    # The packed path against pm_zip_at, along the loading trajectory too:
    # at xi = 1.3 loads run at lam = 1.3 while compensators stay at 1.
    rng = np.random.default_rng(31)
    done = 0
    kinds = set()
    while done < 8:
        grid, slacks, base = random_system(rng)
        if not grid.resource_nodes:
            continue
        system = PolyphaseSystem(grid, slacks, base)
        op, _ = solve_power_flow(system, xi=1.0)
        h = system.hybrid
        v_te = np.concatenate([slacks[0].v_te])
        for xi in (1.0, 1.3):
            resources = system.resources_at(xi)
            kinds |= {(r.kind, r.lam) for r in resources}
            coeffs = vsi_coefficients(h, slacks, resources, op)
            res_by_node = {r.node: r for r in resources}
            for i, (node, phase) in enumerate(coeffs.pairs):
                v_i = op.voltage(node, phase)
                a = b = c = 0.0 + 0.0j
                for j, (nj, pj) in enumerate(coeffs.pairs):
                    v_j = op.voltage(nj, pj)
                    dec = pm_zip_at(res_by_node[nj], pj, v_j)
                    hij = h.h_mm.data[i, j]
                    a += hij * v_j * dec.y_pm / v_i
                    b += hij * dec.i_pm
                    c += np.conj(v_i) * hij * np.conj(dec.s_pm / v_j)
                for k in range(v_te.size):
                    b += h.h_mmc.data[i, k] * v_te[k]
                scale = max(abs(coeffs.b[i]), 1.0)
                assert abs(a - coeffs.a[i]) <= 1e-10 * max(abs(coeffs.a[i]), 1.0)
                assert abs(b - coeffs.b[i]) <= 1e-10 * scale
                assert abs(c - coeffs.c[i]) <= 1e-10 * max(abs(coeffs.c[i]), 1.0)
        done += 1
    assert kinds == {("load", 1.0), ("load", 1.3), ("compensator", 1.0)}


def test_coefficients_at_addressing():
    grid, slacks, resources = two_bus()
    system = PolyphaseSystem(grid, slacks, resources)
    op, _ = solve_power_flow(system, xi=1.0)
    coeffs = vsi_coefficients(system.hybrid, slacks, resources, op)
    a, b, c = coeffs.at(2, 1)
    assert a == coeffs.a[0] and b == coeffs.b[0] and c == coeffs.c[0]
    with pytest.raises(ValueError):
        coeffs.at(2, 9)


def test_missing_resource_raises():
    grid, slacks, resources = two_bus()
    system = PolyphaseSystem(grid, slacks, resources)
    op, _ = solve_power_flow(system, xi=1.0)
    with pytest.raises(ValueError, match="no resource model"):
        vsi_coefficients(system.hybrid, slacks, [], op)


# -- Group 4 ---------------------------------------------------------------


def test_two_bus_closed_form_index():
    grid, slacks, resources = two_bus()
    system = PolyphaseSystem(grid, slacks, resources)
    op, _ = solve_power_flow(system, xi=1.0, eps=1e-12)
    e_src = 1000.0
    r_tot = 1.0
    p_load = 125e3
    v_exact = (e_src + np.sqrt(e_src**2 - 4.0 * p_load * r_tot)) / 2.0
    assert abs(op.magnitude(2, 1) - v_exact) < 1e-6
    result = system.vsi_at(system.pack(op), 1.0)
    l_exact = abs(1.0 - e_src / v_exact)
    assert abs(result.local[(2, 1)] - l_exact) < 1e-8
    assert result.critical == (2, 1)


def test_primal_dual_agree_at_solutions():
    rng = np.random.default_rng(37)
    done = 0
    while done < 10:
        grid, slacks, resources = random_system(rng)
        if not grid.resource_nodes:
            continue
        system = PolyphaseSystem(grid, slacks, resources)
        op, res = solve_power_flow(system, xi=1.0)
        assert res.converged
        coeffs = vsi_coefficients(system.hybrid, slacks, resources, op)
        primal = vsi_local(coeffs, op)
        dual = vsi_local_dual(coeffs, op)
        for pair in primal:
            assert abs(primal[pair] - dual[pair]) <= 1e-6 * max(primal[pair], 1.0)
        done += 1


def test_zero_loading_index_vanishes():
    rng = np.random.default_rng(41)
    done = 0
    while done < 6:
        grid, slacks, resources = random_system(rng)
        if not grid.resource_nodes:
            continue
        loads_only = [replace(r, kind="load") for r in resources]
        system = PolyphaseSystem(grid, slacks, loads_only)
        op, _ = solve_power_flow(system, xi=0.0)
        result = evaluate_vsi(system.hybrid, slacks, system.resources_at(0.0), op)
        assert result.global_value <= 1e-6
        done += 1


def test_global_index_tie_break():
    local = {(2, 1): 0.5, (1, 1): 0.5, (1, 2): 0.3}
    r = vsi_global(local, node_order=(1, 2))
    assert r.critical == (1, 1)
    assert r.global_value == 0.5
    r2 = vsi_global(local)
    assert r2.critical == (2, 1)
    with pytest.raises(ValueError):
        vsi_global({})


def test_degenerate_denominator_and_zero_voltage():
    coeffs = VsiCoefficients(pairs=((2, 1),),
                             a=np.array([-1.0 + 1e-12j]),
                             b=np.array([1.0 + 0j]),
                             c=np.array([1.0 + 0j]))
    op = OperatingPoint(nodes=(2,), p=1, e=[[900.0]], theta=[[0.0]])
    with pytest.raises(DegenerateDenominator):
        vsi_local(coeffs, op)
    with pytest.raises(DegenerateDenominator):
        vsi_local_dual(coeffs, op)
    ok = VsiCoefficients(pairs=((2, 1),), a=np.array([0j]),
                         b=np.array([1.0 + 0j]), c=np.array([1.0 + 0j]))
    with pytest.raises(ZeroVoltage):
        vsi_local(ok, OperatingPoint(nodes=(2,), p=1, e=[[0.0]], theta=[[0.0]]))


# -- Group 5 ---------------------------------------------------------------


def _assert_entry_points_agree(system, x, xi):
    packed = system.vsi_at(x, xi)
    models = evaluate_vsi(system.hybrid, system.slacks, system.resources_at(xi),
                          system.operating_point(x, xi))
    assert packed.local == models.local
    assert list(packed.local) == list(models.local)
    assert packed.global_value == models.global_value
    assert packed.critical == models.critical


def test_system_index_equals_model_index(bench_system, bench_trace, synthfeeder):
    for s in bench_trace.samples:
        _assert_entry_points_agree(bench_system, s.x, s.xi)

    system = PolyphaseSystem(*parse_grid_text(synthfeeder.feeder_text(0, 300)))
    assert system.sparse
    _, res = solve_power_flow(system, xi=1.0)
    _assert_entry_points_agree(system, res.x, 1.0)

    rng = np.random.default_rng(43)
    grid, slacks, resources = random_system(rng, n_nodes=6, p=3)
    while len(grid.resource_nodes) < 2:
        grid, slacks, resources = random_system(rng, n_nodes=6, p=3)
    resources = [replace(resources[0], kind="load", lam=0.6),
                 replace(resources[1], kind="compensator")] + resources[2:]
    system = PolyphaseSystem(grid, slacks, resources)
    for xi in (0.5, 1.3):
        _, res = solve_power_flow(system, xi=xi)
        _assert_entry_points_agree(system, res.x, xi)


def test_index_reaches_one_before_the_fold(bench_trace):
    l_global = [s.vsi.global_value for s in bench_trace.samples]
    assert l_global[0] < 1.0
    first = next(k for k, value in enumerate(l_global) if value >= 1.0)
    assert bench_trace.samples[first].xi < bench_trace.xi_max
