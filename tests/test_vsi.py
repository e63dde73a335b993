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
       feeder, 302-node synthetic feeder)
   3b. Existence: every lossy random grid (seeds and p = 1..3 drawn by
       hypothesis; meshes, shunts, Thevenin slack) passes the parameter
       check and reduces, matching 3a's stepwise blocks
   3c. Without loss it can fail: a reactive source, line and shunt that
       pass the parameter check make Y_UU singular (SingularInteriorBlock);
       0.1 ohm of line resistance makes the system build
   3d. Y_UU's factor gets few right-hand sides: a build solves the source
       columns plain and transposed plus the condition estimate's single
       columns, one index evaluation 3 columns, and run_cpf 3 per recorded
       sample; h_mm is never formed (bundled feeder, 252-state and 302-node
       synthetic feeders)
   3e. The condition estimate never exceeds the exact
       max_j ||Y_UU^-1 e_j||_1 over the resource columns (random grids
       p = 1..3), and equals it on the bundled feeder, the 252-state
       feeder and four 302-node feeders, the exact value taken on the
       same factor
   3f. The estimate's adjoint is the conjugate transpose: on a small
       complex Y_UU where the plain transpose leads norm1_estimate to a
       column below the largest, the build's estimate is exact
   3g. With two slacks at p = 3 (random grids with a second source meshed
       through the grid), Y' equals the sum of branch stamps with each
       slack a gain-1 branch through its z_te bit for bit, and the
       reduction matches 3a's stepwise blocks
   3h. Existence across scales: random grids of 2-8 nodes, p = 1..3, with
       each branch z and the slack's z_te scaled by 10^U(-3, 3), build
       without SingularInteriorBlock

 Group 3 - Coefficients
   4.  Zero loading collapses a = c = 0 and b = source voltage
   5.  Vectorized coefficients match an explicit per-pair block loop
   6.  VsiCoefficients.pairs addresses the coefficient arrays
   6a. VsiCoefficients refuses v, a, b or c of a shape other than
       (len(pairs),) with ValueError naming the field
   7.  Missing resource model raises ValueError
   7a. Both index entry points place models by the system build's rule: no
       slacks, a second resource model at a node and a repeated slack list
       raise IncompleteModel naming the nodes (bundled feeder)

 Group 4 - Index values
   8.  Two-bus index matches the closed-form |1 - E/V| at the solution
   9.  Primal and dual forms agree at power-flow solutions (random grids)
  10.  Zero loading gives L ~ 0 at the solved open-circuit point
  11.  Global index picks the maximum; ties resolve to the first pair, and
       the index lists its pairs in hybrid node order, phases ascending
  12.  |1 + a| ~ 0 raises DegenerateDenominator; VsiCoefficients with a
       zero voltage raises ZeroVoltage naming the pair

 Group 5 - One index, two entry points
  13.  system.vsi_at (packed resource rows, the system's loading rule)
       equals evaluate_vsi on system.resources_at(xi) in every local
       value, the global value and the critical pair: every bundled trace
       sample, a 302-node synthetic feeder, and a random grid with a
       lam != 1 load and a compensator
  13a. One evaluate_vsi call reaches polyvsi.vsi.vsi_coefficients once,
       through the module attribute (the name the vsi.coeff span wraps)
  14.  On the bundled trace L_global starts below 1 and first reaches 1
       before the fold (the index errs on the safe side)
  14a. L is no margin estimate: on a random 6-node grid traced to the
       fold, L_global is below 1 at the first sample where the sign of
       det J_x differs from the base sample's
"""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvsi_cases import VNOM, band_matrix, random_system, stamped_blocks, two_bus
from polyvsi import vsi
from polyvsi.benchmark import build_benchmark
from polyvsi.blocks import node_phase_rows
from polyvsi.builders import positive_sequence_source, seq_to_phase_z
from polyvsi.continuation import CpfConfig, run_cpf
from polyvsi.errors import DegenerateDenominator, IncompleteModel, SingularInteriorBlock, ZeroVoltage
from polyvsi.grid import (
    NORM1_ITERATIONS,
    Branch,
    GridModel,
    Node,
    Shunt,
    assemble_admittance,
    hybrid_partition,
    kron_reduce,
    linear_solver,
    norm1_estimate,
    validate_parameters,
)
from polyvsi.gridfile import parse_grid_text
from polyvsi.nodes import SlackModel, pm_zip_at
from polyvsi.powerflow import PolyphaseSystem, solve_power_flow
from polyvsi.vsi import (
    AugmentedGrid,
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


def _assert_matches_stepwise(system):
    """The system's reduction equals stepwise Kron then hybrid."""
    grid = system.grid
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


def test_reduction_matches_stepwise(synthfeeder):
    rng = np.random.default_rng(29)
    cases = [random_system(rng, n_nodes=6, p=p) for p in (1, 2, 3)]
    cases += [build_benchmark(), parse_grid_text(synthfeeder.feeder_text(0, 300))]
    for grid, slacks, resources in cases:
        _assert_matches_stepwise(PolyphaseSystem(grid, slacks, resources))


def test_two_slacks_reduce_like_stepwise():
    # A second source at a new node 7 tied to node 4 of a random p = 3 grid:
    # two terminals meshed through the grid.  Y' is the stamped-branch
    # reference bit for bit, each slack a gain-1 branch from its internal
    # node through its z_te, which pins Y_II, Y_UI and Y_IU as derived from
    # the slacks; the reduction matches the stepwise one in all four blocks.
    for seed in range(3):
        grid, slacks, resources = random_system(np.random.default_rng(seed), n_nodes=6, p=3)
        grid = replace(grid, nodes=grid.nodes + (Node(7, "slack", vnom=VNOM),),
                       branches=grid.branches + (Branch(7, 4, seq_to_phase_z(0.2 + 0.4j, 0.6 + 1.2j)),))
        slacks = [SlackModel(node=7, v_te=0.98 * positive_sequence_source(VNOM, 3),
                             z_te=seq_to_phase_z(0.05 + 0.3j, 0.15 + 0.9j))] + slacks
        system = PolyphaseSystem(grid, slacks, resources)
        aug = system.aug
        assert [s.node for s in aug.slacks] == [1, 7]
        assert aug.internal_nodes == system.hybrid.mc_nodes == (te_node(1), te_node(7))
        nodes, rows, cols, values = stamped_blocks(grid, [Branch(te_node(s.node), s.node, s.z_te)
                                                          for s in aug.slacks])
        n, p = len(nodes), grid.p
        ref = np.zeros((n, p, n, p), dtype=complex)
        ref[rows, :, cols] = values
        assert aug.y_prime.row_nodes == aug.y_prime.col_nodes == nodes
        assert aug.y_prime.data.tobytes() == ref.reshape(n * p, n * p).tobytes()
        _assert_matches_stepwise(system)


def _count_y_uu_columns(monkeypatch) -> list:
    """Wrap reduce_augmented's linear_solver: the returned list gets
    (columns, transpose) for every solve on Y_UU's factor."""
    calls = []
    factor = vsi.linear_solver

    def counting(*args, **kwargs):
        solve = factor(*args, **kwargs)

        def counted(b, transpose=False):
            calls.append((1 if np.ndim(b) == 1 else np.shape(b)[1], transpose))
            return solve(b, transpose)

        return counted

    monkeypatch.setattr(vsi, "linear_solver", counting)
    return calls


def test_index_solves_three_columns_on_the_factor(synthfeeder, monkeypatch):
    calls = _count_y_uu_columns(monkeypatch)
    cases = [(build_benchmark(), True), (parse_grid_text(synthfeeder.feeder_text(0, 40)), True),
             (parse_grid_text(synthfeeder.feeder_text(7000008, 300)), False)]
    for case, trace in cases:
        del calls[:]
        system = PolyphaseSystem(*case)
        u0 = len(system.hybrid.mc_nodes) * system.p
        assert u0 == 3
        # The source columns plain and transposed, and the estimate's single columns.
        assert sorted(c for c in calls if c[0] != 1) == [(u0, False), (u0, True)]
        estimate = [transpose for k, transpose in calls if k == 1]
        assert estimate.count(False) <= NORM1_ITERATIONS + 1
        assert estimate.count(True) <= NORM1_ITERATIONS - 1

        built = len(calls)
        op, _ = solve_power_flow(system)
        evaluate_vsi(system.hybrid, system.slacks, system.resources_at(1.0), op)
        assert calls[built:] == [(3, False)]
        if trace:
            built = len(calls)
            samples = run_cpf(system, CpfConfig(record_svd=False)).samples
            assert all(s.vsi is not None for s in samples)
            assert calls[built:] == [(3, False)] * len(samples)
        assert "h_mm" not in vars(system.hybrid)


def _inverse_norms(hybrid, aug) -> tuple:
    """(estimated, exact) max_j ||Y_UU^-1 e_j||_1 over the resource columns
    j: the estimate from the rcond the build judged, the exact value from
    the unit columns solved on a new factor of the same Y_UU, whose bits are
    the build's, so that the two differ by the estimator alone, not by the
    rounding of two LUs."""
    norm = np.abs(np.asarray(aug.y_uu)).sum(axis=0).max()
    unit = np.eye(aug.y_uu.shape[0])[:, node_phase_rows(aug.nodes, hybrid.m_nodes, aug.p)]
    solve = linear_solver(aug.y_uu, "Y_UU")
    return 1.0 / (hybrid.rcond * norm), np.abs(solve(unit)).sum(axis=0).max()


def test_condition_estimate_is_a_lower_bound():
    rng = np.random.default_rng(47)
    for p in (1, 2, 3):
        for _ in range(8):
            system = PolyphaseSystem(*random_system(rng, p=p))
            estimate, exact = _inverse_norms(system.hybrid, system.aug)
            assert estimate <= exact * (1.0 + 1e-12)


def test_condition_estimate_is_exact_on_feeders(synthfeeder):
    cases = [build_benchmark(), parse_grid_text(synthfeeder.feeder_text(0, 40))]
    cases += [parse_grid_text(synthfeeder.feeder_text(seed, 300))
              for seed in (7000008, 7000009, 9000010, 1000004)]
    for case in cases:
        system = PolyphaseSystem(*case)
        estimate, exact = _inverse_norms(system.hybrid, system.aug)
        assert abs(estimate - exact) <= 1e-12 * exact


def test_condition_estimate_adjoint_is_conjugate():
    # B = Y_UU^-1 over three resource nodes.  Its largest column is the
    # third; stepping with the plain transpose B' in place of B^H, the
    # estimate stops on a column of about half that, so a build whose
    # adjoint dropped the conjugation would judge Y_UU by the wrong column.
    b = np.array([[-0.7 - 0.5j, 0.4 + 0.5j, -0.4 + 0.9j],
                  [-1.1 + 0.3j, 0.7 + 1.1j, -0.3 + 1.7j],
                  [1.0j, 0.7 + 0.5j, 2.5 + 1.4j]])
    exact = np.abs(b).sum(axis=0).max()
    assert norm1_estimate(lambda x: b @ x, lambda y: b.T @ y, 3) < 0.6 * exact
    # Y_UU = B^-1 over the resource nodes 2, 3 and 4, one source tied to node 2.
    slack = SlackModel(node=2, v_te=np.ones(1, dtype=complex), z_te=np.ones((1, 1), dtype=complex))
    aug = AugmentedGrid(nodes=(2, 3, 4), y_uu=band_matrix(np.linalg.inv(b)), p=1, slacks=(slack,),
                        resource_nodes=(2, 3, 4))
    estimate, exact_on_factor = _inverse_norms(reduce_augmented(aug), aug)
    assert abs(exact_on_factor - exact) <= 1e-12 * exact
    assert abs(estimate - exact) <= 1e-12 * exact


@settings(derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 3))
def test_lossy_grids_always_reduce(seed, p):
    # The paper's existence claim: with lossy elements (every random_system
    # impedance has a positive definite real part) Y_MM of the hybrid
    # reduction is invertible, whatever the topology, meshes, shunts and
    # Thevenin slack; the system builds it and agrees with the stepwise one.
    case = random_system(np.random.default_rng(seed), p=p)
    assert validate_parameters(case[0]) == []
    _assert_matches_stepwise(PolyphaseSystem(*case))


def test_lossless_grid_can_fail_to_reduce():
    # Losslessness is what the existence claim needs: a reactive source,
    # line and shunt pass the passivity rule, yet resonate so that Y_UU is
    # exactly singular.  0.1 ohm of loss in the line removes the resonance.
    def case(z_line):
        grid = GridModel(
            nodes=(Node(1, "slack", vnom=1000.0), Node(2, "resource", vnom=1000.0)),
            branches=(Branch(1, 2, np.array([[z_line]])),),
            shunts=(Shunt(2, np.array([[0.25j]])),),
            p=1,
        )
        slacks = [SlackModel(node=1, v_te=np.array([1000.0 + 0j]), z_te=np.array([[2j]]))]
        return grid, slacks, two_bus()[2]

    grid, slacks, resources = case(2j)
    assert validate_parameters(grid) == []
    with pytest.raises(SingularInteriorBlock):
        PolyphaseSystem(grid, slacks, resources)
    PolyphaseSystem(*case(0.1 + 2j))


@settings(derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(2, 8), p=st.integers(1, 3))
def test_lossy_grids_reduce_across_scales(seed, n_nodes, p):
    # The existence claim holds whatever the impedance scale: each branch z
    # and the slack's z_te times 10^U(-3, 3).  Passivity plus the numeric
    # floor (RCOND_FLOOR on Y_UU's condition estimate) is what the library
    # checks, so impedances spread over about 12 decades can be refused
    # (at 10^U(-6, 6), seed 329 with n_nodes 6 and p 3 is, and 330 with p 2).
    rng = np.random.default_rng(seed)
    grid, slacks, resources = random_system(rng, n_nodes=n_nodes, p=p)

    def scaled(z):
        return z * 10.0 ** rng.uniform(-3.0, 3.0)

    grid = replace(grid, branches=tuple(replace(b, z=scaled(b.z)) for b in grid.branches))
    PolyphaseSystem(grid, [replace(s, z_te=scaled(s.z_te)) for s in slacks], resources)


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
    assert coeffs.pairs.index((2, 1)) == 0
    with pytest.raises(ValueError):
        coeffs.pairs.index((2, 9))


def test_coefficients_refuse_a_length_other_than_the_pairs():
    # One coefficient for two pairs would otherwise be broadcast to both.
    pairs, full = ((2, 1), (3, 1)), {name: np.ones(2, dtype=complex) for name in "vabc"}
    for name in "vabc":
        for bad in (np.ones(1, dtype=complex), np.ones((2, 1), dtype=complex), np.complex128(1.0)):
            with pytest.raises(ValueError, match=re.escape(f"{name} of shape {np.shape(bad)} for 2 pairs")):
                VsiCoefficients(pairs=pairs, **{**full, name: bad})
    assert vsi_local(VsiCoefficients(pairs=pairs, **full)) == {(2, 1): 0.5, (3, 1): 0.5}


def test_missing_resource_raises():
    grid, slacks, resources = two_bus()
    system = PolyphaseSystem(grid, slacks, resources)
    op, _ = solve_power_flow(system, xi=1.0)
    with pytest.raises(ValueError, match="no resource model"):
        vsi_coefficients(system.hybrid, slacks, [], op)


@pytest.mark.parametrize("entry", [evaluate_vsi, vsi_coefficients])
@pytest.mark.parametrize("case", ["no-slacks", "second-model-at-9", "slacks-twice"])
def test_index_entry_points_match_models(bench_system, entry, case):
    op, _ = solve_power_flow(bench_system)
    slacks, resources = list(bench_system.slacks), list(bench_system.resources)
    at_9 = next(r for r in resources if r.node == 9).with_lam(2.0)
    nodes = [9, 12, 14, 17, 19, 20, 23, 25]
    slacks, resources, message = {
        "no-slacks": ([], resources, "no slack model for nodes [1]; slack models at [] must sit"),
        "second-model-at-9": (slacks, resources + [at_9],
                              f"resource models at {nodes + [9]} must sit one-to-one on the "
                              f"resource nodes {nodes}"),
        "slacks-twice": (slacks * 2, resources,
                         "slack models at [1, 1] must sit one-to-one on the slack nodes [1]"),
    }[case]
    with pytest.raises(IncompleteModel, match=re.escape(message)):
        entry(bench_system.hybrid, slacks, resources, op)


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
        primal = vsi_local(coeffs)
        dual = vsi_local_dual(coeffs)
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
    r = vsi_global(local)
    assert r.critical == (2, 1)
    assert r.global_value == 0.5
    with pytest.raises(ValueError):
        vsi_global({})
    system = PolyphaseSystem(*build_benchmark())
    op, _ = solve_power_flow(system, xi=1.0)
    h = system.hybrid
    pairs = [(n, q) for n in h.m_nodes for q in range(1, h.h_mm.p + 1)]
    assert list(system.vsi_at(system.pack(op), 1.0).local) == pairs


def test_degenerate_denominator_and_zero_voltage():
    coeffs = VsiCoefficients(pairs=((2, 1),),
                             v=np.array([900.0 + 0j]),
                             a=np.array([-1.0 + 1e-12j]),
                             b=np.array([1.0 + 0j]),
                             c=np.array([1.0 + 0j]))
    with pytest.raises(DegenerateDenominator):
        vsi_local(coeffs)
    with pytest.raises(DegenerateDenominator):
        vsi_local_dual(coeffs)
    with pytest.raises(ZeroVoltage, match=re.escape("zero voltage at (2, 1)")):
        VsiCoefficients(pairs=((2, 1),), v=[0j], a=np.array([0j]),
                        b=np.array([1.0 + 0j]), c=np.array([1.0 + 0j]))


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


def test_evaluate_vsi_reads_the_coefficients_through_the_module(bench_system, monkeypatch):
    # The span that times the coefficients wraps the module attribute, so
    # evaluate_vsi must look vsi_coefficients up there, once per call.
    op, _ = solve_power_flow(bench_system)
    calls, coefficients = [], vsi.vsi_coefficients
    monkeypatch.setattr(vsi, "vsi_coefficients", lambda *args: calls.append(args) or coefficients(*args))
    result = vsi.evaluate_vsi(bench_system.hybrid, bench_system.slacks, bench_system.resources, op)
    assert len(calls) == 1
    assert result == vsi_global(vsi_local(coefficients(*calls[0])))


def test_index_reaches_one_before_the_fold(bench_trace):
    l_global = [s.vsi.global_value for s in bench_trace.samples]
    assert l_global[0] < 1.0
    first = next(k for k, value in enumerate(l_global) if value >= 1.0)
    assert bench_trace.samples[first].xi < bench_trace.xi_max


def test_index_is_no_margin_estimate():
    # L names the critical node-phase at one solution; it does not read the
    # margin to collapse.  Here det J_x first changes sign at the last
    # sample (xi 14.788646 -> 14.789050, the fold between them), and
    # L_global reads 0.8513 -> 0.8618 across it.
    system = PolyphaseSystem(*random_system(np.random.default_rng(13), n_nodes=6))
    trace = run_cpf(system, CpfConfig(sigma=0.5, max_steps=3000, record_svd=False))
    signs = [np.linalg.slogdet(np.asarray(system.jacobian_x(s.x, s.xi)))[0] for s in trace.samples]
    first = next(k for k, sign in enumerate(signs) if sign != signs[0])
    assert trace.samples[first].vsi.global_value < 1.0
