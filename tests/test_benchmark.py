"""
Bundled 25-node benchmark feeder: construction, data, and trace behavior.

Proves:
 Group 1 - Structure
   1.  25 nodes, 24 branches, 3 phases; roles split 1 slack / 16 zero /
       8 resource; augmented admittance is 78 x 78
   2.  Resource placement: loads at 9/14/17/20/23/25, compensators at 12/19

 Group 2 - Parameters against the published tables
   3.  Transformer impedance/gain arithmetic (nameplate on the to-side
       base; LVR taps 1.05)
   4.  Overhead config 300 matches the printed per-mile matrix values
   5.  Upper 69 kV lines expand the sequence parameters exactly
   6.  Slack Thevenin block from the 100 MVA / R-over-X 0.1 rating
   7.  Load table spot checks; ZIP triples (active exact, reactive
       renormalized from the rounded print)
   8.  Ratings sit on the monitored branches

 Group 3 - Bundled file
   9.  The bundled file's config 300/301 blocks are the exact (repr)
       rendering of the published per-mile IEEE 34 tables in km units

 Group 4 - Solution behavior
  10.  Base case converges in a handful of Newton steps with a certificate
  11.  Continuation reaches a fold in a plausible band with strictly
       increasing xi
  12.  The critical local index rises monotonically between loading steps
       (fold-refinement micro-steps may dip below measurement noise)
  13.  Index stays below 1 at base loading, ~1 at the fold
  14.  The smallest singular value collapses by > 100x at the fold
"""

import numpy as np
import pytest

from polyvsi import benchmark
from polyvsi.builders import MILE_KM, positive_sequence_source, seq_to_phase_z
from polyvsi.continuation import TERM_FOLD
from polyvsi.powerflow import mismatch, solve_power_flow


@pytest.fixture(scope="module")
def models():
    return benchmark.build_benchmark()


# -- Group 1 ---------------------------------------------------------------


def test_structure(models, bench_system):
    grid, slacks, resources = models
    assert grid.p == 3
    assert len(grid.nodes) == 25
    assert len(grid.branches) == 24
    assert grid.slack_nodes == (1,)
    assert len(grid.zero_nodes) == 16
    assert grid.resource_nodes == (9, 12, 14, 17, 19, 20, 23, 25)
    assert len(slacks) == 1 and len(resources) == 8
    assert bench_system.aug.y_prime.data.shape == (78, 78)


def test_resource_kinds(models):
    _, _, resources = models
    kinds = {r.node: r.kind for r in resources}
    assert {n for n, k in kinds.items() if k == "compensator"} == {12, 19}
    for r in resources:
        if r.kind == "compensator":
            assert all(ph.p0 == 0.0 and ph.q0 == 100e3 for ph in r.phases)
            assert r.phases[0].zip_im.gamma == 1.0


# -- Group 2 ---------------------------------------------------------------


def _branch(grid, f, t):
    for b in grid.branches:
        if b.from_node == f and b.to_node == t:
            return b
    raise AssertionError(f"no branch {f}-{t}")


def test_transformer_arithmetic(models):
    grid, _, _ = models
    tf = _branch(grid, 5, 6)
    z_base = 24.9e3**2 / 12e6
    assert abs(tf.z[0, 0] - (0.005 + 0.1j) * z_base) < 1e-12
    assert tf.gain == pytest.approx(24.9 / 69.0)
    assert tf.label == "TF"
    for f, t, label in ((11, 12, "LVR1"), (18, 19, "LVR2")):
        lvr = _branch(grid, f, t)
        assert lvr.gain == pytest.approx(1.05)
        assert lvr.label == label
        assert abs(lvr.z[0, 0] - (0.005 + 0.1j) * 24.9e3**2 / 9e6) < 1e-12


def test_config_300_printed_values(models):
    grid, _, _ = models
    line = _branch(grid, 6, 7)
    assert line.label == "300"
    z_mile = line.z / 1.314 * MILE_KM
    assert abs(z_mile[0, 0] - (1.3368 + 1.3343j)) < 1e-4
    assert abs(z_mile[0, 1] - (0.2101 + 0.5779j)) < 1e-4
    b_mile = line.y_shunt_from.imag / (1.314 / 2.0) * MILE_KM * 1e6
    assert abs(b_mile[0, 0] - 5.3350) < 2e-3
    assert abs(b_mile[0, 1] - (-1.5313)) < 2e-3


def test_upper_sequence_lines(models):
    grid, _, _ = models
    z_exact = seq_to_phase_z(0.071 + 0.379j, 0.202 + 0.884j) * 25.0
    for f, t in ((1, 2), (2, 3), (3, 4), (4, 5)):
        line = _branch(grid, f, t)
        assert np.allclose(line.z, z_exact, rtol=0, atol=1e-12)
        assert np.allclose(line.z[0, 0], (0.202 + 2 * 0.071 + (0.884 + 2 * 0.379) * 1j) / 3 * 25)
    assert _branch(grid, 1, 2).rated_a == 300.0


def test_slack_thevenin(models):
    _, slacks, _ = models
    s = slacks[0]
    assert s.node == 1
    v_pg = 69e3 / np.sqrt(3.0)
    assert np.allclose(s.v_te, positive_sequence_source(v_pg), atol=1e-9)
    assert abs(s.z_te[0, 0] - (4.7374 + 47.3737j)) < 1e-3
    assert s.z_te[0, 1] == 0.0


def test_load_table_and_zip(models):
    _, _, resources = models
    by_node = {r.node: r for r in resources}
    n25 = by_node[25]
    assert [ph.p0 for ph in n25.phases] == [-135e3, -100e3, -65e3]
    assert [ph.q0 for ph in n25.phases] == [-80e3, -50e3, -25e3]
    assert n25.v0 == pytest.approx(24.9e3 / np.sqrt(3.0))
    n9 = by_node[9]
    assert [ph.p0 for ph in n9.phases] == [-60e3, -50e3, -40e3]
    # active triple sums to 1 in the print and passes through unchanged
    assert n25.phases[0].zip_re.alpha == -0.067
    # reactive triple sums to 1.001 and is renormalized
    s = 1.064 - 0.088 + 0.025
    assert n25.phases[0].zip_im.alpha == pytest.approx(1.064 / s, abs=1e-15)
    total = n25.phases[0].zip_im.alpha + n25.phases[0].zip_im.beta + n25.phases[0].zip_im.gamma
    assert abs(total - 1.0) < 1e-12


def test_ratings_on_monitored_branches(models):
    grid, _, _ = models
    rated = {(b.from_node, b.to_node): b.rated_a for b in grid.branches
             if b.rated_a is not None}
    assert rated == {(1, 2): 300.0, (5, 6): 230.0, (8, 10): 230.0,
                     (12, 15): 180.0, (16, 18): 180.0, (19, 21): 180.0,
                     (22, 24): 180.0}


# -- Group 3 ---------------------------------------------------------------


def test_bundled_file_identity():
    lines = benchmark.bundled_grid_text().splitlines()
    configs = benchmark.load_overhead_configs()
    for name in ("300", "301"):
        z, b = configs[name]
        expected = [f"config {name}"]
        expected += ["z " + " ".join(f"{float(v.real)!r} {float(v.imag)!r}" for v in row) for row in z]
        expected += ["b " + " ".join(repr(float(v)) for v in row) for row in b]
        expected.append("end")
        start = lines.index(f"config {name}")
        assert lines[start : start + len(expected)] == expected


# -- Group 4 ---------------------------------------------------------------


def test_base_case_converges(bench_system):
    op, res = solve_power_flow(bench_system, xi=1.0)
    assert res.converged
    assert res.iterations <= 10
    assert mismatch(bench_system, op).norm_inf <= 1e-8 * bench_system.s_base
    # feeder-level sanity: all magnitudes within 15% of nominal at base load
    e_pu = op.e / bench_system.e_nom.reshape(-1, 3)
    assert np.all(e_pu > 0.85) and np.all(e_pu < 1.15)


def test_fold_band_and_monotone_xi(bench_trace):
    assert bench_trace.termination == TERM_FOLD
    assert 1.70 <= bench_trace.xi_max <= 1.85
    xis = np.array([s.xi for s in bench_trace.samples])
    assert np.all(np.diff(xis) > 0)


def test_critical_index_monotone_between_loading_steps(bench_trace):
    ls = [s.vsi.local[(25, 1)] for s in bench_trace.samples]
    xis = [s.xi for s in bench_trace.samples]
    for k in range(len(ls) - 1):
        if xis[k + 1] - xis[k] > 1e-4:
            assert ls[k + 1] >= ls[k] - 1e-9
        else:
            # fold-refinement micro-steps (dxi ~ 1e-6) may wiggle below noise
            assert ls[k + 1] >= ls[k] - 0.01


def test_index_below_one_then_near_one(bench_trace):
    first, last = bench_trace.samples[0], bench_trace.final
    assert first.vsi.global_value < 1.0
    assert first.vsi.local[(25, 1)] < 0.5
    assert last.vsi.local[(25, 1)] >= 0.95
    assert last.vsi.global_value <= 1.05
    assert last.vsi.critical == (25, 1)


def test_singular_value_collapse(bench_trace):
    sv_first = bench_trace.samples[0].sv
    sv_last = bench_trace.final.sv
    assert sv_last[0] <= 1e-2 * sv_first[0]
    assert sv_last[2] > 0.0
