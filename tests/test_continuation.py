"""
Arclength continuation: predictor, corrector, fold bracketing.

Proves:
 Group 1 - Pieces on a scalar path f = x - xi
   1.  Tangent is (1, 1)/sqrt(2); a sigma step along it lands on the path
   2.  On-path prediction is a corrector fixed point (0 iterations)
   3.  Off-path prediction is pulled back onto path x = xi and the sphere
   3a. A singular or non-finite state Jacobian, a plain array or a
       BandMatrix, makes its solver or the tangent raise SingularJacobian
   3b. A prediction equal to its anchor zeroes the corrector's border
       pivot, and a step sigma whose square underflows leaves no sphere
       row: SingularJacobian, never a numpy warning, and run_cpf counts
       either as a diverged corrector
   3c. A chord corrector that overflows next to the fold fails as a
       diverged corrector without a numpy warning: on 11 seeded random
       grids the trace with warnings as errors equals, sample for sample,
       the trace with warnings ignored

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
       by exactly sigma
   8.  Analytic parabola x^2 + xi - 2 folds at xi = 2: fold-detected
   9.  Residual wall (NaN past xi = 1) exhausts halvings: corrector-failure,
       with one "sigma halved" event per halving done (MAX_HALVINGS) and a
       last event saying why the anchor stopped
  10.  Infeasible base case raises BaseCaseDiverged

 Group 4 - Two-bus fold (closed form xi_max = 2)
  11.  xi_max within 1e-3 of 2, never above; termination fold-detected
  12.  Index at the last sample is ~ 1 (tangency certificate)
  13.  Consecutive samples sit on spheres of radius sigma0 / 2^m
  14.  Every sample satisfies the power-flow residual (manifold adherence)
  15.  xi increases strictly; xi_max/final agree with the sample list
  16.  Recording switches drop vsi / sv payloads; xi_start moves the base
  17.  CpfConfig rejects a non-finite or non-positive sigma or eps, a
       non-finite or negative xi_start and a step budget that is zero or
       not an integer, and solve_power_flow a non-finite or negative xi, a
       bad eps and a negative or non-integer max_iter, each with
       ValueError naming the field; both entry points and run_cpf on a
       problem without flat_start reject an x0 that is not a finite 1-D
       vector of the flat start's shape

 Group 5 - Empty trace
  18.  xi_max / final on an empty trace raise ValueError

 Group 6 - Solver paths
  19a. With numpy's LAPACK binding absent, the bundled trace keeps every
       event, the sample count and the termination, and every x and xi to
       1e-12; every sv_min is within 1e-6 of the full SVD
  19b. Next to the fold (the two-bus case within 1e-3 of xi 2, the last 5
       anchors of the bundled trace) the chord corrector's point solves
       f = 0 to its tolerance and matches full bordered Newton to 1e-8

 Group 7 - Recorded singular values
  20.  Every sample's sv_min is within 1e-6 relative of the full SVD of its
       J_x (bundled feeder, 252-state synthetic feeder); base and final
       carry the exact triplet, intermediate samples sv_min only
  21.  Recording singular values leaves every sample's x and xi
       bit-identical to a trace without them
  22.  A trace calls jacobian_svd once per sample and the full n x n SVD
       twice, or once when the base is the final sample
  22a. J_x is evaluated once at each sample of a trace that ends at the
       fold: the tangent's J_x also gives the sample's singular values
  22b. A trace's LUs are band LUs on the system's order: the base
       case's, one per Newton iteration, and the tangent's at each anchor;
       the corrector, the singular-value step and the base sample's seed
       reuse the tangent's LU, and no solve falls back to
       np.linalg.solve.  The corrector
       evaluates no J_x, every corrector call runs its iterations through
       continuation.newton_solve, and the base case through
       powerflow.newton_solve, once
  23.  The two-bus system (2 states, fewer than the block) records the
       exact triplet at every sample
"""

import copy
import warnings

import numpy as np
import pytest
from polyvsi_cases import band_matrix, random_system, two_bus
from polyvsi import continuation, grid, powerflow
from polyvsi.continuation import (
    MAX_HALVINGS,
    TERM_CORRECTOR,
    TERM_FOLD,
    TERM_STEP_LIMIT,
    CpfConfig,
    CpfTrace,
    arclength_correct,
    run_cpf,
    tangent_direction,
)
from polyvsi.errors import BaseCaseDiverged, SingularJacobian
from polyvsi.grid import linear_solver
from polyvsi.gridfile import parse_grid_text, serialize_grid
from polyvsi.nodes import ZipTable
from polyvsi.powerflow import PolyphaseSystem, jacobian_svd, newton_solve, solve_power_flow


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
    t_x, t_xi = tangent_direction(prob, x, 1.0, linear_solver(prob.jacobian_x(x, 1.0), "J_x"))
    assert t_x[0] == pytest.approx(1.0 / np.sqrt(2.0))
    assert t_xi == pytest.approx(1.0 / np.sqrt(2.0))
    xp, xip = x + 0.3 * t_x, 1.0 + 0.3 * t_xi
    assert xp[0] == pytest.approx(1.0 + 0.3 / np.sqrt(2.0))
    assert xip == pytest.approx(1.0 + 0.3 / np.sqrt(2.0))


def test_corrector_fixed_point():
    prob = _ScalarPath()
    anchor = (np.array([1.0]), 1.0)
    solve = linear_solver(prob.jacobian_x(*anchor), "J_x")
    t_x, t_xi = tangent_direction(prob, *anchor, solve)
    predicted = (anchor[0] + 0.3 * t_x, anchor[1] + 0.3 * t_xi)
    x_c, xi_c = arclength_correct(prob, predicted, anchor, 0.3, solve)
    assert x_c[0] == pytest.approx(predicted[0][0], abs=1e-12)
    assert xi_c == pytest.approx(predicted[1], abs=1e-12)


def test_corrector_pulls_back_to_path():
    prob = _ScalarPath()
    anchor = (np.array([1.0]), 1.0)
    solve = linear_solver(prob.jacobian_x(*anchor), "J_x")
    x_c, xi_c = arclength_correct(prob, (np.array([1.4]), 1.2), anchor, 0.3, solve)
    assert x_c[0] == pytest.approx(xi_c, abs=1e-9)
    r = np.hypot(x_c[0] - 1.0, xi_c - 1.0)
    assert r == pytest.approx(0.3, rel=1e-8)


def test_zero_border_pivot_is_typed(monkeypatch):
    prob = _ScalarPath()
    anchor = (np.array([1.0]), 1.0)
    solve = linear_solver(prob.jacobian_x(*anchor), "J_x")
    with pytest.raises(SingularJacobian, match="border"):
        arclength_correct(prob, anchor, anchor, 0.3, solve)
    with pytest.raises(SingularJacobian, match="underflows"):
        arclength_correct(prob, (anchor[0] + 1e-200, 1.0 + 1e-200), anchor, 1e-200, solve)
    stopped = f"step 0: corrector diverged, {MAX_HALVINGS} halvings spent, stopped"
    tiny = run_cpf(prob, CpfConfig(sigma=1e-200, max_steps=3), x0=np.array([1.0]))
    assert (tiny.termination, len(tiny.samples), tiny.events[-1]) == (TERM_CORRECTOR, 1, stopped)
    # A zero tangent predicts the anchor itself at every halving.
    monkeypatch.setattr(continuation, "tangent_direction", lambda p, x, xi, solve: (0.0 * x, 0.0))
    trace = run_cpf(prob, CpfConfig(max_steps=3), x0=np.array([1.0]))
    assert (trace.termination, len(trace.samples), trace.events[-1]) == (TERM_CORRECTOR, 1, stopped)


def test_diverging_chord_is_typed_without_warnings():
    # On these grids a chord iterate next to the fold overflows.  Under the
    # suite's warnings-as-errors a numpy overflow warning would escape
    # run_cpf; it must fail as a diverged corrector and leave the trace as
    # it is with warnings ignored.
    for seed in (10, 12, 13, 16, 19, 22, 24, 26, 29, 31, 37):
        system = PolyphaseSystem(*random_system(np.random.default_rng(seed), n_nodes=6))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            quiet = run_cpf(system)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run_cpf(system)
        assert quiet.events, seed
        assert (trace.termination, trace.events) == (quiet.termination, quiet.events), seed
        assert len(trace.samples) == len(quiet.samples), seed
        for s, q in zip(trace.samples, quiet.samples):
            assert np.array_equal(s.x, q.x) and s.xi == q.xi, seed


# -- Group 2 ---------------------------------------------------------------


def test_tangent_singular_jacobian_is_typed():
    class Fixed:
        def jacobian_xi(self, x, xi):
            return np.array([-1.0, 0.0])

    for bad in (np.array([[1.0, 2.0], [2.0, 4.0]]), np.full((2, 2), np.nan)):
        for j in (bad, band_matrix(bad)):
            with pytest.raises(SingularJacobian):
                tangent_direction(Fixed(), np.zeros(2), 0.0, linear_solver(j, "J_x"))


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
    assert sum(e.endswith("sigma halved") for e in trace.events) == MAX_HALVINGS
    assert trace.events[-1] == f"step 0: corrector diverged, {MAX_HALVINGS} halvings spent, stopped"


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
    # The library takes the loadings and tolerances the CLI flags take: an
    # infinite eps would accept any point past the fold, a negative xi_start
    # trace from negated loads.
    bad = {
        "sigma": (0.0, -0.05, np.inf, np.nan),
        "eps": (0.0, -1e-8, np.inf, np.nan),
        "xi_start": (-1.0, np.inf, np.nan),
        "max_steps": (0, -1, 2.5, np.inf, np.nan),
    }
    for name, values in bad.items():
        for value in values:
            with pytest.raises(ValueError, match=name):
                CpfConfig(**{name: value})
    CpfConfig(xi_start=0.0, sigma=1e-12, eps=1e-300, max_steps=1)
    grid, slacks, resources = two_bus()
    system = PolyphaseSystem(grid, slacks, resources)
    for name, value in (("xi", -1.0), ("xi", np.inf), ("xi", np.nan),
                        ("eps", 0.0), ("eps", np.inf), ("eps", np.nan),
                        ("max_iter", -1), ("max_iter", 2.5), ("max_iter", np.inf)):
        with pytest.raises(ValueError, match=name):
            solve_power_flow(system, **{name: value})
    assert solve_power_flow(system, xi=0.0)[1].converged
    # A start of the wrong shape failed to broadcast inside numpy, and a nan
    # one surfaced as a solver failure.
    n = system.flat_start().size
    for x0 in (np.zeros(3), np.zeros((1, n)), np.full(n, np.nan), np.full(n, np.inf), "x"):
        with pytest.raises(ValueError, match="x0"):
            solve_power_flow(system, x0=x0)
        with pytest.raises(ValueError, match="x0"):
            run_cpf(system, x0=x0)
    for x0 in (np.array([np.nan]), np.ones((1, 1))):
        with pytest.raises(ValueError, match="x0"):
            run_cpf(_Parabola(), x0=x0)
    assert solve_power_flow(system, x0=list(system.flat_start()))[1].converged


# -- Group 5 ---------------------------------------------------------------


def test_empty_trace_raises():
    empty = CpfTrace()
    with pytest.raises(ValueError):
        _ = empty.xi_max
    with pytest.raises(ValueError):
        _ = empty.final


# -- Group 6 ---------------------------------------------------------------


def test_fallback_solver_keeps_the_bundled_trace(bench_system, bench_trace, monkeypatch):
    # The fallback refactors at every solve where LAPACK solves again on the
    # anchor's band factor with gbtrs, so the chord steps differ in the last
    # digits.
    monkeypatch.setattr(grid, "_lapack", lambda: {})
    trace = run_cpf(bench_system)
    assert (trace.termination, trace.events) == (bench_trace.termination, bench_trace.events)
    assert len(trace.samples) == len(bench_trace.samples)
    for s, d in zip(trace.samples, bench_trace.samples):
        assert np.abs(s.x - d.x).max() <= 1e-12 and abs(s.xi - d.xi) <= 1e-12
    _assert_recorded_spectrum(bench_system, trace)


def _bordered_newton(problem, predicted, anchor, sigma, steps=12):
    """The corrector's point by full Newton on the bordered matrix, rebuilt
    from J_x at every step."""
    (x_a, xi_a), s2 = anchor, sigma**2
    n = x_a.size
    z = np.append(predicted[0], predicted[1])
    for _ in range(steps):
        x, xi = z[:n], z[n]
        g = np.append(problem.residual(x, xi), (np.dot(x - x_a, x - x_a) + (xi - xi_a) ** 2 - s2) / s2)
        a = np.block([[problem.jacobian_x(x, xi), problem.jacobian_xi(x, xi)[:, None]],
                      [2.0 * (x - x_a)[None, :] / s2, np.array([[2.0 * (xi - xi_a) / s2]])]])
        z = z - np.linalg.solve(a, g)
    return z


def test_chord_matches_bordered_newton_at_the_fold(bench_system, bench_trace, two_bus_trace):
    # Each anchor next to the fold retakes the step that reached it.  At the
    # trace's eps of 1e-8 the two points differ by up to 6.5e-8 on the two-bus
    # case, the stopping tolerance times the bordered system's conditioning,
    # so the corrector is held to 1e-10 here.
    eps = 1e-10
    two = PolyphaseSystem(*two_bus())
    near = [k for k, s in enumerate(two_bus_trace.samples) if s.xi >= 2.0 - 1e-3]
    n_bench = len(bench_trace.samples)
    cases = [(two, two_bus_trace, near), (bench_system, bench_trace, range(n_bench - 5, n_bench))]
    for system, trace, anchors in cases:
        assert len(anchors) >= 3
        for k in anchors:
            s, prev = trace.samples[k], trace.samples[k - 1]
            sigma = float(np.sqrt(np.sum((s.x - prev.x) ** 2) + (s.xi - prev.xi) ** 2))
            solve = linear_solver(system.jacobian_x(s.x, s.xi), "J_x")
            t_x, t_xi = tangent_direction(system, s.x, s.xi, solve)
            predicted = (s.x + sigma * t_x, s.xi + sigma * t_xi)
            x_c, xi_c = arclength_correct(system, predicted, (s.x, s.xi), sigma, solve, eps=eps)
            assert np.abs(system.residual(x_c, xi_c)).max() <= eps
            ref = _bordered_newton(system, predicted, (s.x, s.xi), sigma)
            assert np.abs(np.append(x_c, xi_c) - ref).max() <= 1e-8, (k, xi_c)


# -- Group 7 ---------------------------------------------------------------


def _assert_recorded_spectrum(system, trace):
    """sv_min within 1e-6 of the full SVD everywhere; the exact triplet of
    jacobian_svd at base and final, sv_min alone in between."""
    for s in trace.samples:
        j = system.jacobian_x(s.x, s.xi)
        exact = np.linalg.svd(np.asarray(j), compute_uv=False)[-1]
        assert abs(s.sv[0] - exact) <= 1e-6 * exact
    for s in (trace.samples[0], trace.final):
        assert s.sv == jacobian_svd(system.jacobian_x(s.x, s.xi))
    for s in trace.samples[1:-1]:
        assert s.sv[1:] == (None, None)


def test_recorded_sv_min_matches_full_svd(bench_system, bench_trace, feeder_trace):
    for system, trace in ((bench_system, bench_trace), feeder_trace):
        _assert_recorded_spectrum(system, trace)


def test_recording_leaves_the_path_bit_identical(bench_system, bench_trace, feeder_trace):
    plain = CpfConfig(record_vsi=False, record_svd=False)
    for system, trace in ((bench_system, bench_trace), feeder_trace):
        bare = run_cpf(system, plain)
        assert len(bare.samples) == len(trace.samples)
        for s, b in zip(trace.samples, bare.samples):
            assert np.array_equal(s.x, b.x) and s.xi == b.xi


def test_one_jacobian_per_sample(bench_system):
    system = copy.copy(bench_system)
    seen = []

    def jacobian_x(x, xi):
        seen.append((np.asarray(x).tobytes(), xi))
        return bench_system.jacobian_x(x, xi)

    system.jacobian_x = jacobian_x
    trace = run_cpf(system)
    assert trace.termination == TERM_FOLD
    assert [seen.count((s.x.tobytes(), s.xi)) for s in trace.samples] == [1] * len(trace.samples)
    assert [s.sv for s in trace.samples] == [s.sv for s in run_cpf(bench_system).samples]


def test_full_svd_only_at_base_and_final(bench_system, monkeypatch):
    n = 2 * bench_system.n_unknown
    calls = {"jacobian_svd": 0, "full": 0}

    def counted(name, fn, square=False):
        def wrapper(a, *args, **kwargs):
            if not square or a.shape == (n, n):
                calls[name] += 1
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(powerflow, "jacobian_svd", counted("jacobian_svd", powerflow.jacobian_svd))
    monkeypatch.setattr(np.linalg, "svd", counted("full", np.linalg.svd, square=True))
    trace = run_cpf(bench_system)
    assert calls == {"jacobian_svd": len(trace.samples), "full": 2}

    def singular_tangent(*args):
        raise SingularJacobian("fold at the base")

    calls.update(jacobian_svd=0, full=0)
    monkeypatch.setattr(continuation, "tangent_direction", singular_tangent)
    single = run_cpf(bench_system)
    assert len(single.samples) == 1 and len(single.final.sv) == 3
    assert calls == {"jacobian_svd": 1, "full": 1}


def test_one_dense_factor_per_anchor(bench_system, monkeypatch):
    # A trace's only LUs are band LUs on the system's order: the base case's,
    # one per Newton iteration, and the tangent's at each anchor.  The
    # corrector, the singular-value step, and the seed at the base sample,
    # solve on the tangent's factor, and nothing falls back to np.linalg.solve.
    table = grid._lapack()
    if "d" not in table:
        pytest.skip("needs the OpenBLAS of a numpy 2 wheel (numpy.libs/libscipy_openblas64_*)")
    counts = dict.fromkeys(("band_factors", "general_solves", "anchors", "correctors",
                            "corrector_jacobians", "base_calls", "base_iters", "corrector_calls",
                            "corrector_iters"), 0)
    in_corrector = []

    def counted(name, routine):
        def factor(*args):
            counts[name] += 1
            return routine(*args)
        return factor

    def newton(*args, **kwargs):
        key = "corrector" if in_corrector else "base"
        counts[key + "_calls"] += 1
        res = newton_solve(*args, **kwargs)
        counts[key + "_iters"] += res.iterations
        return res

    def tangent(*args):
        counts["anchors"] += 1
        return tangent_direction(*args)

    def corrector(*args, **kwargs):
        counts["correctors"] += 1
        in_corrector.append(True)
        try:
            return arclength_correct(*args, **kwargs)
        finally:
            in_corrector.pop()

    def jacobian_x(x, xi):
        counts["corrector_jacobians"] += bool(in_corrector)
        return bench_system.jacobian_x(x, xi)

    system = copy.copy(bench_system)
    system.jacobian_x = jacobian_x
    routines = {**table["d"], "gbtrf": counted("band_factors", table["d"]["gbtrf"])}
    monkeypatch.setattr(grid, "_lapack", lambda: {**table, "d": routines})
    monkeypatch.setattr(np.linalg, "solve", counted("general_solves", np.linalg.solve))
    monkeypatch.setattr(powerflow, "newton_solve", newton)  # the base case, through powerflow.newton_at
    monkeypatch.setattr(continuation, "newton_solve", newton)
    monkeypatch.setattr(continuation, "tangent_direction", tangent)
    monkeypatch.setattr(continuation, "arclength_correct", corrector)
    trace = run_cpf(system)
    assert trace.termination == TERM_FOLD and counts["base_calls"] == 1
    assert counts["band_factors"] == counts["base_iters"] + counts["anchors"]
    assert counts["general_solves"] == 0
    assert counts["anchors"] == len(trace.samples)
    assert counts["corrector_jacobians"] == 0
    # one corrector per accepted sample and one per failure event
    assert counts["corrector_calls"] == counts["correctors"] == len(trace.samples) - 1 + len(trace.events)
    assert counts["corrector_iters"] > 0


def test_two_bus_records_exact_triplets(two_bus_trace):
    system = PolyphaseSystem(*two_bus())
    assert 2 * system.n_unknown <= powerflow.SVD_BLOCK
    for s in two_bus_trace.samples:
        assert s.sv == jacobian_svd(system.jacobian_x(s.x, s.xi))
