"""Homotopy continuation of the power-flow manifold up to the fold.

The loading factor xi scales every load resource's own lam (compensators
keep theirs).  From a converged base case the tracer alternates a tangent
predictor with a pseudo-arclength corrector: the predictor solves
D_x f dx = -D_xi f and steps sigma along the normalized tangent, the
corrector solves f = 0 together with a sphere constraint centered on the
last accepted point.  A corrected point with nonincreasing xi is evidence
the step wrapped around the fold; the step is halved and retried from the
same anchor.

Guaranteed: accepted samples solve f = 0 at strictly increasing xi, so
xi_max is a lower bound on the fold's loading.  fold-detected means the
Jacobian at the last sample is singular, or a corrector regressed and
every halved retry from the last sample (at most MAX_HALVINGS, none below
sigma * SIGMA_MIN_RATIO) failed to reach a higher xi: the fold is
bracketed between xi_max and that last step.  Not guaranteed: that the
samples stay on the upper branch.  The tangent is always oriented toward
+xi, so near the nose the samples can alternate across it and the final
sample may lie on the lower branch.  On the bundled feeder det J_x
changes sign at each of samples 43 to 49, and the final one is on the
lower branch.

Works on any problem exposing residual(x, xi), jacobian_x(x, xi) and
jacobian_xi(x, xi); PolyphaseSystem adds the hooks used to enrich samples
with operating points, index values, and Jacobian singular values.  The
base and the final sample record the exact (sv_min, sv_mean, sv_max) of
J_x from a values-only SVD.  Every other sample records sv_min alone, from
one warm-started inverse subspace step (powerflow.jacobian_svd): an upper
bound that agreed with the full SVD to within 1e-6 relative on the
feeders measured.  system.svd_at(s.x, s.xi) gives the full triplet of any
sample on demand.

Each anchor's J_x is evaluated once and factored once by
grid.linear_solver, whose docstring states the solve rule: the tangent,
every corrector step from that anchor, the sample's subspace step and, at
the base, the seeding of the step's block all solve on that one factor.
The corrector is a chord method: it evaluates f and D_xi f at each iterate
but never J_x, and eliminates the sphere row by bordering, so it factors
nothing.  A chord iterate that diverges fails as a typed SingularJacobian,
with no numpy warning.  Only the base solve factors its own Jacobians, one
per Newton iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .blocks import array_dataclass
from .errors import BaseCaseDiverged, NonConvergence, SingularJacobian
from .grid import linear_solver
from .powerflow import SvdBlock, newton_at, newton_solve, require_count, start_vector

TERM_FOLD = "fold-detected"
TERM_STEP_LIMIT = "step-limit"
TERM_CORRECTOR = "corrector-failure"

# Step halving at one anchor stops after MAX_HALVINGS retries or when the
# step would drop below sigma * SIGMA_MIN_RATIO.  The base case gets at most
# MAX_CORRECTOR_ITER Newton corrections, and every corrector as many chord
# corrections.
MAX_HALVINGS = 6
SIGMA_MIN_RATIO = 1.0 / 256.0
MAX_CORRECTOR_ITER = 20


@dataclass(frozen=True)
class CpfConfig:
    """Continuation controls.

    sigma is the arclength step in normalized state units and eps the
    Newton tolerance of the base case and the corrector, both finite and
    > 0.  max_steps, an integer >= 1, bounds the predictor-corrector steps.
    record_vsi stores the index at every sample.  record_svd stores Jacobian
    singular values: the exact triplet at the base and the final sample,
    sv_min alone (within 1e-6 relative) in between.  xi_start, finite and
    >= 0, is the loading of the base case.  A value out of range raises
    ValueError naming the field.
    """

    sigma: float = 0.05
    eps: float = 1e-8
    max_steps: int = 500
    record_vsi: bool = True
    record_svd: bool = True
    xi_start: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be a finite number > 0, got {self.sigma!r}")
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps must be a finite number > 0, got {self.eps!r}")
        if not 0.0 <= self.xi_start < math.inf:
            raise ValueError(f"xi_start must be a finite number >= 0, got {self.xi_start!r}")
        require_count("max_steps", self.max_steps, 1)


@array_dataclass(frozen=True)
class CpfSample:
    """One accepted continuation point.

    sv is (sv_min, sv_mean, sv_max) of the state Jacobian, exact at the base
    and the final sample; intermediate samples hold (sv_min, None, None),
    with sv_min a Ritz upper bound, measured within 1e-6 relative of the
    exact value (powerflow.jacobian_svd).  None when singular values are
    not recorded.
    """

    x: np.ndarray
    xi: float
    op: object = None
    vsi: object = None
    sv: tuple | None = None


@dataclass
class CpfTrace:
    """Accepted samples in order of strictly increasing xi, the termination
    reason, and one event per failed corrector, saying whether sigma was
    halved or why the anchor stopped.  xi_max, the last sample's xi, bounds
    the fold from below; final may lie past the nose."""

    samples: list = field(default_factory=list)
    termination: str = ""
    events: list = field(default_factory=list)

    @property
    def xi_max(self) -> float:
        if not self.samples:
            raise ValueError("empty trace")
        return self.samples[-1].xi

    @property
    def final(self) -> CpfSample:
        if not self.samples:
            raise ValueError("empty trace")
        return self.samples[-1]


def tangent_direction(problem, x: np.ndarray, xi: float, solve) -> tuple[np.ndarray, float]:
    """Unit tangent (dx, dxi) of the solution path, oriented toward +xi; solve
    is grid.linear_solver of J_x at (x, xi)."""
    dx = solve(-problem.jacobian_xi(x, xi))
    scale = float(np.sqrt(np.dot(dx, dx) + 1.0))
    return dx / scale, 1.0 / scale


def arclength_correct(problem, predicted, anchor, sigma: float, solve, eps: float = 1e-8):
    """Chord-correct a predicted point onto the path at arclength sigma.

    Solves the augmented system [f(x, xi); (|x - x_a|^2 + (xi - xi_a)^2 -
    sigma^2) / sigma^2] = 0 by newton_solve from the prediction, with at
    most MAX_CORRECTOR_ITER corrections.  solve is grid.linear_solver of J_x
    at the anchor, and every correction solves on that one factor J_a in
    place of the iterate's J_x: the chord method (Allgower & Georg,
    Introduction to Numerical Continuation Methods, 1990).  The sphere row
    (r, r_xi) is eliminated by Keller's bordering: with g the residual
    [f; sphere], one two-column solve J_a [w1 w2] = [g_f, D_xi f] gives
    dxi = (g_sphere - r.w1) / (r_xi - r.w2) and dx = w1 - dxi w2.  So the
    corrector evaluates f and D_xi f at each iterate, never J_x, and factors
    nothing.  Returns (x, xi); raises NonConvergence like newton_solve, and
    SingularJacobian when sigma^2 underflows the normal floats, when solve
    fails, or when the border's pivot r_xi - r.w2 is zero or gives a step
    that is not finite.  An iterate that overflows reaches one of those
    checks as inf or nan, with numpy's overflow and invalid warnings off.
    """
    x_pred, xi_pred = predicted
    x_a, xi_a = anchor
    x_a, xi_a = np.asarray(x_a, dtype=float), float(xi_a)
    n = x_a.size
    s2 = float(sigma) ** 2
    if not s2 >= np.finfo(float).tiny:
        raise SingularJacobian(f"sphere row of radius {sigma!r} is singular: its square underflows")

    def fun(z):
        x, xi = z[:n], z[n]
        dx = x - x_a
        dxi = xi - xi_a
        sphere = (np.dot(dx, dx) + dxi * dxi - s2) / s2
        return np.concatenate([problem.residual(x, xi), [sphere]])

    def chord(z):
        x, xi = z[:n], float(z[n])
        r, r_xi = 2.0 * (x - x_a) / s2, 2.0 * (xi - xi_a) / s2
        j_xi = problem.jacobian_xi(x, xi)

        def step(g):
            w = solve(np.column_stack([g[:n], j_xi]))
            rw1, rw2 = (r @ w).tolist()
            pivot = r_xi - rw2
            dxi = (float(g[n]) - rw1) / pivot if pivot else math.inf
            if not math.isfinite(dxi):
                raise SingularJacobian("bordered corrector matrix is singular in its sphere row")
            return np.append(w[:, 0] - dxi * w[:, 1], dxi)

        return step

    z0 = np.concatenate([np.asarray(x_pred, dtype=float), [float(xi_pred)]])
    # A diverging chord overflows to inf or nan; the finiteness checks above
    # and in linear_solver then raise SingularJacobian, so numpy stays quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        res = newton_solve(fun, chord, z0, eps=eps, max_iter=MAX_CORRECTOR_ITER)
    return res.x[:n], float(res.x[n])


def _make_sample(system, x: np.ndarray, xi: float, config: CpfConfig) -> CpfSample:
    op = system.operating_point(x, xi) if hasattr(system, "operating_point") else None
    vsi = None
    if config.record_vsi and hasattr(system, "vsi_at"):
        vsi = system.vsi_at(x, xi)
    return CpfSample(x=np.asarray(x, dtype=float).copy(), xi=float(xi), op=op, vsi=vsi)


def _record_svd(system, trace: CpfTrace, config: CpfConfig, block: SvdBlock | None, j,
                solve=None) -> None:
    """Fill the last sample's sv: a step of block while the sample has a
    successor, the exact triplet (block None) once it is the final one.  j is
    the sample's J_x if the tangent evaluated it, else None, and solve the
    tangent's linear_solver of j."""
    if config.record_svd and hasattr(system, "svd_at"):
        s = trace.samples[-1]
        trace.samples[-1] = replace(s, sv=system.svd_at(s.x, s.xi, block, j, solve))


def run_cpf(system, config: CpfConfig | None = None, x0: np.ndarray | None = None) -> CpfTrace:
    """Trace the solution path from xi_start until the fold or a budget.

    The base case is solved at fixed xi from start_vector(system, x0), with
    at most MAX_CORRECTOR_ITER Newton corrections; BaseCaseDiverged when it
    does not converge.  The trace holds every accepted sample; termination
    is one of fold-detected, step-limit, or corrector-failure.
    Each sample's singular values are recorded once the next sample is
    accepted or the trace ends, so the code knows which sample is final;
    they come from the J_x that the tangent evaluated at the sample, where
    there is one, and from the tangent's factor of it, so each anchor's J_x
    is evaluated once and factored once.  The correctors from that anchor
    solve on the same factor.
    """
    config = config or CpfConfig()
    trace = CpfTrace()
    xi0 = config.xi_start
    x0 = start_vector(system, x0)
    try:
        base = newton_at(system, xi0, x0, config.eps, MAX_CORRECTOR_ITER)
    except (NonConvergence, SingularJacobian) as exc:
        raise BaseCaseDiverged(f"base case at xi = {xi0} diverged: {exc}") from exc

    x_k, xi_k = base.x, float(xi0)
    trace.samples.append(_make_sample(system, x_k, xi_k, config))

    sigma = config.sigma
    sigma_floor = config.sigma * SIGMA_MIN_RATIO
    fold_evidence = False
    block = SvdBlock()
    termination = TERM_STEP_LIMIT
    j_k = solve_k = None  # held while J_x at the anchor (x_k, xi_k) and its factor

    for step in range(config.max_steps):
        try:
            j_k = system.jacobian_x(x_k, xi_k)
            solve_k = linear_solver(j_k, "state Jacobian at the anchor")
            t_x, t_xi = tangent_direction(system, x_k, xi_k, solve_k)
        except SingularJacobian:
            trace.events.append(f"step {step}: singular Jacobian at anchor, fold reached")
            termination = TERM_FOLD
            break

        accepted = False
        for halving in range(MAX_HALVINGS + 1):
            predicted = (x_k + sigma * t_x, xi_k + sigma * t_xi)
            try:
                x_c, xi_c = arclength_correct(system, predicted, (x_k, xi_k), sigma, solve_k,
                                              eps=config.eps)
            except (NonConvergence, SingularJacobian):
                failure = "corrector diverged"
            else:
                if xi_c > xi_k:
                    accepted = True
                    break
                failure = f"corrector regressed (xi {xi_c:.6f} <= {xi_k:.6f})"
                fold_evidence = True
            if halving == MAX_HALVINGS or sigma / 2.0 < sigma_floor:
                why = f"{MAX_HALVINGS} halvings spent" if halving == MAX_HALVINGS else "sigma at its floor"
                trace.events.append(f"step {step}: {failure}, {why}, stopped")
                break
            sigma /= 2.0
            trace.events.append(f"step {step}: {failure}, sigma halved")

        if not accepted:
            termination = TERM_FOLD if fold_evidence else TERM_CORRECTOR
            break

        x_k, xi_k = x_c, float(xi_c)
        _record_svd(system, trace, config, block, j_k, solve_k)
        j_k = solve_k = None
        trace.samples.append(_make_sample(system, x_k, xi_k, config))

    _record_svd(system, trace, config, None, j_k)
    trace.termination = termination
    return trace
