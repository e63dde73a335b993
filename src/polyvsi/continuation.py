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
with operating points, index values, and Jacobian singular values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BaseCaseDiverged, NonConvergence, SingularJacobian, StepLimitReached
from .powerflow import bordered, newton_solve, solve_linear

TERM_FOLD = "fold-detected"
TERM_STEP_LIMIT = "step-limit"
TERM_CORRECTOR = "corrector-failure"

# Step halving at one anchor stops after MAX_HALVINGS retries or when the
# step would drop below sigma * SIGMA_MIN_RATIO.
MAX_HALVINGS = 6
SIGMA_MIN_RATIO = 1.0 / 256.0


@dataclass(frozen=True)
class CpfConfig:
    """Continuation controls.

    sigma is the arclength step in normalized state units; eps the corrector
    tolerance.
    """

    sigma: float = 0.05
    eps: float = 1e-8
    max_steps: int = 500
    max_corrector_iter: int = 20
    record_vsi: bool = True
    record_svd: bool = True
    xi_start: float = 1.0

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if self.max_steps < 1 or self.max_corrector_iter < 1:
            raise ValueError("iteration budgets must be >= 1")


@dataclass(frozen=True)
class CpfSample:
    """One accepted continuation point."""

    x: np.ndarray
    xi: float
    op: object = None
    vsi: object = None
    sv: tuple | None = None


@dataclass
class CpfTrace:
    """Accepted samples in order of strictly increasing xi, the termination
    reason, and a log of retry events.  xi_max, the last sample's xi, bounds
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


def tangent_direction(problem, x: np.ndarray, xi: float) -> tuple[np.ndarray, float]:
    """Unit tangent (dx, dxi) of the solution path, oriented toward +xi."""
    j = problem.jacobian_x(x, xi)
    dx = solve_linear(j, -problem.jacobian_xi(x, xi), "state Jacobian at the predictor")
    scale = float(np.sqrt(np.dot(dx, dx) + 1.0))
    return dx / scale, 1.0 / scale


def arclength_correct(problem, predicted, anchor, sigma: float, eps: float = 1e-8, max_iter: int = 20):
    """Newton-correct a predicted point onto the path at arclength sigma.

    Solves the augmented system [f(x, xi); (|x - x_a|^2 + (xi - xi_a)^2 -
    sigma^2) / sigma^2] = 0 starting from the prediction.  Returns (x, xi);
    raises NonConvergence or SingularJacobian like newton_solve.
    """
    x_pred, xi_pred = predicted
    x_a, xi_a = anchor
    x_a = np.asarray(x_a, dtype=float)
    n = x_a.size
    s2 = float(sigma) ** 2

    def fun(z):
        x, xi = z[:n], z[n]
        dx = x - x_a
        dxi = xi - xi_a
        sphere = (np.dot(dx, dx) + dxi * dxi - s2) / s2
        return np.concatenate([problem.residual(x, xi), [sphere]])

    def jac(z):
        x, xi = z[:n], z[n]
        bottom = np.concatenate([2.0 * (x - x_a), [2.0 * (xi - xi_a)]]) / s2
        return bordered(problem.jacobian_x(x, xi), problem.jacobian_xi(x, xi), bottom)

    z0 = np.concatenate([np.asarray(x_pred, dtype=float), [float(xi_pred)]])
    res = newton_solve(fun, jac, z0, eps=eps, max_iter=max_iter)
    return res.x[:n], float(res.x[n])


def _make_sample(system, x: np.ndarray, xi: float, config: CpfConfig) -> CpfSample:
    op = system.operating_point(x, xi) if hasattr(system, "operating_point") else None
    vsi = None
    if config.record_vsi and hasattr(system, "vsi_at"):
        vsi = system.vsi_at(x, xi)
    sv = None
    if config.record_svd and hasattr(system, "svd_at"):
        sv = system.svd_at(x, xi)
    return CpfSample(x=np.asarray(x, dtype=float).copy(), xi=float(xi), op=op, vsi=vsi, sv=sv)


def run_cpf(system, config: CpfConfig | None = None, x0: np.ndarray | None = None, strict: bool = False) -> CpfTrace:
    """Trace the solution path from xi_start until the fold or a budget.

    The base case is solved at fixed xi from the flat start (or x0).  The
    trace holds every accepted sample; termination is one of fold-detected,
    step-limit, or corrector-failure.  With strict=True a step-limit raises
    StepLimitReached instead of returning, carrying the partial trace.
    """
    config = config or CpfConfig()
    trace = CpfTrace()
    xi0 = config.xi_start
    if x0 is None:
        if not hasattr(system, "flat_start"):
            raise ValueError("x0 required for problems without flat_start()")
        x0 = system.flat_start(xi0)
    try:
        base = newton_solve(
            lambda x: system.residual(x, xi0),
            lambda x: system.jacobian_x(x, xi0),
            x0,
            eps=config.eps,
            max_iter=config.max_corrector_iter,
        )
    except (NonConvergence, SingularJacobian) as exc:
        raise BaseCaseDiverged(f"base case at xi = {xi0} diverged: {exc}") from exc

    x_k, xi_k = base.x, float(xi0)
    trace.samples.append(_make_sample(system, x_k, xi_k, config))

    sigma = config.sigma
    sigma_floor = config.sigma * SIGMA_MIN_RATIO
    fold_evidence = False

    for step in range(config.max_steps):
        try:
            t_x, t_xi = tangent_direction(system, x_k, xi_k)
        except SingularJacobian:
            trace.events.append(f"step {step}: singular Jacobian at anchor, fold reached")
            trace.termination = TERM_FOLD
            return trace

        accepted = False
        for halving in range(MAX_HALVINGS + 1):
            predicted = (x_k + sigma * t_x, xi_k + sigma * t_xi)
            try:
                x_c, xi_c = arclength_correct(
                    system,
                    predicted,
                    (x_k, xi_k),
                    sigma,
                    eps=config.eps,
                    max_iter=config.max_corrector_iter,
                )
            except (NonConvergence, SingularJacobian):
                outcome = "diverged"
            else:
                if xi_c > xi_k:
                    accepted = True
                    break
                outcome = "regressed"
                fold_evidence = True
                trace.events.append(
                    f"step {step}: corrector {outcome} (xi {xi_c:.6f} <= {xi_k:.6f}), sigma halved"
                )
            if outcome == "diverged":
                trace.events.append(f"step {step}: corrector diverged, sigma halved")
            if halving == MAX_HALVINGS or sigma / 2.0 < sigma_floor:
                break
            sigma /= 2.0

        if not accepted:
            trace.termination = TERM_FOLD if fold_evidence else TERM_CORRECTOR
            return trace

        x_k, xi_k = x_c, float(xi_c)
        trace.samples.append(_make_sample(system, x_k, xi_k, config))

    trace.termination = TERM_STEP_LIMIT
    if strict:
        raise StepLimitReached(f"no fold within {config.max_steps} steps", trace=trace)
    return trace
