"""Polar power flow on the augmented polyphase grid.

Unknowns are the voltage magnitude and angle of every physical node-phase;
the internal Thevenin source voltages are held fixed.  The mismatch is the
complex power balance per node-phase: computed injection V conj((Y' V))
minus the resource model power (zero at slack terminals and zero-injection
nodes).  Magnitudes are normalized by nominal voltage and powers by a common
base so one tolerance applies across voltage levels.

The Jacobian is analytic and is evaluated only on the block pattern of the
admittance, which grid.admittance_entries stamps from the topology: at every
size it is a grid.BandMatrix, one 2p x 2p block per block of Y_uu, factored
by LAPACK's band LU on the system's band order (PolyphaseSystem.band).  The
physical admittance block Y_uu is the BandMatrix of the same node blocks
(AugmentedGrid.y_uu): the system factors it once and keeps that factor on
system.hybrid, where the reduction's source-side blocks and every index
evaluation solve on it; the residual multiplies by it.  Both band orders
come from one Cuthill-McKee order of the grid's nodes, which
build_augmented gives Y_uu's band, and no dense n x n array is formed on
the way.  That order puts each node after its breadth-first parent, so
both band LUs pivot inside a node's block (grid.Band).
Newton iteration checks convergence before each correction, so a point
that already satisfies the tolerance is returned untouched.
"""

from __future__ import annotations

import math
import operator
from dataclasses import field

import numpy as np

from .blocks import array_dataclass, node_phase_rows, phase_column
from .errors import IncompleteModel, NonConvergence, SingularBranch, SingularJacobian, ValidationError
from .grid import ROLE_RESOURCE, Band, BandMatrix, GridModel, linear_solver, validate_parameters
from .nodes import ZipTable
from .vsi import build_augmented, reduce_augmented, vsi_global, vsi_local, zip_coefficients
# Not called here; perfbench/spans.py wraps it by name when tracing.
from .vsi import evaluate_vsi  # noqa: F401

# jacobian_svd's inverse subspace step carries SVD_BLOCK vectors.  Along the
# 252-state synthetic feeder's trace the worst sv_min error was 7.5e-6
# relative with 4 vectors and 1.1e-8 with 8.  Seeding stops once the Ritz
# value matches the exact smallest singular value to the SVD's own rounding
# (3 steps on both CPF benchmark feeders), or after SEED_ROUNDS steps.
SVD_BLOCK = 8
SEED_ROUNDS = 20


def wrap_angle(theta: np.ndarray) -> np.ndarray:
    """Wrap angles into (-pi, pi]."""
    out = np.remainder(np.asarray(theta, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    return np.where(out == -np.pi, np.pi, out)


@array_dataclass(frozen=True)
class OperatingPoint:
    """Voltage magnitudes/angles per (node, phase) plus the loading factor.

    e and theta have shape (len(nodes), p) and nodes are distinct, else
    ValueError; phases are 1-based in accessors, which raise ValueError for
    a phase outside 1..p.
    """

    nodes: tuple
    p: int
    e: np.ndarray
    theta: np.ndarray
    xi: float = 1.0
    _rows: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        e = np.asarray(self.e, dtype=float)
        th = np.asarray(self.theta, dtype=float)
        shape = (len(self.nodes), self.p)
        if e.shape != shape or th.shape != shape:
            raise ValueError(f"e/theta must have shape {shape}")
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "_rows", {n: i for i, n in enumerate(self.nodes)})
        if len(self._rows) != len(self.nodes):
            raise ValueError("duplicate node ids")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "theta", th)

    def _row(self, node) -> int:
        return self._rows[node]

    def magnitude(self, node, phase: int) -> float:
        return float(self.e[self._row(node), phase_column(phase, self.p)])

    def angle(self, node, phase: int) -> float:
        return float(self.theta[self._row(node), phase_column(phase, self.p)])

    def voltage(self, node, phase: int) -> complex:
        at = self._row(node), phase_column(phase, self.p)
        return complex(self.e[at] * np.exp(1j * self.theta[at]))

    def phasors(self) -> np.ndarray:
        return self.e * np.exp(1j * self.theta)


@array_dataclass(frozen=True)
class Mismatch:
    """Active/reactive power residuals (watt, var) per unknown (node, phase)."""

    nodes: tuple
    p: int
    dp: np.ndarray
    dq: np.ndarray

    @property
    def norm_inf(self) -> float:
        return float(max(np.abs(self.dp).max(), np.abs(self.dq).max()))


@array_dataclass(frozen=True)
class NewtonResult:
    x: np.ndarray
    iterations: int
    residuals: tuple
    converged: bool


class PolyphaseSystem:
    """Assembled power-flow system over a grid, its slacks, and resources.

    Exposes the residual/jacobian interface the continuation engine drives,
    plus converters between packed state vectors and OperatingPoint.  The
    resources live in one packed ZipTable, one row per resource node-phase,
    which the residual, both Jacobians and the index read.  The loading
    trajectory is built in and _lam(xi) is its one rule: each row runs at
    its model's lam times xi on load rows and times 1 on compensator rows.
    band is the grid.Band of jacobian_x's BandMatrix: the node blocks and
    node order of aug.y_uu's band, each node's 2p states (its E rows, then its
    theta rows) together.
    slacks are aug.slacks, in the one order build_augmented gives them.
    hybrid is vsi.reduce_augmented's HybridPartition, which holds Y_uu's one
    factor; vsi_at solves three columns on it and never forms h_mm.
    Powers are normalized by s_base (VA); misplaced models raise IncompleteModel.
    """

    s_base = 1e6

    def __init__(self, grid: GridModel, slacks, resources):
        self.grid = grid
        self.p = grid.p
        self.resources = grid.require_models(ROLE_RESOURCE, resources)
        missing = [n.id for n in grid.nodes if n.vnom is None]
        if missing:
            raise IncompleteModel(f"nodes without nominal voltage: {missing}")

        self.aug = build_augmented(grid, slacks)
        self.slacks = self.aug.slacks
        p = self.p
        self.unknown_nodes = grid.node_ids
        nu = self.n_unknown = len(self.unknown_nodes) * p
        # Source voltages in the order of aug.internal_nodes (= hybrid.mc_nodes).
        self._v_fixed = np.concatenate([np.zeros(0, complex)] + [s.v_te for s in self.slacks])
        self._i_from_fixed = self.aug.y_ui @ self._v_fixed

        self.e_nom = np.repeat([n.vnom for n in grid.nodes], p)

        # Packed resource rows in hybrid.m_nodes order and their positions among the unknowns.
        self._zip = ZipTable.from_resources(self.resources)
        self._res = node_phase_rows(self.unknown_nodes, grid.resource_nodes, p)
        self._dlam = self._lam(1.0) - self._lam(0.0)  # d lam / d xi per row

        # J_x has one 2p x 2p block per node block of Y_uu.  Flat positions in
        # its values of the diagonal blocks' (P, E), (Q, E), (P, theta) and
        # (Q, theta) self terms, each run node-phase by node-phase.
        y_band = self.aug.y_uu.band
        k, phase = np.arange(nu).reshape(-1, p), np.arange(p)
        self.band = Band.of(y_band.order, np.hstack([k, k + nu]), y_band.block_rows, y_band.block_cols)
        diag = np.flatnonzero(y_band.block_rows == y_band.block_cols)[:, None] * (2 * p) ** 2
        self._jac_diag = np.concatenate([(diag + (r * p + phase) * 2 * p + c * p + phase).ravel()
                                         for r, c in ((0, 0), (1, 0), (0, 1), (1, 1))])
        self.hybrid = reduce_augmented(self.aug)

    # -- state packing ---------------------------------------------------

    def flat_start(self) -> np.ndarray:
        """Nominal magnitudes with symmetric sequence angles."""
        seq = -2.0 * np.pi * np.arange(self.p) / self.p
        theta = np.tile(wrap_angle(seq), len(self.unknown_nodes))
        return np.concatenate([np.ones(self.n_unknown), theta])

    def operating_point(self, x: np.ndarray, xi: float) -> OperatingPoint:
        nu = self.n_unknown
        e = (x[:nu] * self.e_nom).reshape(-1, self.p)
        theta = wrap_angle(x[nu:]).reshape(-1, self.p)
        return OperatingPoint(nodes=self.unknown_nodes, p=self.p, e=e, theta=theta, xi=float(xi))

    def pack(self, op: OperatingPoint) -> np.ndarray:
        rows = [op._row(n) for n in self.unknown_nodes]
        return np.concatenate([op.e[rows].ravel() / self.e_nom, op.theta[rows].ravel()])

    def resources_at(self, xi: float) -> tuple:
        """The resource models with each lam set by _lam(xi)."""
        lam = self._lam(xi)[:: self.p]
        return tuple(r.with_lam(float(k)) for r, k in zip(self.resources, lam))

    # -- residual / jacobian ----------------------------------------------

    def _lam(self, xi: float) -> np.ndarray:
        """The loading rule: per-row loading factors at xi, the model's lam
        times xi on load rows and times 1 on compensator rows."""
        return self._zip.lam * np.where(self._zip.load, float(xi), 1.0)

    def _scatter(self, pq) -> np.ndarray:
        """Per-row (P, Q) vectors placed into a zero [P; Q] unknowns vector."""
        out = np.zeros(2 * self.n_unknown)
        out[self._res] = pq[0]
        out[self.n_unknown + self._res] = pq[1]
        return out

    def _split(self, x: np.ndarray):
        nu = self.n_unknown
        e = x[:nu] * self.e_nom
        theta = x[nu:]
        v = e * np.exp(1j * theta)
        i_u = self._i_from_fixed + self.aug.y_uu @ v
        return e, theta, v, i_u

    def residual(self, x: np.ndarray, xi: float) -> np.ndarray:
        e, _, v, i_u = self._split(x)
        s = v * np.conj(i_u)
        model = self._scatter(self._zip.power(e[self._res], self._lam(xi)))
        return (np.concatenate([s.real, s.imag]) - model) / self.s_base

    def jacobian_x(self, x: np.ndarray, xi: float):
        """d residual / d [E_norm; theta] on the nonzero pattern of Y_uu.

        With c_k = e_nom_k / s_base and D_ik = v_i conj(Y_ik e^{j theta_k}) c_k,
        the off-diagonal blocks are d(P, Q)_i / dE_norm_k = (Re, Im) D_ik and
        d(P, Q)_i / dtheta_k = (Im, -Re) D_ik E_norm_k.  The diagonal adds the
        self terms e^{j theta_i} conj(I_i) c_i and j v_i conj(I_i) / s_base and
        subtracts the ZIP derivatives.  The result is a BandMatrix on band.
        """
        e, theta, v, i_u = self._split(x)
        n, p, band = self.n_unknown, self.p, self.band
        rows, cols = band.block_rows, band.block_cols
        unit = np.exp(1j * theta)
        col = self.e_nom / self.s_base
        d = np.conj(self.aug.y_uu.values * (unit * col).reshape(-1, p)[cols][:, None, :])
        d *= v.reshape(-1, p)[rows][:, :, None]
        # Each block is [[Re D, Im D E_norm], [Im D, -Re D E_norm]] = [Re; Im] [D, -j D E_norm].
        d = np.concatenate([d, -1j * d * x[:n].reshape(-1, p)[cols][:, None, :]], axis=2)
        vals = np.concatenate([d.real, d.imag], axis=1)

        r = self._res
        dp_de, dq_de = self._zip.power_de(e[r], self._lam(xi))
        de = unit * np.conj(i_u)
        de[r] -= dp_de + 1j * dq_de
        de *= col
        dth = 1j * v * np.conj(i_u) / self.s_base
        vals.reshape(-1)[self._jac_diag] += np.concatenate([de.real, de.imag, dth.real, dth.imag])
        return BandMatrix(band, vals)

    def jacobian_xi(self, x: np.ndarray, xi: float) -> np.ndarray:
        del xi
        e = x[: self.n_unknown] * self.e_nom
        return -self._scatter(self._zip.power(e[self._res], self._dlam)) / self.s_base

    # -- recording hooks ---------------------------------------------------

    def vsi_at(self, x: np.ndarray, xi: float):
        """The index at state x and loading xi, from the packed resource rows."""
        r = self._res
        v = x[r] * self.e_nom[r] * np.exp(1j * wrap_angle(x[self.n_unknown + r]))
        return vsi_global(vsi_local(zip_coefficients(self.hybrid, self._zip, self._lam(xi), self._v_fixed, v)))

    def svd_at(self, x: np.ndarray, xi: float, block: SvdBlock | None = None, j=None,
               solve=None) -> tuple:
        """jacobian_svd of the state Jacobian at (x, xi), stepping block if
        given on solve, that Jacobian's linear_solver; j is the Jacobian
        when the caller has already evaluated it."""
        return jacobian_svd(self.jacobian_x(x, xi) if j is None else j, block, solve)

    # -- reporting ----------------------------------------------------------

    def branch_series_currents(self, op: OperatingPoint) -> list:
        """Per branch: (branch, P-vector of complex series currents).

        The series-element current referred to the to-node winding,
        y (g V_from - V_to); for plain lines this is the conductor current
        between the pi shunts: grid.series_admittance's y applied to the
        drop g V_from - V_to.  Raises ValidationError, as admittance_entries
        does, for a grid that fails the passivity rule, and SingularBranch
        when a current is not finite.
        """
        grid, branches, v = self.grid, self.grid.branches, op.phasors()
        if grid.passivity:
            raise ValidationError(validate_parameters(grid))
        f = [op._row(b.from_node) for b in branches]
        t = [op._row(b.to_node) for b in branches]
        drop = np.array([b.gain for b in branches])[:, None] * v[f] - v[t]
        current = (grid.series_admittance[0] @ drop[:, :, None])[:, :, 0]
        for b, ok in zip(branches, np.isfinite(current).all(axis=1)):
            if not ok:
                raise SingularBranch(f"branch {b.from_node}-{b.to_node} series impedance "
                                     "gives a solution that is not finite")
        return list(zip(branches, current))


def mismatch(system: PolyphaseSystem, x: OperatingPoint) -> Mismatch:
    """Power balance residual at the operating point, in watt/var."""
    f = system.residual(system.pack(x), x.xi) * system.s_base
    nu = system.n_unknown
    return Mismatch(
        nodes=system.unknown_nodes,
        p=system.p,
        dp=f[:nu].reshape(-1, system.p),
        dq=f[nu:].reshape(-1, system.p),
    )


@array_dataclass()
class SvdBlock:
    """Approximate right singular vectors of the smallest singular values of
    the last state Jacobian jacobian_svd saw: the warm start of its next
    inverse subspace step.  None until jacobian_svd seeds it."""

    vectors: np.ndarray | None = None


def jacobian_svd(a, block: SvdBlock | None = None, solve=None) -> tuple:
    """(smallest, mean, largest) singular value of the state Jacobian a.

    Without a block, or with one not yet seeded, the values come from a
    values-only SVD of a's dense copy, the only place J_x is densified.  An
    unseeded block is seeded on the way: from a fixed-seed start, inverse
    subspace steps run until the Ritz value matches the exact smallest
    singular value, so no SVD with vectors is formed.  With a seeded block
    the result is (sv_min, None, None) from one step of inverse subspace
    iteration on J'J warm-started from the block: solve J' Y = V and
    J W = Y on one LU factor of J (the band LU of a BandMatrix),
    orthonormalize W into Q, and take the smallest singular value of the
    thin J Q; its right vectors become the block.  That value is a Ritz
    value, so it bounds the smallest singular value from above.
    Stepped along the continuation traces it agreed with the full SVD to
    2.5e-9 relative on the bundled feeder, 9.7e-8 on the 252-state and
    1.2e-8 on the 612-state synthetic feeder (every sample, OpenBLAS at one
    thread), and to 6.5e-7 on the 1812-state one (16 samples checked, the
    worst next to the fold).  A Jacobian of at most SVD_BLOCK
    rows always gets the full values, and so does one the step cannot
    solve on.  solve is grid.linear_solver of a, required with a block (in a
    trace it is the CPF tangent's), so the step and the seed reuse its
    factor.  Raises SingularJacobian when the SVD fails, for example on a
    Jacobian that is not finite.
    """
    if block is not None and block.vectors is not None:
        try:
            s, block.vectors = _subspace_step(a, solve, block.vectors)
            return s, None, None
        except SingularJacobian:
            pass  # exactly singular: the full values below still exist
    try:
        s = np.linalg.svd(np.asarray(a), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian(f"Jacobian SVD failed: {exc}") from exc
    if block is not None and block.vectors is None and a.shape[0] > SVD_BLOCK:
        _seed(a, block, float(s[-1]), float(s[0]), solve)
    return float(s[-1]), float(s.mean()), float(s[0])


def _subspace_step(a, solve, v: np.ndarray) -> tuple:
    """(Ritz value, right Ritz vectors) after one inverse subspace step on a'a from v."""
    q, _ = np.linalg.qr(solve(solve(v, transpose=True)))
    _, s, vt = np.linalg.svd(a @ q, full_matrices=False)
    return float(s[-1]), q @ vt.T


def _seed(a, block: SvdBlock, s_min: float, s_max: float, solve) -> None:
    """Iterate from a fixed-seed block until the Ritz value is within
    n eps s_max (the rounding of a's SVD) of s_min, at most SEED_ROUNDS
    steps, on solve (a's linear_solver); a singular a leaves block
    unseeded."""
    v = np.random.default_rng(0).standard_normal((a.shape[0], SVD_BLOCK))
    try:
        for _ in range(SEED_ROUNDS):
            ritz, v = _subspace_step(a, solve, v)
            if ritz - s_min <= a.shape[0] * np.finfo(float).eps * s_max:
                break
    except SingularJacobian:
        return
    block.vectors = v


def require_count(name: str, value, low: int) -> None:
    """ValueError naming the field unless operator.index(value) >= low."""
    try:
        if operator.index(value) >= low:
            return
    except TypeError:  # 2.5, nan, inf
        pass
    raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def start_vector(problem, x0) -> np.ndarray:
    """x0, or problem.flat_start() when x0 is None; ValueError naming x0
    unless that is a finite real 1-D vector of flat_start()'s shape."""
    flat = problem.flat_start() if hasattr(problem, "flat_start") else None
    x = np.asarray(flat if x0 is None else x0)
    if x.ndim != 1 or x.dtype.kind not in "iuf" or not np.isfinite(x).all() or (
            flat is not None and x.shape != flat.shape):
        raise ValueError("x0 must be a finite real 1-D vector, of flat_start()'s shape if any")
    return x


def newton_solve(fun, solver, x0: np.ndarray, eps: float = 1e-8, max_iter: int = 30) -> NewtonResult:
    """Newton iteration with convergence checked before each correction.

    solver(x) returns the solve of the linear model at x: a callable that
    maps fun(x) to the correction d, and x - d is the next iterate.  Power
    flow passes grid.linear_solver of J_x at each iterate, the CPF corrector
    a chord solve on its anchor's factor.  Returns once the max-norm of
    fun(x) is <= eps; raises NonConvergence (with the residual history
    attached) after max_iter corrections, and SingularJacobian if a linear
    solve fails.
    """
    x = np.asarray(x0, dtype=float).copy()
    history = []
    for it in range(max_iter + 1):
        g = np.asarray(fun(x), dtype=float)
        history.append(float(np.abs(g).max()) if g.size else 0.0)
        if history[-1] <= eps:
            return NewtonResult(x=x, iterations=it, residuals=tuple(history), converged=True)
        if it == max_iter:
            break
        x = x - solver(x)(g)
    raise NonConvergence(
        f"no convergence to {eps} within {max_iter} corrections",
        x_last=x,
        residuals=history,
    )


def newton_at(system, xi: float, x0: np.ndarray, eps: float, max_iter: int) -> NewtonResult:
    """newton_solve of system.residual at fixed loading xi from x0, on a
    fresh linear_solver of system.jacobian_x at each iterate: the base-case
    Newton of both solve_power_flow and run_cpf."""
    return newton_solve(lambda x: system.residual(x, xi),
                        lambda x: linear_solver(system.jacobian_x(x, xi), "Newton Jacobian"),
                        x0, eps=eps, max_iter=max_iter)


def solve_power_flow(
    system: PolyphaseSystem,
    xi: float = 1.0,
    x0: np.ndarray | None = None,
    eps: float = 1e-8,
    max_iter: int = 30,
):
    """Solve the fixed-loading power flow; returns (OperatingPoint, NewtonResult).

    xi must be finite and >= 0, eps finite and > 0, max_iter an integer
    >= 0, x0 None or a start_vector; otherwise ValueError naming the field.
    """
    if not 0.0 <= xi < math.inf:
        raise ValueError(f"xi must be a finite number >= 0, got {xi!r}")
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be a finite number > 0, got {eps!r}")
    require_count("max_iter", max_iter, 0)
    res = newton_at(system, xi, start_vector(system, x0), eps, max_iter)
    return system.operating_point(res.x, xi), res
