"""Polar power flow on the augmented polyphase grid.

Unknowns are the voltage magnitude and angle of every physical node-phase;
the internal Thevenin source voltages are held fixed.  The mismatch is the
complex power balance per node-phase: computed injection V conj((Y' V))
minus the resource model power (zero at slack terminals and zero-injection
nodes).  Magnitudes are normalized by nominal voltage and powers by a common
base so one tolerance applies across voltage levels.

The Jacobian is analytic and is evaluated only on the block pattern of the
admittance, which grid.admittance_entries stamps from the topology.  Below
SPARSE_MIN_STATES states it is a dense array solved by LAPACK; from there on
it is a SciPy CSC matrix factored by SuperLU.  The physical admittance block
Y_uu follows the same rule: the hybrid reduction factors it, and the
residual multiplies by it, in the system's container.  SciPy is imported
only on that sparse path, so small systems never pay its import.  Newton
iteration checks convergence before each correction, so a point that
already satisfies the tolerance is returned untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IncompleteModel, NonConvergence, SingularBranch, SingularJacobian
from .grid import GridModel, solve_linear
from .nodes import ZipTable
from .vsi import build_augmented, index_at, reduce_augmented
# Not called here; perfbench/spans.py wraps it by name when tracing.
from .vsi import evaluate_vsi  # noqa: F401

# A state Jacobian with at least this many rows (2 * n_unknown) is sparse.
# Feeders are nearly radial, so J_x holds O(n) nonzeros.  A dense solve costs
# O(n^3) time and 2 (2n)^2 8 bytes (J and LAPACK's copy of it); SuperLU takes
# milliseconds, but importing scipy.sparse.linalg adds about 32 MB of peak
# RSS.  On synthetic feeders the sparse step is faster from about 250 states
# on, and its peak RSS, import included, drops below the dense one between
# 972 and 1212 states (CHANGES.md has the sweep).
SPARSE_MIN_STATES = 1000


def wrap_angle(theta: np.ndarray) -> np.ndarray:
    """Wrap angles into (-pi, pi]."""
    out = np.remainder(np.asarray(theta, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    return np.where(out == -np.pi, np.pi, out)


@dataclass(frozen=True)
class OperatingPoint:
    """Voltage magnitudes/angles per (node, phase) plus the loading factor.

    e and theta have shape (len(nodes), p); phases are 1-based in accessors.
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
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "theta", th)

    def _row(self, node) -> int:
        return self._rows[node]

    def magnitude(self, node, phase: int) -> float:
        return float(self.e[self._row(node), phase - 1])

    def angle(self, node, phase: int) -> float:
        return float(self.theta[self._row(node), phase - 1])

    def voltage(self, node, phase: int) -> complex:
        r = self._row(node)
        return complex(self.e[r, phase - 1] * np.exp(1j * self.theta[r, phase - 1]))

    def phasors(self) -> np.ndarray:
        return self.e * np.exp(1j * self.theta)


@dataclass(frozen=True)
class Mismatch:
    """Active/reactive power residuals (watt, var) per unknown (node, phase)."""

    nodes: tuple
    p: int
    dp: np.ndarray
    dq: np.ndarray

    @property
    def norm_inf(self) -> float:
        return float(max(np.abs(self.dp).max(), np.abs(self.dq).max()))


@dataclass(frozen=True)
class Jacobian:
    """Mismatch derivatives: dx w.r.t. [E_norm; theta], dxi w.r.t. xi.

    dx is a SciPy CSC matrix when the system is sparse (see jacobian_x).
    """

    dx: object
    dxi: np.ndarray


@dataclass(frozen=True)
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
    sparse is set once from the size: True when 2 * n_unknown reaches
    SPARSE_MIN_STATES, and jacobian_x then returns a SciPy CSC matrix.
    """

    def __init__(self, grid: GridModel, slacks, resources, s_base: float = 1e6):
        self.grid = grid
        self.p = grid.p
        self.s_base = float(s_base)
        order = {n: i for i, n in enumerate(grid.node_ids)}
        self.slacks = tuple(sorted(slacks, key=lambda s: order[s.node]))
        self.resources = tuple(sorted(resources, key=lambda r: order[r.node]))
        if {r.node for r in self.resources} != set(grid.resource_nodes):
            raise ValueError("resource models must match the grid's resource nodes")
        missing = [n.id for n in grid.nodes if n.vnom is None]
        if missing:
            raise IncompleteModel(f"nodes without nominal voltage: {missing}")

        self.aug = build_augmented(grid, self.slacks)
        p = self.p
        self.unknown_nodes = grid.node_ids
        nu = self.n_unknown = len(self.unknown_nodes) * p
        u0 = len(self.aug.internal_nodes) * p
        src, u = slice(0, u0), slice(u0, None)
        # Source voltages in the order of aug.internal_nodes (= hybrid.mc_nodes).
        self._v_fixed = np.concatenate([s.v_te for s in self.slacks]) if u0 else np.zeros(0, complex)
        self._i_from_fixed = self.aug.dense(u, src) @ self._v_fixed

        self.e_nom = np.repeat([n.vnom for n in grid.nodes], p)

        for r in self.resources:
            if r.p != p:
                raise ValueError(f"resource {r.node} phase count differs from grid")
        # Packed resource rows in hybrid.m_nodes order and their positions among the unknowns.
        self._zip = ZipTable.from_resources(self.resources)
        flat = {n: i * p for i, n in enumerate(self.unknown_nodes)}
        self._res = np.array([flat[r.node] + q for r in self.resources for q in range(p)], dtype=int)
        self._dlam = self._lam(1.0) - self._lam(0.0)  # d lam / d xi per row

        # Y_uu on the augmented admittance's block pattern.  Positions of the
        # (k, k) entries, k ascending, in each of the four quadrant runs of
        # jacobian_x's value vector.
        self._rows, self._cols, self._y_pattern, _ = self.aug.entries(u, u)
        m = self._rows.size
        on_diag = np.flatnonzero(self._rows == self._cols)
        self._jac_diag = np.concatenate([on_diag + k * m for k in range(4)])
        self._jac_rows = np.concatenate([self._rows, self._rows + nu] * 2)
        self._jac_cols = np.concatenate([self._cols, self._cols, self._cols + nu, self._cols + nu])
        self.sparse = 2 * nu >= SPARSE_MIN_STATES
        # Y_uu in the system's container, for the residual and the reduction.
        if self.sparse:
            from scipy.sparse import csc_array

            self._y_uu_op = csc_array((self._y_pattern, (self._rows, self._cols)), shape=(nu, nu))
        else:
            self._y_uu_op = self.aug.dense(u, u)
        self.hybrid = reduce_augmented(self.aug, self._y_uu_op)

    # -- state packing ---------------------------------------------------

    def flat_start(self, xi: float = 1.0) -> np.ndarray:
        """Nominal magnitudes with symmetric sequence angles."""
        del xi
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
        i_u = self._i_from_fixed + self._y_uu_op @ v
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
        subtracts the ZIP derivatives.  The result is a dense (2n, 2n) array,
        or a SciPy CSC matrix when the system is sparse.
        """
        e, theta, v, i_u = self._split(x)
        n = self.n_unknown
        rows, cols = self._rows, self._cols
        unit = np.exp(1j * theta)
        col = self.e_nom / self.s_base
        d = np.conj(self._y_pattern * (unit * col)[cols]) * v[rows]
        e_norm = x[:n][cols]
        vals = np.concatenate([d.real, d.imag, d.imag * e_norm, d.real * -e_norm])

        r = self._res
        dp_de, dq_de = self._zip.power_de(e[r], self._lam(xi))
        de = unit * np.conj(i_u)
        de[r] -= dp_de + 1j * dq_de
        de *= col
        dth = 1j * v * np.conj(i_u) / self.s_base
        vals[self._jac_diag] += np.concatenate([de.real, de.imag, dth.real, dth.imag])

        shape = (2 * n, 2 * n)
        if self.sparse:
            from scipy.sparse import csc_array

            return csc_array((vals, (self._jac_rows, self._jac_cols)), shape=shape)
        out = np.zeros(shape)
        out[self._jac_rows, self._jac_cols] = vals
        return out

    def jacobian_xi(self, x: np.ndarray, xi: float) -> np.ndarray:
        del xi
        e = x[: self.n_unknown] * self.e_nom
        return -self._scatter(self._zip.power(e[self._res], self._dlam)) / self.s_base

    # -- recording hooks ---------------------------------------------------

    def vsi_at(self, x: np.ndarray, xi: float):
        """The index at state x and loading xi, from the packed resource rows."""
        r = self._res
        v = x[r] * self.e_nom[r] * np.exp(1j * wrap_angle(x[self.n_unknown + r]))
        return index_at(self.hybrid, self._zip, self._lam(xi), self._v_fixed, v)

    def svd_at(self, x: np.ndarray, xi: float) -> tuple:
        return jacobian_svd(self.jacobian_x(x, xi))

    # -- reporting ----------------------------------------------------------

    def branch_series_currents(self, op: OperatingPoint) -> list:
        """Per branch: (branch, P-vector of complex series currents).

        The series-element current referred to the to-node winding,
        y (g V_from - V_to); for plain lines this is the conductor current
        between the pi shunts.  Raises SingularBranch when a series
        impedance is singular or a current is not finite.
        """
        out, v = [], op.phasors()
        for b in self.grid.branches:
            vf, vt = v[op._row(b.from_node)], v[op._row(b.to_node)]
            what = f"branch {b.from_node}-{b.to_node} series impedance"
            out.append((b, solve_linear(b.z, b.gain * vf - vt, what, SingularBranch)))
        return out


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


def jacobian(system: PolyphaseSystem, x: OperatingPoint) -> Jacobian:
    """Analytic mismatch derivatives at the operating point."""
    packed = system.pack(x)
    return Jacobian(dx=system.jacobian_x(packed, x.xi), dxi=system.jacobian_xi(packed, x.xi))


def jacobian_svd(j) -> tuple:
    """(smallest, mean, largest) singular value of the state Jacobian.

    A sparse Jacobian is densified first.  Raises SingularJacobian when the
    SVD fails, for example on a Jacobian that is not finite.
    """
    a = j.dx if isinstance(j, Jacobian) else j
    a = a.toarray() if hasattr(a, "toarray") else np.asarray(a)
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian(f"Jacobian SVD failed: {exc}") from exc
    return float(s[-1]), float(s.mean()), float(s[0])


def bordered(a, col: np.ndarray, row: np.ndarray):
    """[[a, col], [row]] in the container of a (row has a.shape[1] + 1 entries)."""
    if hasattr(a, "toarray"):
        from scipy import sparse

        return sparse.vstack([sparse.hstack([a, col[:, None]]), row[None, :]], format="csc")
    return np.vstack([np.hstack([a, col[:, None]]), row[None, :]])


def newton_solve(fun, jac, x0: np.ndarray, eps: float = 1e-8, max_iter: int = 30) -> NewtonResult:
    """Newton iteration with convergence checked before each correction.

    jac(x) returns an array or a SciPy CSC matrix.  Returns once the
    max-norm of fun(x) is <= eps; raises NonConvergence (with the residual
    history attached) after max_iter corrections, and SingularJacobian if a
    linear solve fails.
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
        x = x - solve_linear(jac(x), g, f"Newton Jacobian at iteration {it}")
    raise NonConvergence(
        f"no convergence to {eps} within {max_iter} corrections",
        x_last=x,
        residuals=history,
    )


def solve_power_flow(
    system: PolyphaseSystem,
    xi: float = 1.0,
    x0: np.ndarray | None = None,
    eps: float = 1e-8,
    max_iter: int = 30,
):
    """Solve the fixed-loading power flow; returns (OperatingPoint, NewtonResult)."""
    if x0 is None:
        x0 = system.flat_start(xi)
    res = newton_solve(
        lambda x: system.residual(x, xi),
        lambda x: system.jacobian_x(x, xi),
        x0,
        eps=eps,
        max_iter=max_iter,
    )
    return system.operating_point(res.x, xi), res
