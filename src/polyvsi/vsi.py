"""Voltage-stability index for polyphase grids with Thevenin slacks.

The physical grid is augmented with one internal node per slack carrying the
ideal source behind its Thevenin admittance.  Eliminating the slack terminals
and all zero-injection nodes, then switching the resource nodes to hybrid
parameters, yields a direct relation between internal source voltages,
resource injections, and resource voltages.  reduce_augmented reaches those
hybrid blocks from one factorization of the physical-node admittance block
Y_UU, which is invertible for lossy grids, and rejects Y_UU when it is
singular or too ill-conditioned as seen from the resource nodes.

Combining that relation with the exact ZIP decomposition of each resource
gives, per resource node-phase, a quadratic voltage equation whose
discriminant-style index

    L = | 1 - b / ((1 + a) V) |  =  | c | / ( |1 + a| |V|^2 )   (at solutions)

certifies solvability while L <= 1.  The global index is the maximum over
resource node-phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import BlockMatrix, array_dataclass, node_phase_rows
from .errors import DegenerateDenominator, IncompleteModel, SingularInteriorBlock, ZeroVoltage
from .grid import (RCOND_FLOOR, ROLE_RESOURCE, ROLE_SLACK, Band, GridModel, HybridPartition, _norm1,
                   admittance_entries, linear_solver, match_models, reverse_cuthill_mckee)
from .nodes import ZipTable
# Not called here; perfbench/spans.py wraps polyvsi.vsi.pm_zip_at,
# assemble_admittance, kron_reduce and hybrid_partition by name when tracing
# (`--trace 1`), so the names must stay importable from this module.
from .grid import assemble_admittance, hybrid_partition, kron_reduce  # noqa: F401
from .nodes import pm_zip_at  # noqa: F401

DENOM_TOL = 1e-9

# Right-hand-side columns per solve on Y_UU's one factor in reduce_augmented:
# a block of the solution is |U| x 64 complex (0.9 MB at 906 rows), so no
# |U| x |M| array is formed.
_SOLVE_COLUMNS = 64


def te_node(slack_node) -> tuple:
    """Id of the internal source node attached to a slack terminal."""
    return ("te", slack_node)


@array_dataclass(frozen=True)
class AugmentedGrid:
    """Admittance Y' of the grid extended with internal Thevenin source nodes.

    Y' is held as grid.admittance_entries gives it, over the internal nodes
    and then the physical nodes.  slacks are the slack models in grid order,
    one internal node each, the order every source voltage vector follows.
    The slack terminals become zero-injection nodes; injections appear only
    at internal nodes and at resource_nodes, which follow the node order.
    """

    nodes: tuple
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    p: int
    slacks: tuple
    resource_nodes: tuple

    @property
    def internal_nodes(self) -> tuple:
        return self.nodes[: len(self.slacks)]

    def entries(self, rows: slice, cols: slice) -> tuple:
        """(rows, cols, values, shape) of Y' in the flat index ranges rows x
        cols: indices relative to the ranges' starts, in pattern order."""
        n = len(self.nodes) * self.p
        (r0, r1, _), (c0, c1, _) = rows.indices(n), cols.indices(n)
        keep = (self.rows >= r0) & (self.rows < r1) & (self.cols >= c0) & (self.cols < c1)
        return self.rows[keep] - r0, self.cols[keep] - c0, self.values[keep], (r1 - r0, c1 - c0)

    def dense(self, rows: slice = slice(None), cols: slice = slice(None)) -> np.ndarray:
        """Y' over the flat index ranges rows x cols as a dense array."""
        r, c, v, shape = self.entries(rows, cols)
        out = np.zeros(shape, dtype=complex)
        out[r, c] = v
        return out

    @cached_property
    def band(self) -> Band:
        """The grid's one node order for dense factors, as the Band of Y_UU:
        reverse Cuthill-McKee over Y_UU's node pattern, each node's p phases
        together.  Ordered on first access, so a sparse system never is."""
        p, u = self.p, slice(len(self.slacks) * self.p, None)
        rows, cols, _, (n, _) = self.entries(u, u)
        order = reverse_cuthill_mckee(rows // p, cols // p, n // p)[:, None] * p + np.arange(p)
        return Band.of(order.ravel(), rows, cols)

    @property
    def y_prime(self) -> BlockMatrix:
        """Y' as a read-only dense BlockMatrix, built on each access."""
        return BlockMatrix._adopt(self.dense(), self.nodes, self.nodes, self.p)


def build_augmented(grid: GridModel, slacks) -> AugmentedGrid:
    """The grid's admittance with each slack's kept y_te as a source from a
    new internal node to its terminal, the slacks in the one order of
    GridModel.require_models; raises as it and admittance_entries do."""
    slacks = grid.require_models(ROLE_SLACK, slacks)
    entries = admittance_entries(grid, [(te_node(s.node), s.node, s.y_te) for s in slacks])
    return AugmentedGrid(*entries, p=grid.p, slacks=slacks, resource_nodes=grid.resource_nodes)


def reduce_augmented(aug: AugmentedGrid, y_uu=None) -> HybridPartition:
    """Hybrid parameters of the augmented grid from one factorization of Y_UU.

    With U the physical nodes, I the internal source nodes and M the resource
    nodes, eliminating the slack terminals and zero-injection nodes and then
    switching M to hybrid parameters gives the blocks of one solve
    Y_UU X = [Y_UI | E_M], where E_M holds the unit columns of M:

        h_mm  = X[M, E_M]           h_mmc  = -X[M, Y_UI]
        h_mcm = Y_IU X[:, E_M]      h_mcmc = Y_II - Y_IU X[:, Y_UI]

    The result maps [V_internal; I_resource] to [I_internal; V_resource].
    Only the rows M and the columns T where Y_IU is nonzero (the slack
    terminals) of X are kept.  y_uu is Y_UU in the caller's container: by
    default a dense array of aug's entries, factored by LAPACK's band LU on
    aug.band; a SciPy sparse matrix (PolyphaseSystem passes one on large
    grids) is factored by SuperLU and never orders aug.band.  Either is
    factored once (linear_solver) and solved in blocks of _SOLVE_COLUMNS
    columns on that factor.

    Raises SingularInteriorBlock when Y_UU is singular, a solved column is
    not finite, or 1 / (||Y_UU||_1 max_j ||Y_UU^-1 e_j||_1), j in M, is
    below RCOND_FLOOR: Y_UU is judged through the columns of its inverse
    that the resource nodes see.
    """
    p, m_nodes, mc_nodes = aug.p, aug.resource_nodes, aug.internal_nodes
    if not m_nodes:
        raise IncompleteModel("the augmented grid has no resource nodes")
    u0 = len(mc_nodes) * p
    mi = node_phase_rows(aug.nodes[len(mc_nodes):], m_nodes, p)
    src, u = slice(0, u0), slice(u0, None)
    y_iu = aug.dense(src, u)
    y_ui = aug.dense(u, src)
    if y_uu is None:
        y_uu = aug.dense(u, u)
    ti = np.flatnonzero(np.any(y_iu != 0.0, axis=0))

    k = u0 + mi.size  # columns of [Y_UI | E_M]
    solve = linear_solver(y_uu, "physical admittance block Y_UU", SingularInteriorBlock,
                          None if hasattr(y_uu, "toarray") else aug.band)
    x_m = np.empty((mi.size, k), dtype=complex)
    x_t = np.empty((ti.size, k), dtype=complex)
    x_norm = 0.0
    for lo in range(0, k, _SOLVE_COLUMNS):
        cols = np.arange(lo, min(lo + _SOLVE_COLUMNS, k))
        unit = cols >= u0
        b = np.zeros((y_uu.shape[0], cols.size), dtype=complex)
        b[:, ~unit] = y_ui[:, cols[~unit]]
        b[mi[cols[unit] - u0], np.flatnonzero(unit)] = 1.0
        x = solve(b)
        x_norm = max(x_norm, float(np.abs(x[:, unit]).sum(axis=0).max(initial=0.0)))
        x_m[:, cols] = x[mi]
        x_t[:, cols] = x[ti]
    if not 1.0 / (float(_norm1(y_uu)) * x_norm) >= RCOND_FLOOR:
        raise SingularInteriorBlock("Y_UU is numerically singular as seen from the resource nodes")

    y_it = y_iu[:, ti]
    return HybridPartition(
        m_nodes=m_nodes,
        mc_nodes=mc_nodes,
        h_mm=BlockMatrix._adopt(x_m[:, u0:], m_nodes, m_nodes, p),
        h_mmc=BlockMatrix._adopt(-x_m[:, :u0], m_nodes, mc_nodes, p),
        h_mcm=BlockMatrix._adopt(y_it @ x_t[:, u0:], mc_nodes, m_nodes, p),
        h_mcmc=BlockMatrix._adopt(aug.dense(src, src) - y_it @ x_t[:, :u0], mc_nodes, mc_nodes, p),
    )


@array_dataclass(frozen=True)
class VsiCoefficients:
    """Per resource node-phase coefficients (a, b, c) of the local quadratic
    voltage equation, in the (node, phase) order of ``pairs``."""

    pairs: tuple
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class VsiResult:
    """Local indices keyed by (node, phase), the global maximum, and the
    critical pair attaining it."""

    local: dict
    global_value: float
    critical: tuple


def _nonzero(v: np.ndarray, pairs) -> np.ndarray:
    zero = v == 0
    if np.any(zero):
        raise ZeroVoltage(f"zero voltage at {pairs[int(np.argmax(zero))]}")
    return v


def _voltages(op, pairs) -> np.ndarray:
    """Phasors of op at the (node, phase) pairs; ZeroVoltage if any is 0."""
    rows = [op._row(node) for node, _ in pairs]
    return _nonzero(op.phasors()[rows, [phase - 1 for _, phase in pairs]], pairs)


def zip_coefficients(hybrid: HybridPartition, table: ZipTable, lam, v_te, v) -> VsiCoefficients:
    """The coefficient kernel on packed rows.

    table holds the resources of hybrid.m_nodes one row per node-phase, lam
    their loading factors and v their (nonzero) voltage phasors; v_te holds
    the source voltages of hybrid.mc_nodes.  With (Y, I, S) =
    table.split(v, lam), H = h_mm and H_src = h_mmc:

        a = ( H (V * Y) ) / V
        b = H I + H_src V_te
        c = conj(V) * ( H conj(S / V) )

    which matches the per-entry sums with the voltage-ratio scalings folded
    in.
    """
    pairs = tuple((node, phase) for node in hybrid.m_nodes for phase in range(1, hybrid.h_mm.p + 1))
    ypm, ipm, spm = table.split(_nonzero(v, pairs), lam)
    h = hybrid.h_mm.data
    a = (h @ (v * ypm)) / v
    b = h @ ipm + hybrid.h_mmc.data @ v_te
    c = np.conj(v) * (h @ np.conj(spm / v))
    return VsiCoefficients(pairs=pairs, a=a, b=b, c=c)


def _packed(hybrid: HybridPartition, slacks, resources, op) -> tuple:
    """(table, lam, v_te, v) for zip_coefficients from resource models at
    their own lam and the operating point op.  match_models places the
    resources on hybrid.m_nodes and the slacks on the terminals of
    hybrid.mc_nodes, so misplaced models raise IncompleteModel."""
    p = hybrid.h_mm.p
    table = ZipTable.from_resources(match_models(ROLE_RESOURCE, resources, hybrid.m_nodes, p))
    slacks = match_models(ROLE_SLACK, slacks, [node for _, node in hybrid.mc_nodes], p)
    v_te = np.concatenate([np.zeros(0, complex)] + [s.v_te for s in slacks])
    return table, table.lam, v_te, op.phasors().ravel()[node_phase_rows(op.nodes, hybrid.m_nodes, p)]


def vsi_coefficients(hybrid: HybridPartition, slacks, resources, op) -> VsiCoefficients:
    """zip_coefficients of the given models at the operating point op."""
    return zip_coefficients(hybrid, *_packed(hybrid, slacks, resources, op))


def _denominator(coeffs: VsiCoefficients) -> np.ndarray:
    """1 + a per pair, after the degenerate-denominator check."""
    denom = 1.0 + coeffs.a
    bad = np.abs(denom) < DENOM_TOL
    if np.any(bad):
        raise DegenerateDenominator(f"|1 + a| < {DENOM_TOL} at {coeffs.pairs[int(np.argmax(bad))]}")
    return denom


def _primal(coeffs: VsiCoefficients, v: np.ndarray) -> dict:
    return dict(zip(coeffs.pairs, np.abs(1.0 - coeffs.b / (_denominator(coeffs) * v)).tolist()))


def vsi_local(coeffs: VsiCoefficients, op) -> dict:
    """Local index per (node, phase): L = |1 - b / ((1 + a) V)|."""
    return _primal(coeffs, _voltages(op, coeffs.pairs))


def vsi_local_dual(coeffs: VsiCoefficients, op) -> dict:
    """Dual form L = |c| / (|1 + a| |V|^2); equals vsi_local at power-flow
    solutions and differs away from them."""
    dual = np.abs(coeffs.c) / (np.abs(_denominator(coeffs)) * np.abs(_voltages(op, coeffs.pairs)) ** 2)
    return dict(zip(coeffs.pairs, dual.tolist()))


def vsi_global(local: dict) -> VsiResult:
    """Global index: maximum local value; ties resolve to the first pair in
    insertion order."""
    if not local:
        raise ValueError("no local indices")
    best = max(local, key=local.get)
    return VsiResult(local=dict(local), global_value=float(local[best]), critical=best)


def index_at(hybrid: HybridPartition, table: ZipTable, lam, v_te, v) -> VsiResult:
    """zip_coefficients -> local indices -> global maximum, on packed rows."""
    coeffs = zip_coefficients(hybrid, table, lam, v_te, v)
    return vsi_global(_primal(coeffs, v))


def evaluate_vsi(hybrid: HybridPartition, slacks, resources, op) -> VsiResult:
    """index_at of the given models at the operating point op."""
    return index_at(hybrid, *_packed(hybrid, slacks, resources, op))
