"""Voltage-stability index for polyphase grids with Thevenin slacks.

The physical grid is augmented with one internal node per slack carrying the
ideal source behind its Thevenin admittance.  Eliminating the slack terminals
and all zero-injection nodes, then switching the resource nodes to hybrid
parameters, yields a direct relation between internal source voltages,
resource injections, and resource voltages.  reduce_augmented keeps one
band LU of the physical-node admittance block Y_UU (AugmentedGrid.y_uu),
invertible for lossy grids, and solves on it only what is cheap: the
source-side blocks, a few columns per slack.  The resource block h_mm is a
dense |M| x |M| array that the index never forms: it reads h_mm B for the
three columns B it needs, one solve on the factor (FactoredHybrid.solve_m),
and the dense block is formed on demand only.  Y_UU is rejected when it is
singular or when a Hager-Higham estimate of its inverse's 1-norm, as the
resource nodes see it, says it is too ill-conditioned.

Combining that relation with the exact ZIP decomposition of each resource
gives, per resource node-phase, a quadratic voltage equation whose
discriminant-style index

    L = | 1 - b / ((1 + a) V) |  =  | c | / ( |1 + a| |V|^2 )   (at solutions)

certifies solvability while L <= 1.  The global index is the maximum over
resource node-phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .blocks import BlockMatrix, array_dataclass, node_phase_rows
from .errors import DegenerateDenominator, IncompleteModel, SingularInteriorBlock, ZeroVoltage
from .grid import (RCOND_FLOOR, ROLE_RESOURCE, ROLE_SLACK, Band, BandMatrix, GridModel, HybridPartition,
                   admittance_entries, linear_solver, match_models, norm1_estimate, reverse_cuthill_mckee)
from .nodes import ZipTable
# Not called here; perfbench/spans.py wraps polyvsi.vsi.pm_zip_at,
# assemble_admittance, kron_reduce and hybrid_partition by name when tracing
# (`--trace 1`), so the names must stay importable from this module.
from .grid import assemble_admittance, hybrid_partition, kron_reduce  # noqa: F401
from .nodes import pm_zip_at  # noqa: F401

DENOM_TOL = 1e-9


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
    def y_uu(self) -> BandMatrix:
        """The physical admittance block Y_UU, the p x p blocks that
        admittance_entries lists, on the grid's one node order for band
        factors: reverse Cuthill-McKee over its node blocks, one edge per
        block, each node's p phases together."""
        p, u = self.p, slice(len(self.slacks) * self.p, None)
        rows, cols, values, (n, _) = self.entries(u, u)
        block_rows, block_cols = rows[:: p * p] // p, cols[:: p * p] // p
        order = reverse_cuthill_mckee(block_rows, block_cols, n // p)
        return BandMatrix(Band.of(order, np.arange(n).reshape(-1, p), block_rows, block_cols),
                          values.reshape(-1, p, p))

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


@dataclass(frozen=True, eq=False)
class FactoredHybrid:
    """HybridPartition's blocks of an augmented grid, on Y_UU's one factor.

    h_mmc, h_mcm and h_mcmc are formed at construction, as on
    HybridPartition.  h_mm = (Y_UU^-1)[M, M] is not: solve_m(b) gives h_mm b
    from one solve on the factor, which is all the index reads, and the
    dense h_mm is formed on first access, by |M| solves, for the callers
    that compare or print the blocks.  solve is Y_UU's linear_solver, rows
    the flat indices of M's node-phases among Y_UU's rows, and rcond the
    reciprocal condition number reduce_augmented judged Y_UU by.
    """

    m_nodes: tuple
    mc_nodes: tuple
    h_mmc: BlockMatrix
    h_mcm: BlockMatrix
    h_mcmc: BlockMatrix
    solve: Callable = field(repr=False)
    rows: np.ndarray = field(repr=False)
    size: int = field(repr=False)
    rcond: float = field(repr=False)

    @property
    def p(self) -> int:
        return self.h_mmc.p

    pairs = HybridPartition.pairs  # the same rule, formed once per hybrid

    def solve_m(self, b: np.ndarray) -> np.ndarray:
        """h_mm b = (Y_UU^-1 E_M b)[M] for b of shape (|M|,) or (|M|, k),
        where E_M places |M| rows on M's rows of Y_UU."""
        rhs = np.zeros((self.size, *np.shape(b)[1:]), dtype=complex)
        rhs[self.rows] = b
        return self.solve(rhs)[self.rows]

    @cached_property
    def h_mm(self) -> BlockMatrix:
        return BlockMatrix._adopt(self.solve_m(np.eye(self.rows.size)), self.m_nodes, self.m_nodes, self.p)


def reduce_augmented(aug: AugmentedGrid) -> FactoredHybrid:
    """Hybrid parameters of the augmented grid on one factorization of Y_UU.

    With U the physical nodes, I the internal source nodes and M the resource
    nodes, eliminating the slack terminals and zero-injection nodes and then
    switching M to hybrid parameters gives, with E_M the unit columns of M,

        h_mm  = (Y_UU^-1 E_M)[M]        h_mmc  = -(Y_UU^-1 Y_UI)[M]
        h_mcm = (Y_UU^-T Y_IU')[M]'     h_mcmc = Y_II - Y_IU Y_UU^-1 Y_UI

    The result maps [V_internal; I_resource] to [I_internal; V_resource].
    Y_UU (aug.y_uu) is factored once by linear_solver, LAPACK's band LU on
    its band, and the factor kept on the result: the build solves the |I|
    columns of Y_UI and, transposed, of Y_IU', and h_mm is left to
    FactoredHybrid.

    Raises SingularInteriorBlock when Y_UU is singular, a solution is not
    finite, or 1 / (||Y_UU||_1 est) is below RCOND_FLOOR, where est is
    norm1_estimate of Y_UU^-1 E_M, a lower bound on max_j ||Y_UU^-1 e_j||_1
    over j in M, from at most NORM1_ITERATIONS + 1 solves and
    NORM1_ITERATIONS - 1 conjugate-transposed solves on the factor: Y_UU is
    judged through the columns of its inverse that the resource nodes see.
    """
    p, m_nodes, mc_nodes = aug.p, aug.resource_nodes, aug.internal_nodes
    if not m_nodes:
        raise IncompleteModel("the augmented grid has no resource nodes")
    u0 = len(mc_nodes) * p
    mi = node_phase_rows(aug.nodes[len(mc_nodes):], m_nodes, p)
    src, u = slice(0, u0), slice(u0, None)
    y_uu = aug.y_uu
    n = y_uu.shape[0]
    solve = linear_solver(y_uu, "physical admittance block Y_UU", SingularInteriorBlock)

    def columns(x):  # Y_UU^-1 E_M x
        rhs = np.zeros(n, dtype=complex)
        rhs[mi] = x
        return solve(rhs)

    def adjoint(y):  # (Y_UU^-1 E_M)^H y, the conjugate transpose on the factor's transposed solve
        return np.conj(solve(np.conj(y), transpose=True))[mi]

    rcond = 1.0 / (y_uu.norm1() * norm1_estimate(columns, adjoint, mi.size))
    if not rcond >= RCOND_FLOOR:
        raise SingularInteriorBlock("Y_UU is numerically singular as seen from the resource nodes")

    y_iu = aug.dense(src, u)
    ti = np.flatnonzero(np.any(y_iu != 0.0, axis=0))  # the slack terminals
    x_src = solve(aug.dense(u, src))
    z = solve(y_iu.T, transpose=True)
    return FactoredHybrid(
        m_nodes=m_nodes,
        mc_nodes=mc_nodes,
        h_mmc=BlockMatrix._adopt(-x_src[mi], m_nodes, mc_nodes, p),
        h_mcm=BlockMatrix._adopt(z[mi].T, mc_nodes, m_nodes, p),
        h_mcmc=BlockMatrix._adopt(aug.dense(src, src) - y_iu[:, ti] @ x_src[ti], mc_nodes, mc_nodes, p),
        solve=solve,
        rows=mi,
        size=n,
        rcond=rcond,
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


def zip_coefficients(hybrid: HybridPartition | FactoredHybrid, table: ZipTable, lam, v_te,
                     v) -> VsiCoefficients:
    """The coefficient kernel on packed rows.

    table holds the resources of hybrid.m_nodes one row per node-phase, lam
    their loading factors and v their (nonzero) voltage phasors; v_te holds
    the source voltages of hybrid.mc_nodes.  With (Y, I, S) =
    table.split(v, lam), the three columns X = h_mm [V * Y, I, conj(S / V)]
    come from one hybrid.solve_m, and with H_src = h_mmc:

        a = X_0 / V
        b = X_1 + H_src V_te
        c = conj(V) * X_2

    which matches the per-entry sums with the voltage-ratio scalings folded
    in.
    """
    pairs = hybrid.pairs
    ypm, ipm, spm = table.split(_nonzero(v, pairs), lam)
    x = hybrid.solve_m(np.array([v * ypm, ipm, np.conj(spm / v)]).T)
    a = x[:, 0] / v
    b = x[:, 1] + hybrid.h_mmc.data @ v_te
    c = np.conj(v) * x[:, 2]
    return VsiCoefficients(pairs=pairs, a=a, b=b, c=c)


def _packed(hybrid: HybridPartition | FactoredHybrid, slacks, resources, op) -> tuple:
    """(table, lam, v_te, v) for zip_coefficients from resource models at
    their own lam and the operating point op.  match_models places the
    resources on hybrid.m_nodes and the slacks on the terminals of
    hybrid.mc_nodes, so misplaced models raise IncompleteModel."""
    p = hybrid.p
    table = ZipTable.from_resources(match_models(ROLE_RESOURCE, resources, hybrid.m_nodes, p))
    slacks = match_models(ROLE_SLACK, slacks, [node for _, node in hybrid.mc_nodes], p)
    v_te = np.concatenate([np.zeros(0, complex)] + [s.v_te for s in slacks])
    return table, table.lam, v_te, op.phasors().ravel()[node_phase_rows(op.nodes, hybrid.m_nodes, p)]


def vsi_coefficients(hybrid: HybridPartition | FactoredHybrid, slacks, resources, op) -> VsiCoefficients:
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


def index_at(hybrid: HybridPartition | FactoredHybrid, table: ZipTable, lam, v_te, v) -> VsiResult:
    """zip_coefficients -> local indices -> global maximum, on packed rows."""
    coeffs = zip_coefficients(hybrid, table, lam, v_te, v)
    return vsi_global(_primal(coeffs, v))


def evaluate_vsi(hybrid: HybridPartition | FactoredHybrid, slacks, resources, op) -> VsiResult:
    """index_at of the given models at the operating point op."""
    return index_at(hybrid, *_packed(hybrid, slacks, resources, op))
