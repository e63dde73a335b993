"""Voltage-stability index for polyphase grids with Thevenin slacks.

The physical grid is augmented with one internal node per slack carrying the
ideal source behind its Thevenin admittance; that node enters only through
the slack's y_te, so the augmented grid is the physical-node admittance
block Y_UU (AugmentedGrid.y_uu) plus the slack models.  Eliminating the
slack terminals and all zero-injection nodes, then switching the resource
nodes to hybrid parameters, yields a direct relation between internal
source voltages, resource injections, and resource voltages.
reduce_augmented keeps one band LU of Y_UU, invertible for lossy grids, and
solves on it only what is cheap: the source-side blocks, a few columns per
slack.  The resource block h_mm is a
dense |M| x |M| array that the index never forms: it reads h_mm B for the
three columns B it needs, one solve on the factor (HybridPartition.solve_m),
and the dense block is formed on demand only.  Y_UU is rejected when it is
singular or when a Hager-Higham estimate of its inverse's 1-norm, as the
resource nodes see it, says it is too ill-conditioned.

Combining that relation with the exact ZIP decomposition of each resource
gives, per resource node-phase, a quadratic voltage equation whose
discriminant-style index

    L = | 1 - b / ((1 + a) V) |  =  | c | / ( |1 + a| |V|^2 )   (at solutions)

certifies solvability while L <= 1.  The global index is the maximum over
resource node-phases.  PolyphaseSystem.vsi_at and evaluate_vsi run one
pipeline: the coefficients at V, held with V (VsiCoefficients), then
vsi_local, then vsi_global.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockMatrix, array_dataclass, node_phase_rows
from .errors import DegenerateDenominator, IncompleteModel, SingularInteriorBlock, ZeroVoltage
from .grid import (RCOND_FLOOR, ROLE_RESOURCE, ROLE_SLACK, Band, BandMatrix, GridModel, HybridPartition, Shunt,
                   admittance_entries, cuthill_mckee, linear_solver, match_models, norm1_estimate)
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

    Y' is held as its physical block y_uu, a BandMatrix over the grid's
    nodes, and the slacks: slacks are the slack models in grid order, one
    internal node te_node(s.node) each, the order every source voltage
    vector follows.  An internal node meets Y' only through its slack's
    y_te, which y_uu holds at the terminal's diagonal block, so the
    source-side blocks follow from the slacks alone, with E_T the unit
    columns of the terminals (terminal_rows):

        Y_II = diag(y_te)    Y_UI = -E_T Y_II    Y_IU = -Y_II E_T'

    The slack terminals become zero-injection nodes; injections appear only
    at internal nodes and at resource_nodes, which follow the node order.
    Raises ValueError when a slack or resource node is not among nodes, or
    y_uu is not square with p rows per node.
    """

    nodes: tuple
    y_uu: BandMatrix
    p: int
    slacks: tuple
    resource_nodes: tuple

    def __post_init__(self):
        known = set(self.nodes)
        for what, nodes in (("slack", [s.node for s in self.slacks]), ("resource", self.resource_nodes)):
            if missing := [n for n in nodes if n not in known]:
                raise ValueError(f"{what} nodes {missing} are not among the grid's nodes")
        shape, n = np.shape(self.y_uu), len(self.nodes)
        if shape != (n * self.p, n * self.p):
            raise ValueError(f"y_uu of shape {shape} for {n} nodes at p = {self.p}")

    @property
    def internal_nodes(self) -> tuple:
        return tuple(te_node(s.node) for s in self.slacks)

    @property
    def terminal_rows(self) -> np.ndarray:
        """The rows of Y_UU at the slack terminals' phases, in slack order."""
        return node_phase_rows(self.nodes, [s.node for s in self.slacks], self.p)

    @property
    def y_ii(self) -> np.ndarray:
        """Y_II, each slack's y_te on its internal node's diagonal block."""
        p, k = self.p, len(self.slacks)
        out = np.zeros((k * p, k * p), dtype=complex)
        for i, s in enumerate(self.slacks):
            out[i * p:(i + 1) * p, i * p:(i + 1) * p] += s.y_te
        return out

    @property
    def y_ui(self) -> np.ndarray:
        """Y_UI = -E_T Y_II, dense: the physical rows, the internal columns."""
        out = np.zeros((self.y_uu.shape[0], len(self.slacks) * self.p), dtype=complex)
        out[self.terminal_rows] -= self.y_ii
        return out

    @property
    def y_iu(self) -> np.ndarray:
        """Y_IU = -Y_II E_T', dense, formed from Y_II and not as Y_UI's
        transpose: y_te need not be exactly symmetric."""
        out = np.zeros((len(self.slacks) * self.p, self.y_uu.shape[0]), dtype=complex)
        out[:, self.terminal_rows] -= self.y_ii
        return out

    @property
    def y_prime(self) -> BlockMatrix:
        """Y' as a read-only dense BlockMatrix over the internal nodes, then
        the physical ones, assembled on each access: the reference view."""
        u0 = len(self.slacks) * self.p
        out = np.zeros((u0 + self.y_uu.shape[0],) * 2, dtype=complex)
        out[:u0, :u0], out[:u0, u0:], out[u0:, :u0] = self.y_ii, self.y_iu, self.y_ui
        out[u0:, u0:] = np.asarray(self.y_uu)
        nodes = self.internal_nodes + self.nodes
        return BlockMatrix._adopt(out, nodes, nodes, self.p)


def build_augmented(grid: GridModel, slacks) -> AugmentedGrid:
    """The grid's admittance with each slack's kept y_te as a source from a
    new internal node to its terminal, the slacks in the one order of
    GridModel.require_models; raises as it and admittance_entries do, and
    ValueError when a grid node already has an internal node's id.  Y_UU
    takes y_te as a shunt at the terminal and lies on the grid's one node
    order for band factors: Cuthill-McKee over its node blocks, each node's
    p phases together.  The order is not reversed, so each node follows its
    breadth-first parent and the band LU of Y_UU, and of the state Jacobian
    on the same order, pivots inside the node's block (grid.Band)."""
    slacks = grid.require_models(ROLE_SLACK, slacks)
    clash = set(grid.node_ids) & {te_node(s.node) for s in slacks}
    if clash:
        raise ValueError(f"grid nodes {sorted(map(str, clash))} reuse a source node's id")
    p, n = grid.p, len(grid.nodes)
    rows, cols, values = admittance_entries(grid, [Shunt(s.node, s.y_te) for s in slacks])
    band = Band.of(cuthill_mckee(rows, cols, n), np.arange(n * p).reshape(-1, p), rows, cols)
    return AugmentedGrid(grid.node_ids, BandMatrix(band, values), p, slacks, grid.resource_nodes)


def reduce_augmented(aug: AugmentedGrid) -> HybridPartition:
    """Hybrid parameters of the augmented grid on one factorization of Y_UU.

    With U the physical nodes, I the internal source nodes and M the resource
    nodes, eliminating the slack terminals and zero-injection nodes and then
    switching M to hybrid parameters gives, with E_M the unit columns of M,

        h_mm  = (Y_UU^-1 E_M)[M]        h_mmc  = -(Y_UU^-1 Y_UI)[M]
        h_mcm = (Y_UU^-T Y_IU')[M]'     h_mcmc = Y_II - Y_IU Y_UU^-1 Y_UI

    The result maps [V_internal; I_resource] to [I_internal; V_resource].
    Y_UU (aug.y_uu) is factored once by linear_solver, LAPACK's band LU on
    its band, and the factor kept on the result: the build solves the |I|
    columns of Y_UI and, transposed, of Y_IU', and the result's solve_m
    gives h_mm b from one solve on it, so h_mm itself is formed only when
    read.

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
    mi = node_phase_rows(aug.nodes, m_nodes, p)
    y_uu = aug.y_uu
    n = y_uu.shape[0]
    solve = linear_solver(y_uu, "physical admittance block Y_UU", SingularInteriorBlock)

    def columns(x):  # Y_UU^-1 E_M x for x of shape (|M|,) or (|M|, k)
        rhs = np.zeros((n, *np.shape(x)[1:]), dtype=complex)
        rhs[mi] = x
        return solve(rhs)

    def adjoint(y):  # (Y_UU^-1 E_M)^H y, the conjugate transpose on the factor's transposed solve
        return np.conj(solve(np.conj(y), transpose=True))[mi]

    rcond = 1.0 / (y_uu.norm1() * norm1_estimate(columns, adjoint, mi.size))
    if not rcond >= RCOND_FLOOR:
        raise SingularInteriorBlock("Y_UU is numerically singular as seen from the resource nodes")

    y_iu, t = aug.y_iu, aug.terminal_rows
    x_src = solve(aug.y_ui)
    z = solve(y_iu.T, transpose=True)
    return HybridPartition(
        m_nodes=m_nodes,
        mc_nodes=mc_nodes,
        h_mmc=BlockMatrix._adopt(-x_src[mi], m_nodes, mc_nodes, p),
        h_mcm=BlockMatrix._adopt(z[mi].T, mc_nodes, m_nodes, p),
        h_mcmc=BlockMatrix._adopt(aug.y_ii - y_iu[:, t] @ x_src[t], mc_nodes, mc_nodes, p),
        solve_m=lambda b: columns(b)[mi],
        rcond=rcond,
    )


@array_dataclass(frozen=True)
class VsiCoefficients:
    """The index's one evaluation point: per resource node-phase, in the
    (node, phase) order of ``pairs``, the voltage v and the coefficients
    (a, b, c) of the local quadratic voltage equation taken at that v.
    ValueError unless each is of shape (len(pairs),), and ZeroVoltage
    naming the pair where v is 0."""

    pairs: tuple
    v: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        shape = (len(self.pairs),)
        for name in ("v", "a", "b", "c"):
            if np.shape(getattr(self, name)) != shape:
                raise ValueError(f"{name} of shape {np.shape(getattr(self, name))} for {shape[0]} pairs")
        _nonzero(np.asarray(self.v), self.pairs)


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


def zip_coefficients(hybrid: HybridPartition, table: ZipTable, lam, v_te, v) -> VsiCoefficients:
    """The coefficients at the voltages v, on packed rows.

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
    return VsiCoefficients(pairs=pairs, v=v, a=a, b=b, c=c)


def vsi_coefficients(hybrid: HybridPartition, slacks, resources, op) -> VsiCoefficients:
    """zip_coefficients of the given models, each resource at its own lam,
    at the operating point op.  match_models places the resources on
    hybrid.m_nodes and the slacks on the terminals of hybrid.mc_nodes, so
    misplaced models raise IncompleteModel."""
    p = hybrid.p
    table = ZipTable.from_resources(match_models(ROLE_RESOURCE, resources, hybrid.m_nodes, p))
    slacks = match_models(ROLE_SLACK, slacks, [node for _, node in hybrid.mc_nodes], p)
    v_te = np.concatenate([np.zeros(0, complex)] + [s.v_te for s in slacks])
    v = op.phasors().ravel()[node_phase_rows(op.nodes, hybrid.m_nodes, p)]
    return zip_coefficients(hybrid, table, table.lam, v_te, v)


def _denominator(coeffs: VsiCoefficients) -> np.ndarray:
    """1 + a per pair, after the degenerate-denominator check."""
    denom = 1.0 + coeffs.a
    bad = np.abs(denom) < DENOM_TOL
    if np.any(bad):
        raise DegenerateDenominator(f"|1 + a| < {DENOM_TOL} at {coeffs.pairs[int(np.argmax(bad))]}")
    return denom


def vsi_local(coeffs: VsiCoefficients) -> dict:
    """Local index per (node, phase) at coeffs.v: L = |1 - b / ((1 + a) V)|."""
    return dict(zip(coeffs.pairs, np.abs(1.0 - coeffs.b / (_denominator(coeffs) * coeffs.v)).tolist()))


def vsi_local_dual(coeffs: VsiCoefficients) -> dict:
    """Dual form L = |c| / (|1 + a| |V|^2) at coeffs.v; equals vsi_local at
    power-flow solutions and differs away from them."""
    dual = np.abs(coeffs.c) / (np.abs(_denominator(coeffs)) * np.abs(coeffs.v) ** 2)
    return dict(zip(coeffs.pairs, dual.tolist()))


def vsi_global(local: dict) -> VsiResult:
    """Global index: maximum local value; ties resolve to the first pair in
    insertion order."""
    if not local:
        raise ValueError("no local indices")
    best = max(local, key=local.get)
    return VsiResult(local=dict(local), global_value=float(local[best]), critical=best)


def evaluate_vsi(hybrid: HybridPartition, slacks, resources, op) -> VsiResult:
    """vsi_coefficients -> vsi_local -> vsi_global of the given models at op."""
    return vsi_global(vsi_local(vsi_coefficients(hybrid, slacks, resources, op)))
