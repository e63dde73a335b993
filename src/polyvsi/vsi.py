"""Voltage-stability index for polyphase grids with Thevenin slacks.

The physical grid is augmented with one internal node per slack carrying the
ideal source behind its Thevenin admittance.  Eliminating the slack terminals
and all zero-injection nodes, then switching the resource nodes to hybrid
parameters, yields a direct relation between internal source voltages,
resource injections, and resource voltages.  Combining that relation with
the exact ZIP decomposition of each resource gives, per resource node-phase,
a quadratic voltage equation whose discriminant-style index

    L = | 1 - b / ((1 + a) V) |  =  | c | / ( |1 + a| |V|^2 )   (at solutions)

certifies solvability while L <= 1.  The global index is the maximum over
resource node-phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockMatrix
from .errors import DegenerateDenominator, ZeroVoltage
from .grid import GridModel, HybridPartition, assemble_admittance, hybrid_partition, kron_reduce
from .nodes import ZipTable, slack_interface
# Not called here; perfbench/spans.py wraps polyvsi.vsi.pm_zip_at by name when
# tracing (`--trace 1`), so the name must stay importable from this module.
from .nodes import pm_zip_at  # noqa: F401

DENOM_TOL = 1e-9


def te_node(slack_node) -> tuple:
    """Id of the internal source node attached to a slack terminal."""
    return ("te", slack_node)


@dataclass(frozen=True)
class AugmentedGrid:
    """Admittance of the grid extended with internal Thevenin source nodes.

    y_prime is square over internal nodes (first) followed by the physical
    nodes in grid order.  The slack terminals become zero-injection nodes of
    the augmented system; injections appear only at internal and resource
    nodes.
    """

    y_prime: BlockMatrix
    internal_nodes: tuple
    slack_nodes: tuple
    zero_nodes: tuple
    resource_nodes: tuple


def build_augmented(grid: GridModel, slacks) -> AugmentedGrid:
    """Stamp each slack's Thevenin admittance between a new internal node
    and its terminal on top of the assembled grid admittance."""
    slacks = list(slacks)
    slack_ids = [s.node for s in slacks]
    if set(slack_ids) != set(grid.slack_nodes) or len(slack_ids) != len(set(slack_ids)):
        raise ValueError("slack models must match the grid's slack nodes one-to-one")
    for s in slacks:
        if s.p != grid.p:
            raise ValueError(f"slack {s.node} phase count differs from grid")
    y = assemble_admittance(grid)
    p = grid.p
    internal = tuple(te_node(s.node) for s in slacks)
    order = internal + y.row_nodes
    n = len(order) * p
    data = np.zeros((n, n), dtype=complex)
    phys = len(internal) * p
    data[phys:, phys:] = y.data
    at = {node: slice(i * p, (i + 1) * p) for i, node in enumerate(order)}
    for s in slacks:
        y_te, _ = slack_interface(s)
        ii, tt = at[te_node(s.node)], at[s.node]
        data[ii, ii] += y_te
        data[ii, tt] -= y_te
        data[tt, ii] -= y_te
        data[tt, tt] += y_te
    return AugmentedGrid(
        y_prime=BlockMatrix._adopt(data, order, order, p),
        internal_nodes=internal,
        slack_nodes=tuple(grid.slack_nodes),
        zero_nodes=tuple(grid.zero_nodes),
        resource_nodes=tuple(grid.resource_nodes),
    )


def reduce_augmented(aug: AugmentedGrid, grid: GridModel) -> HybridPartition:
    """Eliminate slack terminals and zero-injection nodes, then switch the
    resource nodes to hybrid parameters.

    The result maps [V_internal; I_resource] to [I_internal; V_resource]:
    h_mcmc couples internal voltages to source currents, h_mm is the
    resource-side impedance-like block, and the off blocks carry the source
    voltages into the resource equations.
    """
    eliminate = set(grid.slack_nodes) | set(grid.zero_nodes)
    reduced = kron_reduce(aug.y_prime, eliminate)
    return hybrid_partition(reduced, set(aug.resource_nodes))


@dataclass(frozen=True)
class VsiCoefficients:
    """Per resource node-phase coefficients (a, b, c) of the local quadratic
    voltage equation, in the (node, phase) order of ``pairs``."""

    pairs: tuple
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def at(self, node, phase: int) -> tuple[complex, complex, complex]:
        i = self.pairs.index((node, phase))
        return complex(self.a[i]), complex(self.b[i]), complex(self.c[i])


@dataclass(frozen=True)
class VsiResult:
    """Local indices keyed by (node, phase), the global maximum, and the
    critical pair attaining it."""

    local: dict
    global_value: float
    critical: tuple


def _voltages(op, pairs) -> np.ndarray:
    """Phasors of op at the (node, phase) pairs; ZeroVoltage if any is 0."""
    v = np.array([op.voltage(node, phase) for node, phase in pairs], dtype=complex)
    zero = v == 0
    if np.any(zero):
        raise ZeroVoltage(f"zero voltage at {pairs[int(np.argmax(zero))]}")
    return v


def vsi_coefficients(hybrid: HybridPartition, slacks, resources, op) -> VsiCoefficients:
    """Evaluate the quadratic coefficients at the operating point op.

    For row (r, p) with resource decompositions (Y_j, I_j, S_j) at the
    operating voltages V_j, using the resource-side hybrid blocks H = h_mm
    and H_src = h_mmc:

        a = ( H (V * Y) ) / V
        b = H I + H_src V_te
        c = conj(V) * ( H conj(S / V) )

    which matches the per-entry sums with the voltage-ratio scalings folded
    in.  All resource voltages must be nonzero.
    """
    p = hybrid.h_mm.p
    res_by_node = {r.node: r for r in resources}
    missing = [n for n in hybrid.m_nodes if n not in res_by_node]
    if missing:
        raise ValueError(f"no resource model for nodes {missing}")
    pairs = tuple((node, phase) for node in hybrid.m_nodes for phase in range(1, p + 1))
    v_r = _voltages(op, pairs)
    table = ZipTable.from_resources([res_by_node[n] for n in hybrid.m_nodes])
    ypm, ipm, spm = table.split(v_r)

    slack_by_te = {te_node(s.node): s for s in slacks}
    v_te = np.empty(len(hybrid.mc_nodes) * p, dtype=complex)
    for i, te in enumerate(hybrid.mc_nodes):
        v_te[i * p : (i + 1) * p] = slack_by_te[te].v_te

    h = hybrid.h_mm.data
    h_src = hybrid.h_mmc.data
    a = (h @ (v_r * ypm)) / v_r
    b = h @ ipm + h_src @ v_te
    c = np.conj(v_r) * (h @ np.conj(spm / v_r))
    return VsiCoefficients(pairs=pairs, a=a, b=b, c=c)


def _local_inputs(coeffs: VsiCoefficients, op) -> tuple:
    """(1 + a, V) per pair, after the degenerate-denominator and zero-voltage
    checks both index forms share."""
    denom = 1.0 + coeffs.a
    bad = np.abs(denom) < DENOM_TOL
    if np.any(bad):
        pair = coeffs.pairs[int(np.argmax(bad))]
        raise DegenerateDenominator(f"|1 + a| < {DENOM_TOL} at {pair}")
    return denom, _voltages(op, coeffs.pairs)


def vsi_local(coeffs: VsiCoefficients, op) -> dict:
    """Local index per (node, phase): L = |1 - b / ((1 + a) V)|."""
    denom, v = _local_inputs(coeffs, op)
    return dict(zip(coeffs.pairs, np.abs(1.0 - coeffs.b / (denom * v)).tolist()))


def vsi_local_dual(coeffs: VsiCoefficients, op) -> dict:
    """Dual form L = |c| / (|1 + a| |V|^2); equals vsi_local at power-flow
    solutions and differs away from them."""
    denom, v = _local_inputs(coeffs, op)
    return dict(zip(coeffs.pairs, (np.abs(coeffs.c) / (np.abs(denom) * np.abs(v) ** 2)).tolist()))


def vsi_global(local: dict, node_order=None) -> VsiResult:
    """Global index: maximum local value; ties resolve to the first pair in
    node_order (or insertion order), lowest phase first."""
    if not local:
        raise ValueError("no local indices")
    if node_order is None:
        ordered = list(local.keys())
    else:
        rank = {n: i for i, n in enumerate(node_order)}
        ordered = sorted(local.keys(), key=lambda kp: (rank[kp[0]], kp[1]))
    best = ordered[0]
    for pair in ordered[1:]:
        if local[pair] > local[best]:
            best = pair
    return VsiResult(local=dict(local), global_value=float(local[best]), critical=best)


def evaluate_vsi(hybrid: HybridPartition, slacks, resources, op) -> VsiResult:
    """Coefficients -> local indices -> global maximum, in one call."""
    coeffs = vsi_coefficients(hybrid, slacks, resources, op)
    local = vsi_local(coeffs, op)
    return vsi_global(local, node_order=hybrid.m_nodes)
