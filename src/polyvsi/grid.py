"""Polyphase grid model and compound admittance algebra.

The network is a graph of polyphase branches and shunts over nodes tagged
with a role (slack, zero-injection, or resource).  All electrical parameters
are P x P complex matrices in SI units (ohm, siemens).  This module builds
the compound nodal admittance matrix, eliminates zero-injection interior
nodes by Kron reduction (a Schur complement), and exchanges voltage and
current roles on a node subset via the hybrid parameter transformation.
It also holds the one linear-solve rule the solvers share (linear_solver):
LAPACK for a dense array, SuperLU for a SciPy sparse matrix, every failure
mapped to the caller's error type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .blocks import BlockMatrix
from .errors import AsymmetricParameter, SingularBranch, SingularInteriorBlock, SingularJacobian

ROLE_SLACK = "slack"
ROLE_ZERO = "zero"
ROLE_RESOURCE = "resource"
_ROLES = (ROLE_SLACK, ROLE_ZERO, ROLE_RESOURCE)

# Below this reciprocal condition number a matrix is treated as singular.  It
# is the exact 1-norm value 1 / (||a||_1 ||a^-1||_1) from _inverse, which is
# within a factor n of the 2-norm value for an n x n matrix.
RCOND_FLOOR = 1e-13

# The passivity rule's one tolerance, relative to each matrix's scale (passivity_faults).
PARAM_TOL = 1e-9


def _norm1(a) -> float:
    """Matrix 1-norm (largest column sum of moduli) of an array or SciPy sparse matrix."""
    return float(abs(a).sum(axis=0).max())


def _inverse(a: np.ndarray) -> tuple:
    """(a^-1, reciprocal 1-norm condition number 1 / (||a||_1 ||a^-1||_1)).

    The condition number is exact for the computed inverse, not an estimate.
    rcond is 0.0 (and the inverse None) when LAPACK finds a exactly singular,
    and nan when a or its inverse is not finite, so callers reject with
    `not rcond >= RCOND_FLOOR`.
    """
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return None, 0.0
    return a_inv, 1.0 / (_norm1(a) * _norm1(a_inv))


def linear_solver(a, what: str, error: type = SingularJacobian):
    """solve(b) for a x = b, with b of shape (n,) or (n, k), real or complex.

    An array is solved by LAPACK on each call; a SciPy sparse matrix is
    factored once by SuperLU with the minimum-degree ordering of a' + a,
    which suits every matrix the library factors: each has the structurally
    symmetric pattern of the admittance (the corrector's bordered matrix
    adds one row and column).  scipy is imported only in that case.  Raises
    error naming what when the factorization fails or a solution is not
    finite.
    """
    if hasattr(a, "toarray"):
        from scipy.sparse.linalg import splu

        try:
            step = splu(a, permc_spec="MMD_AT_PLUS_A").solve
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise error(f"{what} is singular") from exc
    else:
        step = partial(np.linalg.solve, np.asarray(a))

    def solve(b: np.ndarray) -> np.ndarray:
        try:
            x = step(b)
        except np.linalg.LinAlgError as exc:
            raise error(f"{what} is singular") from exc
        if not np.all(np.isfinite(x)):
            raise error(f"{what} gives a solution that is not finite")
        return x

    return solve


def solve_linear(a, b: np.ndarray, what: str, error: type = SingularJacobian) -> np.ndarray:
    """Solve a x = b once under the linear_solver rule."""
    return linear_solver(a, what, error)(b)


@dataclass(frozen=True)
class Node:
    """Grid node: hashable id, role tag, optional nominal phase-to-ground volts."""

    id: object
    role: str
    vnom: float | None = None

    def __post_init__(self):
        if self.role not in _ROLES:
            raise ValueError(f"unknown node role {self.role!r}")
        if self.vnom is not None and not self.vnom > 0.0:
            raise ValueError("nominal voltage must be positive")


@dataclass(frozen=True)
class Branch:
    """Two-terminal polyphase branch.

    z is the P x P series impedance in ohm, referred to the to-node side.
    gain is the no-load voltage ratio V_to / V_from of an ideal transformer
    in series with z; plain lines have gain 1.  y_shunt_from / y_shunt_to are
    optional P x P shunt admittance matrices tied to the terminals (the two
    half legs of a pi section).  rated_a is metadata for margin reporting.
    """

    from_node: object
    to_node: object
    z: np.ndarray
    gain: float = 1.0
    y_shunt_from: np.ndarray | None = None
    y_shunt_to: np.ndarray | None = None
    rated_a: float | None = None
    label: str | None = None

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise ValueError("branch impedance must be a square matrix")
        if self.from_node == self.to_node:
            raise ValueError("branch endpoints must differ")
        if not self.gain > 0.0:
            raise ValueError("branch gain must be positive")
        object.__setattr__(self, "z", z)
        for name in ("y_shunt_from", "y_shunt_to"):
            y = getattr(self, name)
            if y is not None:
                y = np.asarray(y, dtype=complex)
                if y.shape != z.shape:
                    raise ValueError(f"{name} shape must match z")
                object.__setattr__(self, name, y)

    @property
    def p(self) -> int:
        return self.z.shape[0]

    def __eq__(self, other):
        if not isinstance(other, Branch):
            return NotImplemented

        def same(a, b):
            if a is None or b is None:
                return a is b
            return np.array_equal(a, b)

        return (
            self.from_node == other.from_node
            and self.to_node == other.to_node
            and self.gain == other.gain
            and self.rated_a == other.rated_a
            and self.label == other.label
            and np.array_equal(self.z, other.z)
            and same(self.y_shunt_from, other.y_shunt_from)
            and same(self.y_shunt_to, other.y_shunt_to)
        )


@dataclass(frozen=True)
class Shunt:
    """Node-to-ground admittance, P x P in siemens."""

    node: object
    y: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=complex)
        if y.ndim != 2 or y.shape[0] != y.shape[1]:
            raise ValueError("shunt admittance must be a square matrix")
        object.__setattr__(self, "y", y)

    def __eq__(self, other):
        if not isinstance(other, Shunt):
            return NotImplemented
        return self.node == other.node and np.array_equal(self.y, other.y)


@dataclass(frozen=True)
class GridModel:
    """Validated polyphase grid: ordered nodes, branches, shunts.

    Construction checks structural sanity: unique node ids, known endpoint
    references, uniform phase count, and weak connectivity of the branch
    graph.  Electrical parameter hypotheses are checked separately by
    validate_parameters.
    """

    nodes: tuple
    branches: tuple
    shunts: tuple = ()
    p: int = 3

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "branches", tuple(self.branches))
        object.__setattr__(self, "shunts", tuple(self.shunts))
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        if not ids:
            raise ValueError("grid needs at least one node")
        known = set(ids)
        for b in self.branches:
            if b.from_node not in known or b.to_node not in known:
                raise ValueError(f"branch {b.from_node}-{b.to_node} references unknown node")
            if b.p != self.p:
                raise ValueError("branch phase count differs from grid")
        for s in self.shunts:
            if s.node not in known:
                raise ValueError(f"shunt at unknown node {s.node}")
            if s.y.shape[0] != self.p:
                raise ValueError("shunt phase count differs from grid")
        if not self._weakly_connected():
            raise ValueError("branch graph is not weakly connected")

    def _weakly_connected(self) -> bool:
        ids = [n.id for n in self.nodes]
        if len(ids) == 1:
            return True
        adj: dict = {i: set() for i in ids}
        for b in self.branches:
            adj[b.from_node].add(b.to_node)
            adj[b.to_node].add(b.from_node)
        seen = {ids[0]}
        stack = [ids[0]]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(ids)

    @property
    def node_ids(self) -> tuple:
        return tuple(n.id for n in self.nodes)

    def node(self, node_id) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    def nodes_with_role(self, role: str) -> tuple:
        return tuple(n.id for n in self.nodes if n.role == role)

    @property
    def slack_nodes(self) -> tuple:
        return self.nodes_with_role(ROLE_SLACK)

    @property
    def zero_nodes(self) -> tuple:
        return self.nodes_with_role(ROLE_ZERO)

    @property
    def resource_nodes(self) -> tuple:
        return self.nodes_with_role(ROLE_RESOURCE)


@dataclass(frozen=True)
class Violation:
    """One parameter-hypothesis violation found by validate_parameters."""

    kind: str
    element: str
    detail: str

    def __str__(self):
        return f"{self.element}: {self.kind} ({self.detail})"


def build_incidence(grid: GridModel, polyphase: bool = False) -> np.ndarray:
    """Branch-node incidence matrix: +1 at from-node, -1 at to-node.

    With polyphase=True the matrix is expanded to blocks via the Kronecker
    product with the P x P identity.
    """
    ids = grid.node_ids
    col = {n: i for i, n in enumerate(ids)}
    a = np.zeros((len(grid.branches), len(ids)), dtype=float)
    for r, b in enumerate(grid.branches):
        a[r, col[b.from_node]] = 1.0
        a[r, col[b.to_node]] = -1.0
    if polyphase:
        a = np.kron(a, np.eye(grid.p))
    return a


def branch_stamp(branch: Branch) -> np.ndarray:
    """2P x 2P admittance stamp of one branch (series element only).

    Inverts the series impedance and applies the ideal-transformer gain g =
    V_to/V_from: [[g^2 y, -g y], [-g y, y]].  For gain 1 this is the familiar
    [[y, -y], [-y, y]] so that summing stamps over branches reproduces the
    incidence-based assembly A' Y_L A.
    """
    y, rc = _inverse(branch.z)
    if not rc >= RCOND_FLOOR:
        raise SingularBranch(
            f"branch {branch.from_node}-{branch.to_node} series impedance is singular"
        )
    g = branch.gain
    p = branch.p
    stamp = np.empty((2 * p, 2 * p), dtype=complex)
    stamp[:p, :p] = g * g * y
    stamp[:p, p:] = -g * y
    stamp[p:, :p] = -g * y
    stamp[p:, p:] = y
    return stamp


def passivity_faults(mats, invertible=False) -> list[tuple]:
    """The passivity rule on a sequence of P x P parameter matrices.

    Every element is reciprocal and lossy, so each matrix must be finite,
    symmetric within relative Frobenius asymmetry PARAM_TOL, and have a
    symmetric real part whose smallest eigenvalue is at least
    -PARAM_TOL * max(largest eigenvalue, ||m||).  Where the mask invertible
    is set, _inverse must also give rcond >= RCOND_FLOOR.  Runs on the whole
    stack at once; returns (index, kind, detail) per fault, by index.
    """
    if not len(mats):
        return []
    m = np.asarray(mats, dtype=complex)
    finite = np.isfinite(m).all(axis=(1, 2))
    m = np.where(finite[:, None, None], m, 0.0)
    scale = np.linalg.norm(m, axis=(1, 2))
    asym = np.linalg.norm(m - m.transpose(0, 2, 1), axis=(1, 2)) / np.where(scale > 0.0, scale, 1.0)
    eig = np.linalg.eigvalsh((m.real + m.real.transpose(0, 2, 1)) / 2.0)
    indefinite = eig[:, 0] < -PARAM_TOL * np.maximum(eig[:, -1], scale)
    faults = [(k, "non-finite", "inf or nan entry") for k in np.flatnonzero(~finite)]
    faults += [(k, "asymmetric", f"relative asymmetry {asym[k]:.2e}")
               for k in np.flatnonzero(asym > PARAM_TOL)]
    faults += [(k, "indefinite-real-part", f"min eigenvalue {eig[k, 0]:.3e}")
               for k in np.flatnonzero(indefinite)]
    faults += [(k, "singular", f"rcond < {RCOND_FLOOR}") for k in np.flatnonzero(finite & invertible)
               if not _inverse(m[k])[1] >= RCOND_FLOOR]
    return sorted(faults, key=lambda f: f[0])


def _grid_faults(grid: GridModel, check_inverse: bool) -> list[tuple]:
    """(element, kind, detail) per passivity fault; check_inverse tests impedances too."""
    rows = [(f"branch {b.from_node}-{b.to_node} {what}", m, check_inverse and what == "impedance")
            for b in grid.branches
            for what, m in (("impedance", b.z), ("from-shunt", b.y_shunt_from), ("to-shunt", b.y_shunt_to))
            if m is not None]
    rows += [(f"shunt at {s.node}", s.y, False) for s in grid.shunts]
    faults = passivity_faults([m for _, m, _ in rows], [inv for _, _, inv in rows])
    return [(rows[k][0], kind, detail) for k, kind, detail in faults]


def admittance_entries(grid: GridModel, sources=()) -> tuple:
    """(nodes, rows, cols, values): the compound admittance on its block pattern.

    nodes are one new node per source branch (its from-node), then the grid's
    nodes.  The pattern holds each node's diagonal block and both off-diagonal
    blocks of each branch, parallel branches summed into one block, in
    row-major block order and row-major within a block.  Branches stamp
    through branch_stamp, pi shunts and node shunts add onto diagonal blocks;
    each block sums grid branches, then node shunts, then sources.  Raises
    AsymmetricParameter on the first grid matrix passivity_faults finds
    asymmetric, SingularBranch on a singular impedance.
    """
    for element, kind, _ in _grid_faults(grid, check_inverse=False):
        if kind == "asymmetric":
            raise AsymmetricParameter(f"{element} is not symmetric within tolerance {PARAM_TOL}")
    p = grid.p
    nodes = tuple(b.from_node for b in sources) + grid.node_ids
    at = {node: i for i, node in enumerate(nodes)}
    if len(at) < len(nodes):
        raise ValueError("source nodes must be new and distinct")

    def stamp(b):
        s, f, t = branch_stamp(b), at[b.from_node], at[b.to_node]
        return [(f, f, s[:p, :p]), (f, t, s[:p, p:]), (t, f, s[p:, :p]), (t, t, s[p:, p:]),
                (f, f, b.y_shunt_from), (t, t, b.y_shunt_to)]

    terms = [term for b in grid.branches for term in stamp(b)]
    terms += [(at[s.node], at[s.node], s.y) for s in grid.shunts]
    terms += [term for b in sources for term in stamp(b)]
    blocks = {(i, i): np.zeros((p, p), dtype=complex) for i in range(len(nodes))}
    for i, j, m in terms:
        if m is not None:
            blocks[i, j] = blocks.get((i, j), 0.0) + m
    keys = sorted(blocks)
    corners = np.array(keys, dtype=int) * p
    r, c = divmod(np.arange(p * p), p)
    rows, cols = (corners[:, :1] + r).ravel(), (corners[:, 1:] + c).ravel()
    return nodes, rows, cols, np.concatenate([blocks[k].ravel() for k in keys])


def assemble_admittance(grid: GridModel) -> BlockMatrix:
    """Compound nodal admittance matrix Y of the grid: the dense view of
    admittance_entries(grid), whose errors it raises."""
    ids, rows, cols, values = admittance_entries(grid)
    n = len(ids) * grid.p
    y = np.zeros((n, n), dtype=complex)
    y[rows, cols] = values
    return BlockMatrix._adopt(y, ids, ids, grid.p)


def validate_parameters(grid: GridModel) -> list[Violation]:
    """Check passivity_faults on every branch and shunt, impedances invertible.

    Violations are returned as data, not raised, so a caller can report all
    of them at once.
    """
    return [Violation(kind, element, detail)
            for element, kind, detail in _grid_faults(grid, check_inverse=True)]


def _split_nodes(y: BlockMatrix, subset, name: str) -> tuple:
    """(nodes in subset, the other nodes) of the square y, both in y's order."""
    if not y.square:
        raise ValueError("the stepwise reductions need a square block matrix")
    unknown = set(subset) - set(y.row_nodes)
    if unknown:
        raise ValueError(f"{name} contains unknown nodes {sorted(map(str, unknown))}")
    inside = set(subset)
    return (tuple(n for n in y.row_nodes if n in inside),
            tuple(n for n in y.row_nodes if n not in inside))


def kron_reduce(y: BlockMatrix, zero_set) -> BlockMatrix:
    """Eliminate the zero-injection nodes in zero_set by Schur complement.

    Y / Y_ZZ = Y_CC - Y_CZ Y_ZZ^-1 Y_ZC over the retained nodes C, which
    preserves the terminal behavior when the eliminated nodes carry no
    injection.  Eliminating one node at a time gives the same result.  Y_ZZ
    is inverted once; the Schur complement uses that inverse, and Y_ZZ is
    rejected with SingularInteriorBlock when its exact reciprocal 1-norm
    condition number 1 / (||Y_ZZ||_1 ||Y_ZZ^-1||_1) is below RCOND_FLOOR.

    This is the paper's stepwise algebra on dense matrices, kept as the
    reference that vsi.reduce_augmented, which reaches the same blocks from
    one factorization, is tested against.
    """
    zero, keep = _split_nodes(y, zero_set, "zero_set")
    if not keep:
        raise ValueError("cannot eliminate every node")
    if not zero:
        return y
    zi = y.row_indices(zero)
    ki = y.row_indices(keep)
    yzz_inv, rc = _inverse(y.data[np.ix_(zi, zi)])
    if not rc >= RCOND_FLOOR:
        raise SingularInteriorBlock("eliminated block is numerically singular")
    ycz = y.data[np.ix_(ki, zi)]
    yzc = y.data[np.ix_(zi, ki)]
    ycc = y.data[np.ix_(ki, ki)]
    reduced = ycc - ycz @ (yzz_inv @ yzc)
    return BlockMatrix._adopt(reduced, keep, keep, y.p)


@dataclass(frozen=True)
class HybridPartition:
    """Hybrid parameter blocks for a node subset M of a square admittance Y.

    Maps the mixed boundary vector [V_Mc; I_M] to [I_Mc; V_M]:

        I_Mc = h_mcmc V_Mc + h_mcm I_M
        V_M  = h_mmc  V_Mc + h_mm  I_M

    with h_mm = Y_MM^-1, h_mmc = -Y_MM^-1 Y_MMc, h_mcm = Y_McM Y_MM^-1 and
    h_mcmc the Schur complement Y / Y_MM = Y_McMc - h_mcm Y_MMc.
    hybrid_partition raises SingularInteriorBlock when the exact reciprocal
    1-norm condition number 1 / (||Y_MM||_1 ||Y_MM^-1||_1) is below
    RCOND_FLOOR.
    """

    m_nodes: tuple
    mc_nodes: tuple
    h_mm: BlockMatrix
    h_mmc: BlockMatrix
    h_mcm: BlockMatrix
    h_mcmc: BlockMatrix


def hybrid_partition(y: BlockMatrix, m_set) -> HybridPartition:
    """Exchange voltage and current roles on the node subset m_set.

    Inverts Y_MM densely: the paper's stepwise algebra, kept as the
    reference for vsi.reduce_augmented like kron_reduce.
    """
    m, mc = _split_nodes(y, m_set, "m_set")
    if not m:
        raise ValueError("m_set must be nonempty")
    mi = y.row_indices(m)
    ci = y.row_indices(mc)
    h_mm, rc = _inverse(y.data[np.ix_(mi, mi)])
    if not rc >= RCOND_FLOOR:
        raise SingularInteriorBlock("Y_MM block is numerically singular")
    ymmc = y.data[np.ix_(mi, ci)]
    h_mmc = -h_mm @ ymmc
    h_mcm = y.data[np.ix_(ci, mi)] @ h_mm
    h_mcmc = y.data[np.ix_(ci, ci)] - h_mcm @ ymmc
    return HybridPartition(
        m_nodes=m,
        mc_nodes=mc,
        h_mm=BlockMatrix._adopt(h_mm, m, m, y.p),
        h_mmc=BlockMatrix._adopt(h_mmc, m, mc, y.p),
        h_mcm=BlockMatrix._adopt(h_mcm, mc, m, y.p),
        h_mcmc=BlockMatrix._adopt(h_mcmc, mc, mc, y.p),
    )
