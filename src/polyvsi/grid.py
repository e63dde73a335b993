"""Polyphase grid model and compound admittance algebra.

The network is a graph of polyphase branches and shunts over nodes tagged
with a role (slack, zero-injection, or resource).  All electrical parameters
are P x P complex matrices in SI units (ohm, siemens).  This module builds
the compound nodal admittance matrix on its node-block pattern
(admittance_entries), eliminates zero-injection interior nodes by Kron
reduction (a Schur complement), and exchanges voltage and current roles on
a node subset via the hybrid parameter transformation, whose blocks
(HybridPartition) the stepwise reference here and vsi.reduce_augmented's
factored build both return.  It also holds the library's one sparse matrix
container (BandMatrix: the values of a block pattern over the nodes, on a
Band's order as cuthill_mckee gives it) and the one linear-solve rule the
solvers share (linear_solver): factor once by LAPACK's band LU, solve many
times, every failure mapped to the caller's error type.  The order is
breadth first, parents before children, so partial pivoting keeps to each
node's block; the reversed order pivoted up to kl rows away and made the
band LU carry fill across kl + ku columns (Band).
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import threading
from dataclasses import dataclass, field
from decimal import Decimal
from functools import cache, cached_property
from typing import Callable

import numpy as np

from .blocks import BlockMatrix, array_dataclass
from .errors import IncompleteModel, SingularBranch, SingularInteriorBlock, SingularJacobian, ValidationError

ROLE_SLACK = "slack"
ROLE_ZERO = "zero"
ROLE_RESOURCE = "resource"
_ROLES = (ROLE_SLACK, ROLE_ZERO, ROLE_RESOURCE)

# Below this reciprocal condition number a matrix is treated as singular.  It
# is the 1-norm value 1 / (||a||_1 ||a^-1||_1), exact from _inverse and from
# below (norm1_estimate of ||a^-1||_1) in vsi.reduce_augmented, and within a
# factor n of the 2-norm value for an n x n matrix.
RCOND_FLOOR = 1e-13

# norm1_estimate's iteration limit, ITMAX of LAPACK's zlacn2.
NORM1_ITERATIONS = 5

# The passivity rule's one tolerance, relative to each matrix's scale (passivity_faults).
PARAM_TOL = 1e-9


def norm1_estimate(apply, adjoint, n: int) -> float:
    """Hager-Higham estimate of ||B||_1 for a linear map B with n >= 1 columns.

    apply(x) is B x and adjoint(y) the conjugate transpose B^H y.  The
    iteration is Higham's (ACM TOMS 1988) as LAPACK's zlacn2 runs it: from
    the uniform x, step to the unit column e_j where |B^H sign(B x)| peaks
    while ||B e_j||_1 grows, for at most NORM1_ITERATIONS products with B,
    then try the alternating vector.  Each candidate is ||B x||_1 / ||x||_1
    for some x, so the estimate never exceeds ||B||_1; it is exact for
    n = 1.  apply is called at most NORM1_ITERATIONS + 1 times, adjoint at
    most NORM1_ITERATIONS - 1 times.
    """

    def sign(y):  # y / |y| entrywise, 1 where y is 0
        size = np.abs(y)
        return np.divide(y, size, out=np.ones_like(y), where=size > 0.0)

    y = apply(np.full(n, 1.0 / n))
    est = float(np.abs(y).sum())
    if n == 1:
        return est
    last = None
    for _ in range(NORM1_ITERATIONS - 1):
        z = np.abs(adjoint(sign(y)))
        j = int(np.argmax(z))
        if last is not None and z[j] == z[last]:
            break
        last = j
        y = apply(np.eye(1, n, j).ravel())
        column = float(np.abs(y).sum())
        if not column > est:
            break
        est = column
    alternating = (1.0 + np.arange(n) / (n - 1)) * np.where(np.arange(n) % 2, -1.0, 1.0)
    return max(est, 2.0 * float(np.abs(apply(alternating)).sum()) / (3 * n))


def _binade(m: np.ndarray) -> tuple:
    """(m 2^-exp, exp) for a complex matrix or (k, n, n) stack m, exp per
    matrix putting its largest real or imaginary part in [0.5, 1): exact,
    and no norm of the scaled matrix can overflow.  exp is 0 for a zero or
    non-finite matrix."""
    parts = np.ascontiguousarray(m, dtype=complex).view(float)
    _, exp = np.frexp(np.abs(parts).max(axis=(-2, -1)))
    return np.ldexp(parts, -exp[..., None, None]).view(complex), exp


def _inverse(a: np.ndarray) -> tuple:
    """(a^-1, reciprocal 1-norm condition number 1 / (||a||_1 ||a^-1||_1)).

    a is one complex matrix or a (k, n, n) stack, inverted in one LAPACK
    call; a stack gets k inverses and k condition numbers.  Each matrix is
    inverted and judged scaled by _binade, so the condition number is
    scale-free up to the float limit, and exact for the computed inverse,
    not an estimate.  rcond is 0.0 when LAPACK finds a matrix exactly
    singular (its inverse is None, or nan within a stack, whose members are
    then inverted one at a time), and nan when a matrix or its inverse is
    not finite, so callers reject with `not rcond >= RCOND_FLOOR`.
    """
    m, exp = _binade(a)
    try:
        m_inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        if np.ndim(a) == 2:
            return None, 0.0
        each = [_inverse(member) for member in a]
        a_inv = np.array([np.full(a.shape[1:], np.nan) if inv is None else inv for inv, _ in each])
        return a_inv, np.array([rc for _, rc in each])
    # inf or nan entries, and an inverse beyond the float range, give rcond nan
    with np.errstate(all="ignore"):
        a_inv = np.ldexp(m_inv.view(float), -exp[..., None, None]).view(complex)
        rcond = 1.0 / (abs(m).sum(axis=-2).max(axis=-1) * abs(m_inv).sum(axis=-2).max(axis=-1))
    return a_inv, np.where(np.isfinite(a_inv).all(axis=(-2, -1)), rcond, np.nan)[()]


@cache
def _lapack() -> dict:
    """{dtype char: {name: routine}} for float64 ("d") and complex128 ("D"),
    with the band LU routines gbtrf and gbtrs bound by ctypes to the ILP64
    LAPACK of the OpenBLAS that a numpy 2 wheel ships as
    numpy.libs/libscipy_openblas64_*, the library np.linalg itself calls.
    Empty, or without a dtype, when that file or one of the dtype's symbols
    is missing (a numpy 1.x wheel, a distro or conda numpy, another BLAS):
    linear_solver then solves with np.linalg.solve.  Loaded on the first
    band solve, not on import.
    """
    found = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                   "libscipy_openblas64_*"))
    try:
        lib = ctypes.CDLL(found[0])
    except (IndexError, OSError):
        return {}
    c_char, int_p, ptr = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    # gbtrf(m, n, kl, ku, ab, ldab, ipiv, info);
    # gbtrs(trans, n, kl, ku, nrhs, ab, ldab, ipiv, b, ldb, info)
    signatures = {
        "gbtrf": [int_p, int_p, int_p, int_p, ptr, int_p, ptr, int_p],
        "gbtrs": [c_char, int_p, int_p, int_p, int_p, ptr, int_p, ptr, ptr, int_p, int_p],
    }
    table = {}
    for char, kind in (("d", "d"), ("D", "z")):
        try:
            routines = {name: getattr(lib, f"scipy_{kind}{name}_64_") for name in signatures}
        except AttributeError:
            continue
        for name, routine in routines.items():
            routine.argtypes, routine.restype = signatures[name], None
        table[char] = routines
    return table


def cuthill_mckee(rows, cols, n: int) -> np.ndarray:
    """The n vertices of the undirected graph with edges (rows[k], cols[k]) in
    Cuthill-McKee order (Cuthill & McKee, ACM 1969): breadth first from a
    vertex of least degree in each component, the neighbours of each vertex
    visited in increasing degree (ties by index).  On a radial feeder's node
    graph it keeps every edge within a few positions of the diagonal, and
    each vertex's breadth-first parent comes before it.
    """
    rows, cols = np.asarray(rows), np.asarray(cols)
    edge = rows != cols
    adjacent = [set() for _ in range(n)]
    for i, j in zip(rows[edge].tolist(), cols[edge].tolist()):
        adjacent[i].add(j)
        adjacent[j].add(i)
    by_degree = sorted(range(n), key=lambda v: len(adjacent[v]))
    rank = [0] * n
    for k, v in enumerate(by_degree):
        rank[v] = k
    seen, order, head = [False] * n, [], 0
    for start in by_degree:
        if seen[start]:
            continue
        seen[start] = True
        order.append(start)
        while head < len(order):
            for v in sorted(adjacent[order[head]], key=rank.__getitem__):
                if not seen[v]:
                    seen[v] = True
                    order.append(v)
            head += 1
    return np.array(order, dtype=np.int64)


@array_dataclass(frozen=True)
class Band:
    """A pattern of dense b x b blocks over N nodes, ordered into a band.

    index[i] holds the b flat rows (and columns) of node i's states, and the
    blocks are the node pairs (block_rows[k], block_cols[k]), sorted by block
    row.  The node order (as cuthill_mckee gives it) places the states at
    perm = index[order].ravel(), each node's together, which leaves every
    entry at most kl rows below and ku rows above the diagonal.  storage
    (k, b, b) is each block entry's flat index in the Fortran-order (lead,
    n) band storage of gbtrf, lead = 2 kl + ku + 1, whose first kl rows hold
    the factor's fill.  Node i's blocks start at row_starts[i].

    On cuthill_mckee's order each node's breadth-first parent comes before
    it, so below the diagonal a node's columns hold only its children's
    couplings, whose own diagonals are still unreduced: gbtrf's partial
    pivoting takes every pivot within 2p rows of the diagonal (one node
    block of J_x, two of Y_UU; measured along the bundled and 252-state
    traces and on a 302-node feeder).  On the reversed order the children
    are eliminated first, the node's reduced diagonal is about as large as
    its coupling to the parent up to kl rows below, and 40-75 % of the
    columns swapped rows, each swap carrying fill across kl + ku columns
    instead of ku: gbtrf takes 20-33 % less time on this order (J_x 37 ->
    29 us on the bundled feeder, 1.50 -> 1.04 ms at 1812 states; the
    1812-state Y_UU 0.77 -> 0.52 ms; one thread).
    """

    index: np.ndarray
    block_rows: np.ndarray
    block_cols: np.ndarray
    row_starts: np.ndarray
    order: np.ndarray
    perm: np.ndarray
    kl: int
    ku: int
    lead: int
    storage: np.ndarray

    @classmethod
    def of(cls, order, index, block_rows, block_cols) -> Band:
        """The Band on order; ValueError unless block_rows runs 0, 1, ..., N - 1 in steps of 0 or 1,
        and naming a block whose column is outside 0..N - 1 or that is repeated."""
        index, rows, cols = (np.asarray(a, dtype=np.int64) for a in (index, block_rows, block_cols))
        row_starts, n = np.flatnonzero(np.diff(rows, prepend=-1)), len(index)
        if not np.array_equal(rows[row_starts], np.arange(n)):
            raise ValueError("the pattern's blocks must be sorted by block row, each row holding one")
        if (outside := np.flatnonzero((cols < 0) | (cols >= n))).size:
            raise ValueError(f"block ({rows[outside[0]]}, {cols[outside[0]]}) has a column outside 0..{n - 1}")
        keys = np.sort(rows * n + cols)
        if (repeated := keys[1:][np.diff(keys) == 0]).size:
            raise ValueError(f"block ({repeated[0] // n}, {repeated[0] % n}) is repeated")
        order = np.asarray(order, dtype=np.int64)
        perm = index[order].ravel()
        position = np.empty_like(perm)
        position[perm] = np.arange(perm.size)
        i, j = position[index[rows]][:, :, None], position[index[cols]][:, None, :]
        kl, ku = int((i - j).max(initial=0)), int((j - i).max(initial=0))
        lead = 2 * kl + ku + 1
        return cls(index, rows, cols, row_starts, order, perm, kl, ku, lead, j * lead + kl + ku + i - j)

    @property
    def entries(self) -> tuple:
        """(rows, cols): the flat row and column of each block entry, both (k, b, b)."""
        rows, cols = self.index[self.block_rows], self.index[self.block_cols]
        return tuple(np.broadcast_arrays(rows[:, :, None], cols[:, None, :]))


@array_dataclass(frozen=True)
class BandMatrix:
    """A square matrix that is zero off band's pattern, held as its blocks'
    values (k, b, b) in band's block order: the one container of Y_UU and
    of the state Jacobian J_x at every size.  linear_solver factors it by
    the band LU, and np.asarray gives its dense copy.
    """

    band: Band
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.band.storage.shape:
            raise ValueError(f"values of shape {self.values.shape} for blocks of {self.band.storage.shape}")

    @property
    def shape(self) -> tuple:
        return self.band.perm.size, self.band.perm.size

    @cached_property
    def by_row(self) -> tuple:
        """(values, their columns, the first of each row): the entries sorted
        by row, the order of a product with a vector."""
        rows, cols = (a.ravel() for a in self.band.entries)
        order = np.argsort(rows, kind="stable")
        return self.values.ravel()[order], cols[order], np.flatnonzero(np.diff(rows[order], prepend=-1))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The product with x of shape (n,) or (n, k): a vector entry by entry
        in row order, columns by one batched product of the blocks, summed
        per block row (each the faster on its shape)."""
        band, x = self.band, np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[0] != self.shape[1]:
            raise ValueError(f"operand of shape {x.shape} for a matrix of shape {self.shape}")
        if x.ndim == 1:
            values, cols, starts = self.by_row
            return np.add.reduceat(values * x[cols], starts)
        out = np.empty(x.shape, dtype=np.result_type(self.values, x))
        out[band.index] = np.add.reduceat(self.values @ x[band.index[band.block_cols]], band.row_starts)
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a BandMatrix has no dense array to share")
        out = np.zeros(self.shape, dtype=self.values.dtype if dtype is None else dtype)
        out[self.band.entries] = self.values
        return out

    def norm1(self) -> float:
        """The 1-norm, the largest column sum of moduli."""
        sums = np.bincount(self.band.entries[1].ravel(), np.abs(self.values).ravel(), self.shape[1])
        return float(sums.max(initial=0.0))


def linear_solver(a, what: str, error: type = SingularJacobian):
    """solve(b, transpose=False) for a x = b, or a' x = b with transpose=True;
    b has shape (n,) or (n, k), real, or complex when a is.  a' is the plain
    transpose, never the conjugate one, and a itself is never written.

    A BandMatrix of float64 or complex128 values is copied into gbtrf's band
    storage, factored by LAPACK's band LU on its band's order at the first
    call, and every call solves on that factor with gbtrs, b permuted to
    band.perm.  The solver holds the factor and pivot arrays themselves
    (data_as keeps a reference), so they live as long as it does.  It may
    be called from several threads at once: gbtrf runs once, under a lock,
    and each gbtrs call has its own nrhs and info.  Any other
    matrix, and every one where numpy's LAPACK cannot be bound (_lapack), is
    solved as a dense array by np.linalg.solve at each call, which agrees
    with the band factor to rounding.  Raises ValueError naming the shape
    when a is not square; at each call, on either path and before any
    LAPACK call, ValueError naming the shape when b is not (n,) or (n, k)
    and naming the dtype when b is complex and a is not.  Raises error
    naming what when the factorization fails, on that call and every later
    one, or when a solution is not finite.
    """
    shape = np.shape(a)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"{what} of shape {shape} is not a square matrix")
    n = shape[0]
    if isinstance(a, BandMatrix) and (routines := _lapack().get(a.values.dtype.char)):
        band = a.band
        ab, piv = np.zeros(band.lead * n, dtype=a.values.dtype.char), np.empty(n, dtype=np.int64)
        ab[band.storage] = a.values
        size, kl, ku, lead, ldb = (ctypes.c_int64(v) for v in (n, band.kl, band.ku, band.lead, max(n, 1)))
        ab_p, piv_p = ab.ctypes.data_as(ctypes.c_void_p), piv.ctypes.data_as(ctypes.c_void_p)
        dtype = ab.dtype
        # factored holds gbtrf's info once it has run, under lock: 0 when
        # factored and k > 0 when U[k, k] is exactly zero, which stays.
        factored, lock = [], threading.Lock()
    else:
        routines, dense = None, np.asarray(a)
        dtype = dense.dtype

    def solve(b: np.ndarray, transpose: bool = False) -> np.ndarray:
        b = np.asarray(b)
        if b.ndim not in (1, 2) or b.shape[0] != n:
            raise ValueError(f"right-hand side of shape {b.shape} for a {n} x {n} matrix")
        if b.dtype.kind == "c" and dtype.kind != "c":
            raise ValueError(f"right-hand side of dtype {b.dtype} for a real {n} x {n} matrix")
        if routines:
            with lock:
                if not factored:
                    info = ctypes.c_int64()
                    routines["gbtrf"](size, size, kl, ku, ab_p, lead, piv_p, info)
                    factored.append(info.value)
            if factored[0]:
                raise error(f"{what} is singular")
            x = b[band.perm].astype(dtype, order="F", casting="safe")
            # nrhs and info are per call: ctypes releases the GIL during gbtrs.
            routines["gbtrs"](b"T" if transpose else b"N", size, kl, ku,
                              ctypes.c_int64(1 if x.ndim == 1 else x.shape[1]), ab_p, lead, piv_p,
                              x.ctypes.data, ldb, ctypes.c_int64())
            out = np.empty_like(x)
            out[band.perm] = x
            x = out
        else:
            try:
                x = np.linalg.solve(dense.T if transpose else dense, b)
            except np.linalg.LinAlgError as exc:
                raise error(f"{what} is singular") from exc
        if not np.isfinite(x).all():
            raise error(f"{what} gives a solution that is not finite")
        return x

    return solve


@dataclass(frozen=True)
class Node:
    """Grid node: hashable id, role tag, optional nominal phase-to-ground
    volts (finite and > 0)."""

    id: object
    role: str
    vnom: float | None = None

    def __post_init__(self):
        if self.role not in _ROLES:
            raise ValueError(f"unknown node role {self.role!r}")
        if self.vnom is not None and not 0.0 < self.vnom < math.inf:
            raise ValueError("nominal voltage must be positive")


@array_dataclass(frozen=True)
class Branch:
    """Two-terminal polyphase branch.

    z is the P x P series impedance in ohm, referred to the to-node side.
    gain, finite and > 0, is the no-load voltage ratio V_to / V_from of an
    ideal transformer in series with z; plain lines have gain 1.
    y_shunt_from / y_shunt_to are optional P x P shunt admittance matrices
    tied to the terminals (the two half legs of a pi section).  rated_a is
    metadata for margin reporting.
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
        if not 0.0 < self.gain < math.inf:
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


@array_dataclass(frozen=True)
class Shunt:
    """Node-to-ground admittance, P x P in siemens."""

    node: object
    y: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=complex)
        if y.ndim != 2 or y.shape[0] != y.shape[1]:
            raise ValueError("shunt admittance must be a square matrix")
        object.__setattr__(self, "y", y)


def match_models(role: str, models, nodes, p: int) -> tuple:
    """models in the order of nodes, the one rule placing slack and resource
    models; IncompleteModel naming the nodes unless they sit one-to-one on
    nodes, each with p phases."""
    models = tuple(models)
    at = {m.node: m for m in models}
    if len(at) != len(models) or set(at) != set(nodes) or any(m.p != p for m in models):
        missing = [n for n in nodes if n not in at]
        raise IncompleteModel((f"no {role} model for nodes {missing}; " if missing else "")
                              + f"{role} models at {[m.node for m in models]} must sit one-to-one "
                              f"on the {role} nodes {list(nodes)}, each with p = {p}")
    return tuple(at[n] for n in nodes)


@dataclass(frozen=True)
class GridModel:
    """Validated polyphase grid: ordered nodes, branches, shunts.

    Construction checks structural sanity: unique node ids, known endpoint
    references, uniform phase count, and weak connectivity of the branch
    graph.  The parameter hypotheses (passivity, from series_admittance) and
    the slack and resource models (require_models) are judged separately.
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

    def require_models(self, role: str, models) -> tuple:
        """match_models on the grid's nodes with role and its phase count."""
        return match_models(role, models, self.nodes_with_role(role), self.p)

    @cached_property
    def series_admittance(self) -> tuple:
        """(y, rcond): the one _inverse of the branch impedances, in branch order."""
        return _inverse(np.reshape([b.z for b in self.branches], (-1, self.p, self.p)))

    @cached_property
    def passivity(self) -> tuple:
        """(element, kind, detail) per passivity fault of the branch and
        shunt matrices, impedances checked invertible too.  The rule runs
        once per grid and this is its one verdict: validate_parameters lists
        it, and admittance_entries refuses a grid where it is not empty."""
        return tuple(_grid_faults(self))


@dataclass(frozen=True)
class Violation:
    """One parameter-hypothesis violation found by validate_parameters."""

    kind: str
    element: str
    detail: str

    def __str__(self):
        return f"{self.element}: {self.kind} ({self.detail})"


def _stamps(y: np.ndarray, gains) -> np.ndarray:
    """(k, 2, 2, P, P) series-element stamps [[g^2 y, -g y], [-g y, y]] of
    the k series admittances y, a (k, P, P) stack, and their gains g."""
    g = np.asarray(gains, dtype=float)[:, None, None]
    stamps = np.empty((len(y), 2, 2, *y.shape[1:]), dtype=complex)
    stamps[:, 0, 0] = g * g * y
    stamps[:, 0, 1] = stamps[:, 1, 0] = -g * y
    stamps[:, 1, 1] = y
    return stamps


def branch_stamp(branch: Branch) -> np.ndarray:
    """2P x 2P admittance stamp of one branch (series element only).

    Inverts the series impedance and applies the ideal-transformer gain g =
    V_to/V_from: [[g^2 y, -g y], [-g y, y]].  For gain 1 this is the familiar
    [[y, -y], [-y, y]] so that summing stamps over branches reproduces the
    incidence-based assembly A' Y_L A; SingularBranch when z is singular.
    """
    y, rc = _inverse(branch.z)
    if not rc >= RCOND_FLOOR:
        raise SingularBranch(f"branch {branch.from_node}-{branch.to_node} series impedance is singular")
    return _stamps(y[None], [branch.gain])[0].transpose(0, 2, 1, 3).reshape(2 * branch.p, -1)


def _unscaled(x: float, exp) -> str:
    """x * 2**exp in '.3e' form, also beyond the float range."""
    try:
        return f"{math.ldexp(x, int(exp)):.3e}"
    except OverflowError:
        return f"{Decimal(float(x)) * Decimal(2) ** int(exp):.3e}"


def passivity_faults(mats, rcond) -> list[tuple]:
    """The passivity rule on a sequence of P x P parameter matrices.

    Every element is reciprocal and lossy, so each matrix must be finite,
    symmetric within relative Frobenius asymmetry PARAM_TOL, and have a
    symmetric real part whose smallest eigenvalue is at least
    -PARAM_TOL * max(largest eigenvalue, ||m||), and its rcond (one _inverse
    value per matrix; inf where none is needed) must be >= RCOND_FLOOR.
    One stacked pass; returns (index, kind, detail) per fault, by index.
    Each matrix is first scaled by _binade: exact, scale-free for every
    test above, and no norm or eigenvalue can overflow on a finite matrix.
    """
    if not len(mats):
        return []
    m = np.asarray(mats, dtype=complex)
    finite = np.isfinite(m).all(axis=(1, 2))
    m, exp = _binade(np.where(finite[:, None, None], m, 0.0))
    scale = np.linalg.norm(m, axis=(1, 2))
    asym = np.linalg.norm(m - m.transpose(0, 2, 1), axis=(1, 2)) / np.where(scale > 0.0, scale, 1.0)
    eig = np.linalg.eigvalsh((m.real + m.real.transpose(0, 2, 1)) / 2.0)
    indefinite = eig[:, 0] < -PARAM_TOL * np.maximum(eig[:, -1], scale)
    faults = [(k, "non-finite", "inf or nan entry") for k in np.flatnonzero(~finite)]
    faults += [(k, "asymmetric", f"relative asymmetry {asym[k]:.2e}")
               for k in np.flatnonzero(asym > PARAM_TOL)]
    faults += [(k, "indefinite-real-part", f"min eigenvalue {_unscaled(eig[k, 0], exp[k])}")
               for k in np.flatnonzero(indefinite)]
    faults += [(k, "singular", f"rcond < {RCOND_FLOOR}")
               for k in np.flatnonzero(finite & ~(np.asarray(rcond) >= RCOND_FLOOR))]
    return sorted(faults, key=lambda f: f[0])


def _grid_faults(grid: GridModel) -> list[tuple]:
    """(element, kind, detail) per passivity fault, impedances judged invertible."""
    rows = [(f"branch {b.from_node}-{b.to_node} {what}", m,
             rc if what == "impedance" else np.inf)
            for b, rc in zip(grid.branches, grid.series_admittance[1])
            for what, m in (("impedance", b.z), ("from-shunt", b.y_shunt_from), ("to-shunt", b.y_shunt_to))
            if m is not None]
    rows += [(f"shunt at {s.node}", s.y, np.inf) for s in grid.shunts]
    faults = passivity_faults([m for _, m, _ in rows], [rc for _, _, rc in rows])
    return [(rows[k][0], kind, detail) for k, kind, detail in faults]


def admittance_entries(grid: GridModel, shunts=()) -> tuple:
    """(block_rows, block_cols, values): the compound admittance on its block
    pattern over grid.node_ids, values a (k, P, P) stack.

    shunts are extra Shunt terms, such as the slacks' y_te from
    build_augmented, added after the grid's own.  The pattern holds each
    node's diagonal block and both off-diagonal blocks of each branch,
    parallel branches summed into one block, in row-major block order.
    Grid branches stamp from grid.series_admittance, and pi and node shunts
    add onto diagonal blocks.  Each block is a sum in term order, starting
    from zero: per branch its stamp's four blocks then its pi shunts, grid
    branches, then node shunts, then the extra shunts.  Raises
    ValidationError, holding validate_parameters(grid), when grid.passivity
    is not empty, so every system build refuses exactly what validation
    lists.  The extra shunts are not judged here: a SlackModel's z_te passes
    the same rule, and is inverted, when it is constructed.
    """
    if grid.passivity:
        raise ValidationError(validate_parameters(grid))
    p, size = grid.p, len(grid.nodes)
    at = {node: i for i, node in enumerate(grid.node_ids)}

    # Per branch six terms in summation order: the ff, ft, tf and tt blocks of
    # its stamp, then its pi shunts at f and at t where present.
    branches = grid.branches
    none = np.zeros((p, p), dtype=complex)
    pi = np.reshape([none if y is None else y for b in branches
                     for y in (b.y_shunt_from, b.y_shunt_to)], (-1, 2, p, p))
    stamps = _stamps(grid.series_admittance[0], [b.gain for b in branches])
    branch_terms = np.concatenate([stamps.reshape(-1, 4, p, p), pi], axis=1)
    f = np.array([at[b.from_node] for b in branches], dtype=int)
    t = np.array([at[b.to_node] for b in branches], dtype=int)
    present = np.ones((len(branches), 6), dtype=bool)
    present[:, 4] = [b.y_shunt_from is not None for b in branches]
    present[:, 5] = [b.y_shunt_to is not None for b in branches]
    shunts = grid.shunts + tuple(shunts)
    at_shunt = np.array([at[s.node] for s in shunts], dtype=int)

    bi = np.concatenate([np.stack([f, f, t, t, f, t], axis=1)[present], at_shunt])
    bj = np.concatenate([np.stack([f, t, f, t, f, t], axis=1)[present], at_shunt])
    terms = np.concatenate([branch_terms[present], np.reshape([s.y for s in shunts], (-1, p, p))])

    # Block (bi, bj) is numbered bi * size + bj, so np.unique lists the blocks
    # row-major; every diagonal block is present.  np.add.at adds in index
    # order, so each entry sums its terms in the order above, from zero.
    keys, block = np.unique(np.concatenate([np.arange(size) * (size + 1), bi * size + bj]),
                            return_inverse=True)
    values = np.zeros(keys.size * p * p, dtype=complex)
    np.add.at(values, (block[size:, None] * (p * p) + np.arange(p * p)).ravel(), terms.ravel())
    return keys // size, keys % size, values.reshape(-1, p, p)


def assemble_admittance(grid: GridModel) -> BlockMatrix:
    """Compound nodal admittance matrix Y of the grid: the dense view of
    admittance_entries(grid), whose errors it raises."""
    rows, cols, values = admittance_entries(grid)
    n, p = len(grid.nodes), grid.p
    y = np.zeros((n, p, n, p), dtype=complex)
    y[rows, :, cols] = values
    return BlockMatrix._adopt(y.reshape(n * p, n * p), grid.node_ids, grid.node_ids, p)


def validate_parameters(grid: GridModel) -> list[Violation]:
    """Check passivity_faults on every branch and shunt, impedances invertible.

    Violations are returned as data, not raised, so a caller can report all
    of them at once.
    """
    return [Violation(kind, element, detail) for element, kind, detail in grid.passivity]


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


@dataclass(frozen=True, eq=False)
class HybridPartition:
    """Hybrid parameter blocks for a node subset M of a square admittance Y.

    Maps the mixed boundary vector [V_Mc; I_M] to [I_Mc; V_M]:

        I_Mc = h_mcmc V_Mc + h_mcm I_M
        V_M  = h_mmc  V_Mc + h_mm  I_M

    with h_mm = Y_MM^-1, h_mmc = -Y_MM^-1 Y_MMc, h_mcm = Y_McM Y_MM^-1 and
    h_mcmc the Schur complement Y / Y_MM = Y_McMc - h_mcm Y_MMc.
    solve_m(b) is h_mm b for b of shape (|M|,) or (|M|, k), all the index
    reads: a product with the dense inverse from hybrid_partition, one solve
    on Y_UU's factor from vsi.reduce_augmented.  h_mm itself is formed from
    it on first access, for the callers that compare or print the blocks.
    rcond is the reciprocal 1-norm condition number of the inverted block,
    exact for Y_MM from hybrid_partition and estimated for Y_UU from
    reduce_augmented, each raising SingularInteriorBlock below RCOND_FLOOR.
    """

    m_nodes: tuple
    mc_nodes: tuple
    h_mmc: BlockMatrix
    h_mcm: BlockMatrix
    h_mcmc: BlockMatrix
    solve_m: Callable = field(repr=False)
    rcond: float = field(repr=False)

    @property
    def p(self) -> int:
        return self.h_mmc.p

    @cached_property
    def pairs(self) -> tuple:
        """(node, phase) of each row of M, phases from 1: the index's keys, formed once."""
        return tuple((node, phase) for node in self.m_nodes for phase in range(1, self.p + 1))

    @cached_property
    def h_mm(self) -> BlockMatrix:
        return BlockMatrix._adopt(self.solve_m(np.eye(len(self.pairs))), self.m_nodes, self.m_nodes, self.p)


def hybrid_partition(y: BlockMatrix, m_set) -> HybridPartition:
    """Exchange voltage and current roles on the node subset m_set.

    Inverts Y_MM densely, the inverse kept as solve_m's matrix: the paper's
    stepwise algebra, kept as the reference for vsi.reduce_augmented like
    kron_reduce.
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
        h_mmc=BlockMatrix._adopt(h_mmc, m, mc, y.p),
        h_mcm=BlockMatrix._adopt(h_mcm, mc, m, y.p),
        h_mcmc=BlockMatrix._adopt(h_mcmc, mc, mc, y.p),
        solve_m=h_mm.__matmul__,
        rcond=rc,
    )
