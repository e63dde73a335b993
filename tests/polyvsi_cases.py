"""
Shared helpers for the polyvsi test suite, imported by name from the test
modules (`from polyvsi_cases import two_bus`).  The module name is unique
across the repository's test directories, so one pytest run can collect
tests/ and perfbench/tests/ together.

Provides:
  * random_system(rng)  — small seeded polyphase grids with mixed roles,
    occasional transformers and shunts, lightly loaded ZIP resources
  * two_bus()           — single-phase feeder with a closed-form fold:
    1000 V source behind 0.5 ohm, 0.5 ohm line, 125 kW constant-power
    load, so P_max = V^2/(4R) = 250 kW and xi_max = 2 exactly
  * fd_jacobian()       — central-difference Jacobian for derivative checks
  * band_matrix(a)      — a small dense square matrix as a BandMatrix of one
    block, so the band LU factors it
  * stamped_blocks()    — a grid's admittance node blocks summed one
    branch_stamp at a time, the bit-for-bit reference of admittance_entries
  * PASSIVITY_EDGES: matrices just inside and just outside the passivity
    rule, with the violation kind each must raise
"""

import numpy as np

from polyvsi.builders import positive_sequence_source
from polyvsi.grid import Band, BandMatrix, Branch, GridModel, Node, Shunt, branch_stamp
from polyvsi.nodes import PhaseResource, ResourceModel, SlackModel, ZipCoefficients

VNOM = 1000.0


def _random_zip(rng):
    a = float(rng.uniform(0.0, 0.4))
    b = float(rng.uniform(0.0, 0.4))
    return ZipCoefficients(a, b, 1.0 - (a + b))


def _random_z(rng, p, scale=1.0):
    # symmetric with positive definite real part, invertible by construction
    a = rng.standard_normal((p, p))
    re = 0.3 * (a @ a.T) + 0.4 * np.eye(p)
    b = rng.standard_normal((p, p))
    im = 0.25 * (b + b.T) + 0.8 * np.eye(p)
    return scale * (re + 1j * im)


def random_system(rng, n_nodes=None, p=None):
    """Seeded connected grid with one slack, >= 1 resource, light loading.

    Returns (grid, slacks, resources).  Impedances are ohm-scale against a
    1 kV nominal and kW-scale loads, so Newton converges from flat start.
    """
    if n_nodes is None:
        n_nodes = int(rng.integers(3, 7))
    if p is None:
        p = int(rng.integers(1, 4))

    roles = ["slack"] + [str(rng.choice(["zero", "resource"])) for _ in range(n_nodes - 1)]
    if "resource" not in roles[1:]:
        roles[-1] = "resource"
    nodes = [Node(i + 1, roles[i], vnom=VNOM) for i in range(n_nodes)]

    branches = []
    for k in range(2, n_nodes + 1):
        f = int(rng.integers(1, k))
        gain = 1.0
        if rng.random() < 0.25:
            gain = float(rng.uniform(0.8, 1.2))
        branches.append(Branch(f, k, _random_z(rng, p), gain=gain))
    if n_nodes >= 4 and rng.random() < 0.5:
        f, t = rng.choice(n_nodes, size=2, replace=False) + 1
        branches.append(Branch(int(f), int(t), _random_z(rng, p)))

    shunts = []
    if rng.random() < 0.4:
        node = int(rng.integers(1, n_nodes + 1))
        shunts.append(Shunt(node, 1j * float(rng.uniform(1e-6, 1e-5)) * np.eye(p)))

    grid = GridModel(nodes=tuple(nodes), branches=tuple(branches), shunts=tuple(shunts), p=p)

    slacks = [SlackModel(node=1, v_te=positive_sequence_source(VNOM, p),
                         z_te=_random_z(rng, p, scale=0.1))]

    resources = []
    for n in grid.resource_nodes:
        kind = "compensator" if rng.random() < 0.2 else "load"
        phases = []
        for _ in range(p):
            if kind == "load":
                p0 = -float(rng.uniform(1e3, 8e3))
                q0 = -float(rng.uniform(0.5e3, 3e3))
            else:
                p0 = 0.0
                q0 = float(rng.uniform(0.2e3, 1e3))
            phases.append(PhaseResource(p0=p0, q0=q0,
                                        zip_re=_random_zip(rng), zip_im=_random_zip(rng)))
        resources.append(ResourceModel(node=n, v0=VNOM, phases=tuple(phases), kind=kind))
    return grid, slacks, resources


CP = ZipCoefficients(0.0, 0.0, 1.0)

# (matrix, violation kind or None) at the edges of the passivity rule
# (grid.PARAM_TOL = 1e-9); every matrix is 2 x 2 and invertible.
PASSIVITY_EDGES = (
    # relative Frobenius asymmetry of [[1, d], [0, 1]] is d to rounding
    (np.array([[1.0, 0.5e-9], [0.0, 1.0]], dtype=complex), None),
    (np.array([[1.0, 2e-9], [0.0, 1.0]], dtype=complex), "asymmetric"),
    # smallest eigenvalue of the real part against the floor -1e-9 * 1
    (np.diag([1.0, -0.9e-9]).astype(complex), None),
    (np.diag([1.0, -1.1e-9]).astype(complex), "indefinite-real-part"),
    # the floor scales with the matrix: -1e-9 * 1e-3 here
    (np.diag([1e-3, -5e-10]).astype(complex), "indefinite-real-part"),
)


def two_bus(p0_kw=-125.0):
    """Single-phase analytic case; fold at xi = 2 for the default load."""
    grid = GridModel(
        nodes=(Node(1, "slack", vnom=VNOM), Node(2, "resource", vnom=VNOM)),
        branches=(Branch(1, 2, np.array([[0.5 + 0j]])),),
        p=1,
    )
    slacks = [SlackModel(node=1, v_te=np.array([VNOM + 0j]), z_te=np.array([[0.5 + 0j]]))]
    resources = [ResourceModel(node=2, v0=VNOM,
                               phases=(PhaseResource(p0=p0_kw * 1e3, q0=0.0,
                                                     zip_re=CP, zip_im=CP),))]
    return grid, slacks, resources


def band_matrix(a):
    """The square a as a BandMatrix whose pattern is one dense block."""
    a = np.asarray(a)
    return BandMatrix(Band.of([0], [np.arange(len(a))], [0], [0]), a[None])


def stamped_blocks(grid, branches=()):
    """(nodes, block_rows, block_cols, values (k, P, P)): the admittance of
    grid and the extra branches, whose from-nodes are new, summed one
    branch_stamp at a time in admittance_entries' term order (grid branches,
    node shunts, extra branches), each block from zero.  nodes are the new
    nodes, then the grid's."""
    p = grid.p
    nodes = tuple(b.from_node for b in branches) + grid.node_ids
    at = {node: i for i, node in enumerate(nodes)}

    def terms(b):
        s, f, t = branch_stamp(b), at[b.from_node], at[b.to_node]
        return [(f, f, s[:p, :p]), (f, t, s[:p, p:]), (t, f, s[p:, :p]), (t, t, s[p:, p:]),
                (f, f, b.y_shunt_from), (t, t, b.y_shunt_to)]

    summed = {(i, i): np.zeros((p, p), dtype=complex) for i in range(len(nodes))}
    for i, j, m in ([term for b in grid.branches for term in terms(b)]
                    + [(at[s.node], at[s.node], s.y) for s in grid.shunts]
                    + [term for b in branches for term in terms(b)]):
        if m is not None:
            summed[i, j] = summed.get((i, j), 0.0) + m
    keys = sorted(summed)
    return (nodes, np.array([i for i, _ in keys]), np.array([j for _, j in keys]),
            np.array([summed[k] for k in keys]))


def fd_jacobian(fun, x, h=1e-6):
    """Central-difference Jacobian of fun at x."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fun(x))
    jac = np.empty((f0.size, x.size))
    for k in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[k] += h
        xm[k] -= h
        jac[:, k] = (np.asarray(fun(xp)) - np.asarray(fun(xm))) / (2.0 * h)
    return jac
