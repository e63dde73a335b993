"""Seeded synthetic radial feeders for the benchmark.

A feeder mirrors the bundled benchmark's two voltage levels: a 100 MVA
short-circuit slack at 69 kV, one 25 km subtransmission line, and a 12 MVA
69/24.9 kV transformer feeding a random radial tree of lower-level nodes.
Tree lines use the bundled IEEE 34-node overhead configurations 300 and 301,
loads use the paper's ZIP triples, and a few nodes carry the paper's
constant-reactive compensators.

The load level is set without solving anything: every load is scaled by one
factor so that the linearised voltage drop to the farthest node equals
DROP_TARGET at the base loading.  That places the fold of every generated
feeder at a realistic loading factor (about xi 2) whatever its size and
shape.

Only the public builders are used, and the models go through serialize_grid,
so the text a workload parses is exactly what `polyvsi` would read from a
grid file.
"""

from __future__ import annotations

import numpy as np

from polyvsi.benchmark import (
    LOAD_V0_KV,
    LOWER_KV,
    LOWER_VPG,
    UPPER_KV,
    UPPER_SEQ,
    UPPER_VPG,
    ZIP_COMP_IM,
    ZIP_COMP_RE,
    ZIP_LOAD_IM,
    ZIP_LOAD_RE,
    load_overhead_configs,
)
from polyvsi.builders import pi_line, sequence_line
from polyvsi.grid import GridModel, Node, ROLE_RESOURCE, ROLE_SLACK, ROLE_ZERO
from polyvsi.gridfile import (
    resource_from_catalog,
    serialize_grid,
    slack_from_catalog,
    transformer_from_catalog,
)

P = 3
SLACK_NODE = 1
UPPER_NODE = 2
ROOT_NODE = 3  # lower-level side of the substation transformer
UPPER_LINE_KM = 25.0
SLACK_SC_MVA = 100.0
SLACK_R_OVER_X = 0.1
TRANSFORMER = ("TF", 12.0, UPPER_KV, LOWER_KV, 0.005, 0.1, 1.0)

LOAD_SHARE = 0.4  # fraction of lower-level nodes that carry a load
COMPENSATOR_EVERY = 40  # one compensator per this many lower-level nodes
COMPENSATOR_KVAR = 100.0
LINE_KM = (0.3, 2.5)
# A new node hangs off one of the last WINDOW nodes, which gives laterals a
# few kilometres deep instead of a star (uniform parent) or a chain.
WINDOW = 6
# Linearised per-unit voltage drop to the farthest node at xi = 1.
DROP_TARGET = 0.17


def _parents(rng, n_lower: int) -> list:
    """Parent index (into the lower-level node list) of lower nodes 1..n-1."""
    return [int(rng.integers(max(0, k - WINDOW), k)) for k in range(1, n_lower)]


def _z1(z: np.ndarray) -> complex:
    """Positive-sequence value of a P x P impedance (diagonal minus mutual mean)."""
    off = (z.sum() - np.trace(z)) / (P * (P - 1))
    return complex(np.trace(z) / P - off)


def _worst_drop(parents, z_root, z_line, loads_va) -> float:
    """Largest linearised drop |sum over path of z_b * S_downstream_b| / V^2.

    z_root is the source impedance seen from the lower-level root node, so
    the slack, the subtransmission line and the transformer count too.
    """
    n = len(parents) + 1
    s_down = np.array(loads_va, dtype=complex)
    for k in range(n - 1, 0, -1):
        s_down[parents[k - 1]] += s_down[k]
    drop = np.zeros(n, dtype=complex)
    drop[0] = -z_root * np.conj(s_down[0])
    for k in range(1, n):
        # S_down is injection-positive (loads negative), so negate for a drop.
        drop[k] = drop[parents[k - 1]] - z_line[k - 1] * np.conj(s_down[k])
    return float(np.abs(drop).max()) / (3.0 * LOWER_VPG * LOWER_VPG)


def build_feeder(seed: int, n_lower: int):
    """Models (grid, slacks, resources) of the feeder for this seed and size.

    n_lower counts the lower-level nodes; the grid has n_lower + 2 nodes and
    3 * (n_lower + 2) phase voltages.  The same arguments always give the
    same models.
    """
    if n_lower < 2:
        raise ValueError("a feeder needs at least two lower-level nodes")
    rng = np.random.default_rng([seed, n_lower])
    configs = load_overhead_configs()
    parents = _parents(rng, n_lower)
    km = rng.uniform(*LINE_KM, size=n_lower - 1)
    cfg = ["300" if k < n_lower // 4 else "301" for k in range(1, n_lower)]

    z_line = [_z1(configs[cfg[k]][0]) * km[k] for k in range(n_lower - 1)]
    load_at = np.flatnonzero(rng.random(n_lower - 1) < LOAD_SHARE) + 1
    if load_at.size == 0:
        load_at = np.array([n_lower - 1])
    # Per-phase shape of each load (kW, kvar before scaling): unbalanced,
    # phase a heaviest on average, reactive power 40-60 % of active.
    p_shape = rng.uniform(0.5, 1.5, size=(load_at.size, P)) * np.array([1.2, 1.0, 0.8])
    q_shape = p_shape * rng.uniform(0.4, 0.6, size=(load_at.size, 1))
    unit = np.zeros(n_lower, dtype=complex)
    unit[load_at] = -(p_shape.sum(axis=1) + 1j * q_shape.sum(axis=1)) * 1e3

    n_comp = max(1, n_lower // COMPENSATOR_EVERY)
    free = np.setdiff1d(np.arange(1, n_lower), load_at)
    comp_at = np.sort(rng.choice(free, size=min(n_comp, free.size), replace=False))

    lower_id = [ROOT_NODE + k for k in range(n_lower)]
    resource_ids = set(lower_id[k] for k in load_at) | set(lower_id[k] for k in comp_at)
    nodes = [Node(SLACK_NODE, ROLE_SLACK, UPPER_VPG), Node(UPPER_NODE, ROLE_ZERO, UPPER_VPG)]
    nodes += [
        Node(i, ROLE_RESOURCE if i in resource_ids else ROLE_ZERO, LOWER_VPG) for i in lower_id
    ]

    r1, x1, b1, r0, x0, b0 = UPPER_SEQ
    branches = [
        sequence_line(SLACK_NODE, UPPER_NODE, UPPER_LINE_KM, r1, x1, b1, r0, x0, b0, p=P),
    ]
    label, mva, v1, v2, r, x, tap = TRANSFORMER
    branches.append(transformer_from_catalog(label, UPPER_NODE, ROOT_NODE, mva, v1, v2, r, x, tap, p=P))
    for k in range(1, n_lower):
        z, b = configs[cfg[k - 1]]
        branches.append(
            pi_line(lower_id[parents[k - 1]], lower_id[k], z, b, float(km[k - 1]), label=cfg[k - 1])
        )

    grid = GridModel(nodes=tuple(nodes), branches=tuple(branches), p=P)
    slacks = [slack_from_catalog(SLACK_NODE, UPPER_VPG, SLACK_SC_MVA, SLACK_R_OVER_X, P)]

    upper_line, tf = branches[0], branches[1]
    z_root = _z1(tf.z) + (_z1(slacks[0].z_te) + _z1(upper_line.z)) * tf.gain ** 2
    scale = DROP_TARGET / _worst_drop(parents, z_root, z_line, unit)
    p_kw = -np.round(p_shape * scale, 3)
    q_kvar = -np.round(q_shape * scale, 3)
    resources = []
    for j, k in enumerate(load_at):
        resources.append(resource_from_catalog(
            lower_id[k], "load", LOAD_V0_KV, p_kw[j], q_kvar[j], ZIP_LOAD_RE, ZIP_LOAD_IM))
    for k in comp_at:
        resources.append(resource_from_catalog(
            lower_id[k], "compensator", LOAD_V0_KV, (0.0,) * P, (COMPENSATOR_KVAR,) * P,
            ZIP_COMP_RE, ZIP_COMP_IM))
    resources.sort(key=lambda m: m.node)
    return grid, slacks, resources


def feeder_text(seed: int, n_lower: int) -> str:
    """Grid-file text of build_feeder(seed, n_lower)."""
    return serialize_grid(*build_feeder(seed, n_lower))
