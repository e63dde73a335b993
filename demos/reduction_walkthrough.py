"""Network reduction walk-through.

Builds a small two-phase grid by hand, assembles the compound nodal
admittance matrix, eliminates the interior node by Kron reduction, and
splits the survivors into hybrid blocks.  Every reduction step is checked
numerically against the unreduced network, so the script doubles as a
worked example of the invariants the library maintains:

  * Kron reduction preserves the terminal current/voltage relation
    whenever the eliminated nodes carry no injection.
  * The hybrid blocks satisfy V_M = h_mm I_M + h_mmc V_Mc and
    I_Mc = h_mcm I_M + h_mcmc V_Mc for *any* excitation.
  * With a Thevenin slack attached, reduce_augmented reaches the same hybrid
    blocks from one factorization of the physical-node admittance as these
    stepwise Kron and hybrid steps do.

Run:  python3 demos/reduction_walkthrough.py
"""

import numpy as np

from polyvsi import (
    BlockMatrix,
    Branch,
    GridModel,
    Node,
    SlackModel,
    assemble_admittance,
    build_augmented,
    hybrid_partition,
    kron_reduce,
    positive_sequence_source,
    reduce_augmented,
)

rng = np.random.default_rng(7)

# %% a 4-node, 2-phase feeder: slack - junction - two resource taps
#
#     1 ----- 2 ----- 3
#             |
#             4
#
# Node 2 is a passive junction (no model attached), so it is eligible
# for elimination.

P = 2
z_line = np.array([[0.4 + 0.9j, 0.1 + 0.3j], [0.1 + 0.3j, 0.4 + 0.9j]])

grid = GridModel(
    nodes=(
        Node(1, role="slack", vnom=1000.0),
        Node(2, role="zero", vnom=1000.0),
        Node(3, role="resource", vnom=1000.0),
        Node(4, role="resource", vnom=1000.0),
    ),
    branches=(
        Branch(1, 2, z=z_line),
        Branch(2, 3, z=z_line),
        Branch(2, 4, z=1.5 * z_line),
    ),
    p=P,
)

y = assemble_admittance(grid)
print("full admittance matrix")
print(f"  nodes {y.row_nodes}, shape {y.data.shape}")
print(f"  block (1,2):\n{np.array2string(y.block(1, 2), precision=4)}")

# %% Kron reduction: eliminate the passive junction
#
# With I_2 = 0 the junction row can be solved for V_2 and folded into
# the neighbours; the reduced matrix relates terminal quantities only.

reduced = kron_reduce(y, {2})
print("\nafter eliminating node 2")
print(f"  nodes {reduced.row_nodes}, shape {reduced.data.shape}")

# check: excite the full network with terminal voltages, zero injection
# at node 2, and compare terminal currents against the reduced matrix.
v_term = rng.standard_normal(3 * P) + 1j * rng.standard_normal(3 * P)
ti = y.row_indices([1, 3, 4])
zi = y.row_indices([2])
# solve the junction voltage from KCL, then terminal currents two ways
v_z = np.linalg.solve(y.data[np.ix_(zi, zi)], -y.data[np.ix_(zi, ti)] @ v_term)
i_full = y.data[np.ix_(ti, ti)] @ v_term + y.data[np.ix_(ti, zi)] @ v_z
i_reduced = reduced.data @ v_term
err = np.linalg.norm(i_full - i_reduced) / np.linalg.norm(i_full)
print(f"  terminal-current agreement (full vs reduced): {err:.2e}")
assert err < 1e-12

# %% sequential == one-shot
#
# Eliminating {2} then nothing else is trivial here, so make the point
# on a bigger elimination set: drop node 4 as well (pretend it is
# passive) and compare one-shot against node-by-node.

oneshot = kron_reduce(y, {2, 4})
seq = kron_reduce(kron_reduce(y, {2}), {4})
print("\nsequential vs one-shot elimination of {2, 4}")
print(f"  max |difference| = {np.abs(oneshot.data - seq.data).max():.2e}")

# %% hybrid partition: mixed current/voltage interface
#
# Resource nodes M = {3, 4} keep current injections; the slack node is
# voltage-sourced.  The hybrid blocks express V_M and I_Mc in terms of
# (I_M, V_Mc).

h = hybrid_partition(reduced, {3, 4})
print("\nhybrid blocks over M = {3, 4}")
print(f"  h_mm   {h.h_mm.data.shape}  (impedance seen by the resources)")
print(f"  h_mmc  {h.h_mmc.data.shape}  (voltage transfer from the slack)")
print(f"  h_mcm  {h.h_mcm.data.shape}")
print(f"  h_mcmc {h.h_mcmc.data.shape}")

i_m = rng.standard_normal(2 * P) + 1j * rng.standard_normal(2 * P)
v_c = rng.standard_normal(P) + 1j * rng.standard_normal(P)
mi = reduced.row_indices(h.m_nodes)
ci = reduced.row_indices(h.mc_nodes)
v_m = np.linalg.solve(
    reduced.data[np.ix_(mi, mi)], i_m - reduced.data[np.ix_(mi, ci)] @ v_c
)
i_c = reduced.data[np.ix_(ci, ci)] @ v_c + reduced.data[np.ix_(ci, mi)] @ v_m

e1 = np.linalg.norm(h.h_mm.data @ i_m + h.h_mmc.data @ v_c - v_m)
e2 = np.linalg.norm(h.h_mcm.data @ i_m + h.h_mcmc.data @ v_c - i_c)
print(f"  V_M relation residual: {e1:.2e}")
print(f"  I_Mc relation residual: {e2:.2e}")
assert max(e1, e2) < 1e-12

# %% the 2x2 scalar example
#
# Y = [[2, -1], [-1, 2]] with M = {2} gives h_mm = 1/2, h_mmc = 1/2,
# h_mcm = -1/2, h_mcmc = 3/2 -- a useful number check when porting.

y22 = BlockMatrix(
    data=np.array([[2.0, -1.0], [-1.0, 2.0]], complex),
    row_nodes=(1, 2),
    col_nodes=(1, 2),
    p=1,
)
h22 = hybrid_partition(y22, {2})
print("\n2x2 example  Y = [[2, -1], [-1, 2]], M = {2}")
print(
    f"  h_mm = {h22.h_mm.data[0, 0].real:.3g}, "
    f"h_mmc = {h22.h_mmc.data[0, 0].real:.3g}, "
    f"h_mcm = {h22.h_mcm.data[0, 0].real:.3g}, "
    f"h_mcmc = {h22.h_mcmc.data[0, 0].real:.3g}"
)

# %% one factorization == the stepwise steps
#
# Attach a Thevenin source to the slack.  reduce_augmented solves the
# physical-node block of the augmented admittance once, for the unit
# columns of the resources and the source coupling; Kron-eliminating the
# slack terminal and the junction and then splitting off M = {3, 4} must
# give the same four blocks.  h_mcmc is what the source sees with the
# resources open, 0 on this shunt-free grid, so its difference is taken
# relative to the source block Y_II it is computed from.

slack = SlackModel(node=1, v_te=positive_sequence_source(1000.0, P), z_te=0.1 * z_line)
aug = build_augmented(grid, [slack])
direct = reduce_augmented(aug)
stepwise = hybrid_partition(kron_reduce(aug.y_prime, {1, 2}), {3, 4})
y_ii = aug.y_prime.block(aug.internal_nodes[0], aug.internal_nodes[0])
print("\none-factorization reduction vs stepwise Kron + hybrid")
for name in ("h_mm", "h_mmc", "h_mcm", "h_mcmc"):
    got, want = getattr(direct, name).data, getattr(stepwise, name).data
    scale = np.linalg.norm(y_ii if name == "h_mcmc" else want)
    gap = np.linalg.norm(got - want) / scale
    print(f"  {name:<6} relative difference {gap:.2e}")
    assert gap < 1e-12

print("\nall reduction identities verified.")
