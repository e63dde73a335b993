"""Loadability study on the bundled 25-node benchmark feeder.

The bundled network is a three-phase distribution feeder derived from the
IEEE 34-node test feeder: a 69 kV Thevenin source, a 2.5 MVA substation
transformer, two in-line regulators modelled as fixed-tap transformers,
and eight ZIP resources (six loads, two reactive compensators) on a
24.9 kV backbone.  The script

  1. solves the base case and reports the stability index profile,
  2. continues the loading factor xi to the fold,
  3. prints the critical-phase trajectory and the singular-value collapse,
  4. writes the trace and the fold-point snapshot as CSVs.

Run:  python3 demos/benchmark_study.py
"""

import os

import numpy as np

from polyvsi import PolyphaseSystem, mismatch, run_cpf, solve_power_flow
from polyvsi.benchmark import build_benchmark
from polyvsi.reporting import write_snapshot_csv, write_trace_csv

# %% build and solve the base case

grid, slacks, resources = build_benchmark()
system = PolyphaseSystem(grid, slacks, resources)
print(f"nodes {len(grid.node_ids)}, branches {len(grid.branches)}, phases {grid.p}")
print(f"resources at {grid.resource_nodes}")

op, res = solve_power_flow(system, xi=1.0)
mis = mismatch(system, op)
print(f"\nbase case: converged in {res.iterations} iterations,")
print(f"  worst power mismatch {max(np.abs(mis.dp).max(), np.abs(mis.dq).max()):.2e} VA")

base = system.vsi_at(res.x, 1.0)
print(f"  L_global = {base.global_value:.4f} at {base.critical}")
print("  five largest local indices:")
for (node, phase), val in sorted(base.local.items(), key=lambda kv: -kv[1])[:5]:
    print(f"    node {node:2d} phase {'ABC'[phase - 1]}:  {val:.4f}")

# %% continuation to the fold

trace = run_cpf(system)
print(f"\ncontinuation: {trace.termination} after {len(trace.samples)} samples")
print(f"  xi_max = {trace.xi_max:.6f}")

final = trace.final
vsi = final.vsi
print(f"  critical pair at the fold: node {vsi.critical[0]} "
      f"phase {'ABC'[vsi.critical[1] - 1]}")
print(f"  L_25 = ({vsi.local[(25, 1)]:.4f}, {vsi.local[(25, 2)]:.4f}, "
      f"{vsi.local[(25, 3)]:.4f})")

# %% critical-phase trajectory
#
# L at the critical pair plus the smallest Jacobian singular value as the
# loading rises; L approaches 1 while sv_min collapses towards 0.

print("\n   xi        L_25,A    sv_min")
step = max(len(trace.samples) // 10, 1)
shown = list(trace.samples[::step])
if shown[-1] is not trace.samples[-1]:
    shown.append(trace.samples[-1])
for s in shown:
    print(f"  {s.xi:8.5f}   {s.vsi.local[(25, 1)]:7.4f}   {s.sv[0]:.4e}")

sv0 = trace.samples[0].sv
svf = final.sv
print(f"\nsingular values (min, mean, max), base -> fold:")
print(f"  {sv0[0]:.4e}, {sv0[1]:.4e}, {sv0[2]:.4e}")
print(f"  {svf[0]:.4e}, {svf[1]:.4e}, {svf[2]:.4e}")
print(f"  sv_min collapsed to {svf[0] / sv0[0]:.2e} of its base value")

# %% voltage profile at the fold (load nodes, kV)

print("\nfold-point load voltages [kV]")
print("  node     A        B        C")
for node in (9, 14, 17, 20, 23, 25):
    kv = [final.op.magnitude(node, ph) / 1e3 for ph in (1, 2, 3)]
    print(f"   {node:3d}   {kv[0]:6.3f}   {kv[1]:6.3f}   {kv[2]:6.3f}")

# %% branch loading at the fold (rated branches, A)

print("\nfold-point series currents on rated branches [A]")
print("  branch    rated      A        B        C")
currents = dict(
    ((b.from_node, b.to_node), np.abs(i))
    for b, i in system.branch_series_currents(final.op)
)
for b in grid.branches:
    if b.rated_a is None:
        continue
    i_abs = currents[(b.from_node, b.to_node)]
    print(
        f"  {b.from_node:3d}-{b.to_node:<3d}   {b.rated_a:5.0f}"
        f"   {i_abs[0]:6.1f}   {i_abs[1]:6.1f}   {i_abs[2]:6.1f}"
    )

# %% write artifacts

out_dir = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(out_dir, exist_ok=True)
trace_path = os.path.join(out_dir, "benchmark_trace.csv")
snap_path = os.path.join(out_dir, "benchmark_fold_snapshot.csv")
write_trace_csv(trace_path, trace)
write_snapshot_csv(snap_path, final.op)
print(f"\nwrote {trace_path}")
print(f"wrote {snap_path}")
