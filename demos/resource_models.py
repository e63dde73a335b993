"""Resource and source models: ZIP polynomials and Thevenin slacks.

Walks through the two model families attached to grid nodes:

  * ZIP resources -- per-phase complex power as a quadratic polynomial of
    the voltage magnitude, with separate coefficient triples for the real
    and reactive parts.  Shows table renormalization, the exact
    admittance/current/power decomposition, and the current/power duality.
  * Thevenin slacks -- an ideal polyphase source behind an impedance,
    built either explicitly or from a short-circuit rating.

Run:  python3 demos/resource_models.py
"""

import numpy as np

from polyvsi import (
    PhaseResource,
    ResourceModel,
    ZipCoefficients,
    injected_current,
    pm_power_at,
    pm_zip_at,
    positive_sequence_source,
    short_circuit_slack,
)

# %% coefficient triples: exact and rounded
#
# The constructor enforces the closure alpha + beta + gamma = 1 exactly;
# from_table accepts published, rounded triples and renormalizes.

exact = ZipCoefficients(0.2, 0.3, 0.5)
print("exact triple      ", exact)

rounded = ZipCoefficients.from_table(1.064, -1.156, 1.093)  # sums to 1.001
print("renormalized table", rounded)
print(f"  closure: {rounded.alpha + rounded.beta + rounded.gamma:.17f}")

# %% polynomial shape
#
# eval(u) with u = |v| / v0: at nominal voltage every triple gives 1.

print("\npolynomial vs voltage  (u = |v|/v0)")
print("  u      Z-only   I-only   P-only   mixed")
z_only = ZipCoefficients(1.0, 0.0, 0.0)
i_only = ZipCoefficients(0.0, 1.0, 0.0)
p_only = ZipCoefficients(0.0, 0.0, 1.0)
for u in (0.7, 0.85, 1.0, 1.1):
    print(
        f"  {u:4.2f}   {z_only.eval(u):6.4f}   {i_only.eval(u):6.4f}"
        f"   {p_only.eval(u):6.4f}   {exact.eval(u):6.4f}"
    )

# %% a two-phase resource and its decomposition
#
# pm_zip_at splits the polynomial into constant-admittance,
# constant-current, and constant-power parts whose sum reproduces
# pm_power_at exactly at the evaluation voltage.

load = ResourceModel(
    node=3,
    v0=1000.0,
    phases=(
        PhaseResource(p0=-5e3, q0=-2e3, zip_re=exact, zip_im=rounded),
        PhaseResource(p0=-3e3, q0=-1e3, zip_re=z_only, zip_im=p_only),
    ),
)

v = 950.0 * np.exp(1j * 0.12)
print("\nZIP decomposition at v = 950 V, angle 0.12 rad (phase 1)")
s_poly = pm_power_at(load, 1, v)
dec = pm_zip_at(load, 1, v)
s_rebuilt = -np.conj(dec.y_pm) * abs(v) ** 2 + v * np.conj(dec.i_pm) + dec.s_pm
print(f"  polynomial power   {s_poly:.6f}")
print(f"  y_pm = {dec.y_pm:.6e}")
print(f"  i_pm = {dec.i_pm:.6e}")
print(f"  s_pm = {dec.s_pm:.6f}")
print(f"  reconstruction error {abs(s_rebuilt - s_poly):.2e}")

# current/power duality: v * conj(i) must equal the polynomial power
i_inj = injected_current(load, 1, v)
print(f"  duality error        {abs(v * np.conj(i_inj) - s_poly):.2e}")

# %% loading factor
#
# lam scales both polynomials; with_lam returns a scaled copy, which is
# how the continuation sweeps load level without mutating models.

for lam in (0.0, 0.5, 1.0, 1.5):
    s = pm_power_at(load.with_lam(lam), 1, 1000.0 + 0j)
    print(f"  lam = {lam:3.1f}:  S(v0) = {s:.1f}")

# %% Thevenin slack from a short-circuit rating
#
# A 69 kV (line-to-line) bus with 100 MVA fault level and R/X = 0.1:
# |z_te| = p v_pg^2 / S_sc per phase, split by the R/X ratio.

v_pg = 69e3 / np.sqrt(3.0)
slack = short_circuit_slack(1, v_pg=v_pg, s_sc_va=100e6, r_over_x=0.1)
print("\nshort-circuit slack (69 kV LL, 100 MVA, R/X = 0.1)")
print(f"  v_te magnitudes {np.abs(slack.v_te).round(1)}")
print(f"  v_te angles     {np.angle(slack.v_te).round(4)}")
print(f"  z_te diagonal   {slack.z_te[0, 0]:.4f} ohm")

# SlackModel has checked z_te invertible; the augmented network stamps its
# inverse y_te as a branch from an internal source node to the slack
y_te = np.linalg.inv(slack.z_te)
print(f"  y_te z_te = I check: {np.abs(y_te @ slack.z_te - np.eye(3)).max():.2e}")

# %% explicit source phasors
#
# positive_sequence_source spaces p phasors by -2 pi / p.

for p in (1, 2, 3):
    src = positive_sequence_source(100.0, p)
    print(f"  p = {p}: angles {np.angle(src).round(4)}")
