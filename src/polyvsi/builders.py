"""Helpers that turn catalog-style records into grid model elements.

Both the grid-file parser and the bundled benchmark builder go through these
functions, so a model built in code and the same model round-tripped through
a file come out bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Branch
from .nodes import SlackModel

MILE_KM = 1.609344


def seq_to_phase_z(z1: complex, z0: complex, p: int = 3) -> np.ndarray:
    """Phase impedance matrix of a transposed line from sequence impedances.

    Diagonal (z0 + (p-1) z1) / p, off-diagonal (z0 - z1) / p; for p = 3 this
    is the familiar balanced expansion.
    """
    zd = (z0 + (p - 1) * z1) / p
    zo = (z0 - z1) / p
    return np.full((p, p), zo, dtype=complex) + np.eye(p) * (zd - zo)


def seq_to_phase_b(b1: float, b0: float, p: int = 3) -> np.ndarray:
    """Same expansion for shunt susceptances (values in S, result real)."""
    bd = (b0 + (p - 1) * b1) / p
    bo = (b0 - b1) / p
    return np.full((p, p), bo, dtype=float) + np.eye(p) * (bd - bo)


def pi_line(from_node, to_node, z_per_km: np.ndarray, b_per_km_us: np.ndarray,
            length_km: float, rated_a: float | None = None, label: str | None = None) -> Branch:
    """Pi-section line: series z * length, half the charging at each end.

    z_per_km in ohm/km, b_per_km_us in microsiemens/km (susceptance).
    """
    z = np.asarray(z_per_km, dtype=complex) * length_km
    y_half = 1j * np.asarray(b_per_km_us, dtype=float) * 1e-6 * length_km / 2.0
    return Branch(
        from_node=from_node,
        to_node=to_node,
        z=z,
        y_shunt_from=y_half,
        y_shunt_to=y_half.copy(),
        rated_a=rated_a,
        label=label,
    )


def sequence_line(from_node, to_node, length_km: float, r1: float, x1: float, b1_us: float,
                  r0: float, x0: float, b0_us: float, p: int = 3,
                  rated_a: float | None = None, label: str | None = None) -> Branch:
    """Transposed line from per-km sequence parameters (ohm/km, uS/km)."""
    z = seq_to_phase_z(complex(r1, x1), complex(r0, x0), p)
    b = seq_to_phase_b(b1_us, b0_us, p)
    return pi_line(from_node, to_node, z, b, length_km, rated_a=rated_a, label=label)


def transformer_branch(from_node, to_node, s_rated_va: float, v_from_ll: float, v_to_ll: float,
                       r_pu: float, x_pu: float, tap: float = 1.0, p: int = 3,
                       rated_a: float | None = None, label: str | None = None) -> Branch:
    """Two-winding transformer as a polyphase branch.

    Nameplate impedance (r_pu + j x_pu on s_rated_va and the to-side voltage
    base) sits at the to side; the no-load gain is tap * v_to_ll / v_from_ll.
    A tap above one boosts the to-side voltage.
    """
    if not all(0.0 < v < math.inf for v in (s_rated_va, v_from_ll, v_to_ll)):
        raise ValueError("transformer rating and voltages must be positive")
    z_base = v_to_ll * v_to_ll / s_rated_va
    z = complex(r_pu, x_pu) * z_base * np.eye(p)
    gain = tap * v_to_ll / v_from_ll
    return Branch(
        from_node=from_node,
        to_node=to_node,
        z=z,
        gain=gain,
        rated_a=rated_a,
        label=label,
    )


def positive_sequence_source(v_pg: float, p: int = 3) -> np.ndarray:
    """Symmetric source phasors: magnitude v_pg, angles 0, -2pi/p, ..."""
    angles = -2.0 * np.pi * np.arange(p) / p
    return v_pg * np.exp(1j * angles)


def short_circuit_slack(node, v_pg: float, s_sc_va: float, r_over_x: float, p: int = 3) -> SlackModel:
    """Slack from a short-circuit rating: |z_te| = p * v_pg^2 / s_sc, split
    by the given R/X ratio, one decoupled copy per phase."""
    if not 0.0 < s_sc_va < math.inf:
        raise ValueError("short-circuit rating must be positive")
    z_mag = p * v_pg * v_pg / s_sc_va
    x = z_mag / np.sqrt(1.0 + r_over_x * r_over_x)
    r = r_over_x * x
    return SlackModel(
        node=node,
        v_te=positive_sequence_source(v_pg, p),
        z_te=complex(r, x) * np.eye(p),
    )
