"""Resource and slack node models.

Resources follow a polynomial (ZIP) law per phase: active and reactive power
are quadratic polynomials in the voltage magnitude normalized by a reference
v0, scaled by the reference powers p0/q0 and a loading factor lambda.  Any
such resource decomposes exactly, at a given voltage, into a constant
admittance, a constant current, and a constant power term; that decomposition
is what the stability index consumes.  Slacks are ideal polyphase sources
behind a Thevenin impedance.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .blocks import array_dataclass, phase_column
from .errors import ZeroVoltage
from .grid import _inverse, passivity_faults

CLOSURE_TOL = 1e-9


def _require_finite_real(name: str, value) -> None:
    """ValueError naming the field unless value is a real number
    (numbers.Real: Python and numpy ints and floats) that is finite, which
    an int beyond the float range is not."""
    if type(value) is float and math.isfinite(value):  # the common case, without the ABC check
        return
    try:
        finite = isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # math.isfinite(10**400)
        finite = False
    if not finite:
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


@dataclass(frozen=True)
class ZipCoefficients:
    """Normalized polynomial coefficients (quadratic, linear, constant).

    The closure alpha + beta + gamma = 1 pins the reference power to the
    reference voltage: at |v| = v0 the polynomial evaluates to one.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            _require_finite_real(f"ZIP coefficient {name}", getattr(self, name))
        s = self.alpha + self.beta + self.gamma
        if abs(s - 1.0) > CLOSURE_TOL:
            raise ValueError(f"ZIP coefficients must sum to 1, got {s!r}")

    @classmethod
    def from_table(cls, alpha: float, beta: float, gamma: float) -> "ZipCoefficients":
        """Build from published (possibly rounded) values, renormalizing.

        Printed coefficient tables are often rounded so the triple sums to
        1 +/- 1e-3.  Dividing by the sum restores the closure exactly while
        staying within the rounding error of the source.
        """
        for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
            _require_finite_real(f"ZIP coefficient {name}", value)
        s = alpha + beta + gamma
        if abs(s - 1.0) > 0.01:
            raise ValueError(f"coefficient triple sums to {s!r}, not a rounded 1")
        return cls(alpha / s, beta / s, gamma / s)

    def eval(self, u: float) -> float:
        return (self.alpha * u + self.beta) * u + self.gamma


@dataclass(frozen=True)
class PhaseResource:
    """Reference powers and ZIP triples of one phase of a resource.

    p0 is in watt, q0 in var; injections are positive, so consuming loads
    carry negative references.
    """

    p0: float
    q0: float
    zip_re: ZipCoefficients
    zip_im: ZipCoefficients

    def __post_init__(self):
        _require_finite_real("reference power p0", self.p0)
        _require_finite_real("reference power q0", self.q0)


@dataclass(frozen=True)
class ResourceModel:
    """Polyphase ZIP resource at one node.

    v0 is the reference voltage magnitude (phase-to-ground, volt), shared by
    all phases.  lam >= 0 scales both power polynomials; kind distinguishes
    loads (scaled along a continuation) from compensators (held fixed).
    """

    node: object
    v0: float
    phases: tuple
    lam: float = 1.0
    kind: str = "load"

    def __post_init__(self):
        _require_finite_real("reference voltage v0", self.v0)
        if not self.v0 > 0.0:
            raise ValueError(f"reference voltage v0 must be positive, got {self.v0!r}")
        _require_finite_real("loading factor lam", self.lam)
        if not self.lam >= 0.0:
            raise ValueError(f"loading factor lam must be >= 0, got {self.lam!r}")
        if self.kind not in ("load", "compensator"):
            raise ValueError(f"unknown resource kind {self.kind!r}")
        object.__setattr__(self, "phases", tuple(self.phases))

    @property
    def p(self) -> int:
        return len(self.phases)

    def with_lam(self, lam: float) -> "ResourceModel":
        return replace(self, lam=lam)


@dataclass(frozen=True)
class ZipDecomposition:
    """Exact split of a ZIP resource at one voltage.

    y_pm is the constant-admittance part (drawn as -y_pm * v current),
    i_pm the constant-current injection phasor, s_pm the constant power.
    """

    y_pm: complex
    i_pm: complex
    s_pm: complex


def _poly(triples: np.ndarray, u: np.ndarray) -> np.ndarray:
    return (triples[:, 0] * u + triples[:, 1]) * u + triples[:, 2]


@array_dataclass(frozen=True)
class ZipTable:
    """ZIP resources packed one row per node-phase for vectorized evaluation.

    Rows follow the resources' order, phases 1..P within each resource.  v0,
    lam, p0 and q0 are per-row vectors; zip_re and zip_im hold the (alpha,
    beta, gamma) triples as n x 3 arrays; load marks the rows that scale with
    the loading factor (compensators do not).  The power law, its voltage
    derivative and the admittance/current/power split are written here once;
    pm_power_at and pm_zip_at are their scalar references.  All three take
    the loading factors as an argument so a system can drive them along its
    trajectory; lam holds the models' own factors.
    """

    v0: np.ndarray
    lam: np.ndarray
    load: np.ndarray
    p0: np.ndarray
    q0: np.ndarray
    zip_re: np.ndarray
    zip_im: np.ndarray

    @classmethod
    def from_resources(cls, resources) -> "ZipTable":
        rows = [(r, ph) for r in resources for ph in r.phases]

        def triples(zs):
            return np.array([(z.alpha, z.beta, z.gamma) for z in zs], dtype=float).reshape(-1, 3)

        return cls(
            v0=np.array([r.v0 for r, _ in rows], dtype=float),
            lam=np.array([r.lam for r, _ in rows], dtype=float),
            load=np.array([r.kind == "load" for r, _ in rows], dtype=bool),
            p0=np.array([ph.p0 for _, ph in rows], dtype=float),
            q0=np.array([ph.q0 for _, ph in rows], dtype=float),
            zip_re=triples(ph.zip_re for _, ph in rows),
            zip_im=triples(ph.zip_im for _, ph in rows),
        )

    def power(self, e: np.ndarray, lam: np.ndarray) -> tuple:
        """Injected (P, Q) per row at signed magnitudes e under loading
        factors lam.  The law reads |e|, so the state (-E, theta + pi), the
        same phasor as (E, theta), draws the same power."""
        u = np.abs(e) / self.v0
        return lam * self.p0 * _poly(self.zip_re, u), lam * self.q0 * _poly(self.zip_im, u)

    def power_de(self, e: np.ndarray, lam: np.ndarray) -> tuple:
        """Derivatives d(P, Q)/de per row: the law's slope in |e| times the
        sign of e (+1 at e = +0)."""
        u = np.abs(e) / self.v0
        sign = np.copysign(1.0, e)
        dp = lam * self.p0 * (2.0 * self.zip_re[:, 0] * u + self.zip_re[:, 1]) / self.v0 * sign
        dq = lam * self.q0 * (2.0 * self.zip_im[:, 0] * u + self.zip_im[:, 1]) / self.v0 * sign
        return dp, dq

    def split(self, v: np.ndarray, lam: np.ndarray) -> tuple:
        """(y_pm, i_pm, s_pm) per row at phasors v under loading factors lam,
        as pm_zip_at does for one."""
        s_z, s_i, s_p = (
            lam * (self.zip_re[:, k] * self.p0 + 1j * (self.zip_im[:, k] * self.q0))
            for k in range(3)
        )
        y_pm = -np.conj(s_z) / (self.v0 * self.v0)
        i_pm = np.conj(s_i / self.v0) * (v / np.abs(v))
        return y_pm, i_pm, s_p


@array_dataclass(frozen=True)
class SlackModel:
    """Ideal polyphase source v_te behind the Thevenin impedance z_te, which
    passes passivity_faults with its own _inverse rcond, as a branch does;
    y_te keeps that one inverse for the stamp (build_augmented)."""

    node: object
    v_te: np.ndarray
    z_te: np.ndarray
    y_te: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.v_te, dtype=complex)
        z = np.asarray(self.z_te, dtype=complex)
        if v.ndim != 1:
            raise ValueError("v_te must be a vector")
        if z.shape != (v.size, v.size):
            raise ValueError("z_te must be P x P matching v_te")
        if not np.all(np.isfinite(v)):
            raise ValueError("v_te must be finite")
        y, rcond = _inverse(z)
        if faults := passivity_faults([z], [rcond]):
            raise ValueError(f"z_te must be finite, symmetric, invertible and with a positive "
                             f"semidefinite real part: {faults[0][1]} ({faults[0][2]})")
        object.__setattr__(self, "v_te", v)
        object.__setattr__(self, "z_te", z)
        object.__setattr__(self, "y_te", y)

    @property
    def p(self) -> int:
        return self.v_te.size


def pm_power_at(model: ResourceModel, phase: int, v: complex) -> complex:
    """Injected complex power of one phase at voltage phasor v.

    phase is 1-based, ValueError outside 1..p.  S = lam * (p0 * poly_re(u)
    + j q0 * poly_im(u)) with u = |v| / v0.
    """
    ph = model.phases[phase_column(phase, model.p)]
    u = abs(v) / model.v0
    p = model.lam * ph.p0 * ph.zip_re.eval(u)
    q = model.lam * ph.q0 * ph.zip_im.eval(u)
    return complex(p, q)


def pm_zip_at(model: ResourceModel, phase: int, v: complex) -> ZipDecomposition:
    """Exact admittance / current / power split at voltage v (1-based phase,
    ValueError outside 1..p).

    The quadratic terms become a constant admittance, the linear terms a
    constant current aligned with v, the constant terms a constant power:

        y_pm = -conj(lam (alpha_re p0 + j alpha_im q0)) / v0^2
        i_pm = conj(lam (beta_re p0 + j beta_im q0) / v0) * v / |v|
        s_pm = lam (gamma_re p0 + j gamma_im q0)

    so that -conj(y_pm) |v|^2 + v conj(i_pm) + s_pm reproduces pm_power_at.
    """
    if v == 0:
        raise ZeroVoltage(f"resource {model.node} phase {phase}: |v| = 0")
    ph = model.phases[phase_column(phase, model.p)]
    s_z = model.lam * complex(ph.zip_re.alpha * ph.p0, ph.zip_im.alpha * ph.q0)
    s_i = model.lam * complex(ph.zip_re.beta * ph.p0, ph.zip_im.beta * ph.q0)
    s_p = model.lam * complex(ph.zip_re.gamma * ph.p0, ph.zip_im.gamma * ph.q0)
    y_pm = -np.conj(s_z) / (model.v0 * model.v0)
    i_pm = np.conj(s_i / model.v0) * (v / abs(v))
    return ZipDecomposition(y_pm=complex(y_pm), i_pm=complex(i_pm), s_pm=s_p)


def injected_current(model: ResourceModel, phase: int, v: complex) -> complex:
    """Current injection consistent with the power law: I = conj(S(v) / v)."""
    if v == 0:
        raise ZeroVoltage(f"resource {model.node} phase {phase}: |v| = 0")
    return complex(np.conj(pm_power_at(model, phase, v) / v))
