"""
Resource (ZIP) and slack node models.

Proves:
 Group 1 - Polynomial coefficients
   1.  Closure alpha + beta + gamma = 1 enforced at 1e-9
   2.  from_table renormalizes rounded triples, rejects sums far from 1
   3.  eval(1) = 1 for any valid triple; spot value checks the ordering
       (alpha multiplies u^2)

 Group 2 - Resource power law
   4.  At |v| = v0 and lam = 1 the injection is exactly p0 + j q0
   5.  lam = 0 kills the injection; the law is linear in lam
   6.  ZIP decomposition reconstructs the power law at any voltage
   7.  injected_current is conj(S / v); zero voltage raises
   7a. pm_power_at, pm_zip_at and injected_current refuse a phase outside
       1..p (0, -1, p + 1) with a ValueError naming it
   8.  Constructor validation: v0 > 0, lam >= 0, known kind
   9.  Non-finite coefficients, reference powers and v0 are rejected
   9a. Every scalar field (the ZIP triple, also through from_table, p0,
       q0, v0, lam) refuses a value that is not a finite real number,
       complex, array, string or None included, with a ValueError naming
       the field; numpy's real scalars pass and are kept as given
   9b. Plain floats take a fast path, and every other value the full check:
       bools, numpy scalars and float subclasses pass when finite, nan,
       inf, numpy's non-finite scalars and ints beyond the float range are
       refused with the usual message
  10.  The packed ZipTable matches pm_power_at / pm_zip_at row by row,
       and its voltage derivative matches a central difference

 Group 3 - Slacks
  11.  z_te symmetry and PSD real part enforced by the grid's passivity
       rule, edges included; shape checks; non-finite v_te or z_te rejected
  12.  An invertible z_te is kept as given; a singular or near-singular
       z_te fails the passivity rule's invertibility test with ValueError
  13.  short_circuit_slack magnitude / ratio arithmetic
  14.  positive_sequence_source angles step by -2 pi / p
"""

import re

import numpy as np
import pytest

from polyvsi_cases import PASSIVITY_EDGES
from polyvsi.builders import positive_sequence_source, short_circuit_slack
from polyvsi.errors import ZeroVoltage
from polyvsi.nodes import (
    PhaseResource,
    ResourceModel,
    SlackModel,
    ZipCoefficients,
    ZipTable,
    injected_current,
    pm_power_at,
    pm_zip_at,
)

ZRE = ZipCoefficients.from_table(-0.067, 0.251, 0.816)
ZIM = ZipCoefficients.from_table(1.064, -0.088, 0.025)


def _model(p0=-5e3, q0=-2e3, v0=1000.0, lam=1.0, kind="load"):
    return ResourceModel(node=2, v0=v0, lam=lam, kind=kind,
                         phases=(PhaseResource(p0=p0, q0=q0, zip_re=ZRE, zip_im=ZIM),))


# -- Group 1 ---------------------------------------------------------------


def test_closure_enforced():
    ZipCoefficients(0.2, 0.3, 0.5)
    with pytest.raises(ValueError):
        ZipCoefficients(0.3, 0.3, 0.3)


def test_from_table_renormalizes():
    z = ZipCoefficients.from_table(1.064, -0.088, 0.025)
    s = 1.064 - 0.088 + 0.025
    assert np.isclose(z.alpha, 1.064 / s, rtol=0, atol=1e-15)
    assert abs(z.alpha + z.beta + z.gamma - 1.0) < 1e-12
    with pytest.raises(ValueError):
        ZipCoefficients.from_table(0.5, 0.4, 0.2)


def test_eval_unity_and_ordering():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.uniform(0, 0.5, size=2)
        z = ZipCoefficients(a, b, 1.0 - (a + b))
        assert abs(z.eval(1.0) - 1.0) < 1e-12
    assert np.isclose(ZipCoefficients(0.2, 0.3, 0.5).eval(2.0), 0.2 * 4 + 0.3 * 2 + 0.5)


# -- Group 2 ---------------------------------------------------------------


def test_power_at_reference_voltage():
    m = _model()
    v = 1000.0 * np.exp(1j * 0.7)
    s = pm_power_at(m, 1, v)
    assert abs(s - (-5e3 - 2e3j)) < 1e-9


def test_lam_scaling():
    v = 980.0 * np.exp(-1j * 2.1)
    assert pm_power_at(_model(lam=0.0), 1, v) == 0.0
    s1 = pm_power_at(_model(lam=1.0), 1, v)
    s2 = pm_power_at(_model(lam=2.0), 1, v)
    assert abs(s2 - 2.0 * s1) < 1e-9 * abs(s1)


def test_zip_decomposition_reconstructs():
    rng = np.random.default_rng(5)
    m = _model()
    for _ in range(25):
        v = complex(rng.uniform(400, 1400) * np.exp(1j * rng.uniform(-np.pi, np.pi)))
        dec = pm_zip_at(m, 1, v)
        s = -np.conj(dec.y_pm) * abs(v) ** 2 + v * np.conj(dec.i_pm) + dec.s_pm
        ref = pm_power_at(m, 1, v)
        assert abs(s - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_injected_current():
    m = _model()
    v = 950.0 * np.exp(1j * 0.3)
    i = injected_current(m, 1, v)
    assert abs(i - np.conj(pm_power_at(m, 1, v) / v)) < 1e-12
    with pytest.raises(ZeroVoltage):
        injected_current(m, 1, 0.0)
    with pytest.raises(ZeroVoltage):
        pm_zip_at(m, 1, 0.0)


def test_phase_outside_range_raises():
    m = _model()
    three = ResourceModel(node=2, v0=1000.0, phases=m.phases * 3)
    for model, phase in ((m, 0), (m, -1), (m, 2), (three, 0), (three, -1), (three, 4)):
        for law in (pm_power_at, pm_zip_at, injected_current):
            with pytest.raises(ValueError, match=f"^phase {phase} is outside 1..{model.p}$"):
                law(model, phase, 950.0 + 10.0j)


def test_resource_validation():
    with pytest.raises(ValueError):
        _model(v0=0.0)
    with pytest.raises(ValueError):
        _model(lam=-0.5)
    with pytest.raises(ValueError):
        _model(kind="generator")
    m2 = _model().with_lam(1.7)
    assert m2.lam == 1.7
    assert m2.kind == "load"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameters_rejected(bad):
    with pytest.raises(ValueError):
        ZipCoefficients(bad, 0.5, 0.5)
    with pytest.raises(ValueError):
        ZipCoefficients.from_table(-0.067, bad, 0.816)
    with pytest.raises(ValueError):
        _model(p0=bad)
    with pytest.raises(ValueError):
        _model(q0=bad)
    with pytest.raises(ValueError):
        _model(v0=bad)


# Values that are not finite real numbers; the complex ones used to pass
# construction (p0) or raise a raw TypeError (v0), the array numpy's "truth
# value is ambiguous", and the int beyond the float range a raw OverflowError.
NOT_FINITE_REAL = [np.nan, np.inf, -np.inf, 1.0 + 0.5j, np.complex128(2.0), np.array([1.0, 2.0]),
                   np.array(1.0), "1.0", None, pytest.param(10**400, id="10**400")]


@pytest.mark.parametrize("bad", NOT_FINITE_REAL, ids=repr)
def test_scalar_fields_must_be_finite_reals(bad):
    builds = [
        ("ZIP coefficient alpha", lambda: ZipCoefficients(bad, 0.5, 0.5)),
        ("ZIP coefficient beta", lambda: ZipCoefficients(0.5, bad, 0.5)),
        ("ZIP coefficient gamma", lambda: ZipCoefficients(0.5, 0.5, bad)),
        ("ZIP coefficient beta", lambda: ZipCoefficients.from_table(0.5, bad, 0.5)),
        ("reference power p0", lambda: _model(p0=bad)),
        ("reference power q0", lambda: _model(q0=bad)),
        ("reference voltage v0", lambda: _model(v0=bad)),
        ("loading factor lam", lambda: _model(lam=bad)),
    ]
    for name, build in builds:
        with pytest.raises(ValueError, match=f"^{name} must be a finite real number, got "):
            build()
    # numpy's scalars are real numbers like Python's, and are kept as given.
    for good in (np.float64(0.5), np.int64(1)):
        assert _model(p0=good, v0=good, lam=good).phases[0].p0 is good


class _Float(float):
    pass


@pytest.mark.parametrize("value, finite", [
    (0.0, True), (-0.0, True), (5e-324, True), (1.7976931348623157e308, True), (1, True),
    (True, True), (False, True), (np.float64(2.5), True), (np.float32(-1.5), True),
    (np.int64(3), True), (_Float(1.5), True),
    (float("nan"), False), (float("inf"), False), (-float("inf"), False),
    (np.float64("nan"), False), (np.float32("inf"), False), (_Float("inf"), False),
    pytest.param(10**400, False, id="10**400"), pytest.param(-(10**400), False, id="-10**400"),
], ids=repr)
def test_finite_real_verdicts(value, finite):
    if finite:
        assert _model(p0=value).phases[0].p0 is value
    else:
        with pytest.raises(ValueError, match=re.escape(
                f"reference power p0 must be a finite real number, got {value!r}")):
            _model(p0=value)


def test_zip_table_matches_scalar_references():
    rng = np.random.default_rng(8)
    comp = ZipCoefficients(0.0, 0.0, 1.0)
    load = ResourceModel(node=2, v0=1000.0, lam=1.4, phases=tuple(
        PhaseResource(p0=-5e3 * (q + 1), q0=-2e3 * (q + 1), zip_re=ZRE, zip_im=ZIM) for q in range(3)
    ))
    cap = ResourceModel(node=3, v0=900.0, kind="compensator",
                        phases=(PhaseResource(0.0, 3e3, comp, comp),) * 3)
    models = (load, cap)
    table = ZipTable.from_resources(models)
    assert table.load.tolist() == [True] * 3 + [False] * 3
    v = rng.uniform(700, 1200, 6) * np.exp(1j * rng.uniform(-np.pi, np.pi, 6))
    e = np.abs(v)
    p, q = table.power(e, table.lam)
    y, i, s = table.split(v, table.lam)
    dp, dq = table.power_de(e, table.lam)
    h = 1e-3
    p_hi, q_hi = table.power(e + h, table.lam)
    p_lo, q_lo = table.power(e - h, table.lam)
    for k, (m, ph) in enumerate((m, ph) for m in models for ph in range(1, 4)):
        ref = pm_power_at(m, ph, v[k])
        assert abs(complex(p[k], q[k]) - ref) <= 1e-12 * abs(ref)
        dec = pm_zip_at(m, ph, v[k])
        assert abs(y[k] - dec.y_pm) <= 1e-15 * max(abs(dec.y_pm), 1.0)
        assert abs(i[k] - dec.i_pm) <= 1e-12 * max(abs(dec.i_pm), 1.0)
        assert s[k] == dec.s_pm
        assert abs(dp[k] - (p_hi[k] - p_lo[k]) / (2 * h)) <= 1e-6 * max(abs(dp[k]), 1.0)
        assert abs(dq[k] - (q_hi[k] - q_lo[k]) / (2 * h)) <= 1e-6 * max(abs(dq[k]), 1.0)


# -- Group 3 ---------------------------------------------------------------


def test_slack_validation():
    v = positive_sequence_source(1000.0, 3)
    with pytest.raises(ValueError):
        SlackModel(node=1, v_te=v, z_te=np.array([[1.0, 0.5, 0], [0, 1, 0], [0, 0, 1]], dtype=complex))
    with pytest.raises(ValueError):
        SlackModel(node=1, v_te=v, z_te=-np.eye(3, dtype=complex))
    with pytest.raises(ValueError):
        SlackModel(node=1, v_te=v, z_te=np.eye(2, dtype=complex))
    for bad in (np.inf, np.nan):
        z = np.eye(3, dtype=complex)
        z[0, 1] = z[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SlackModel(node=1, v_te=v, z_te=z)
        with pytest.raises(ValueError):
            SlackModel(node=1, v_te=np.array([bad, 1.0, 1.0]), z_te=np.eye(3, dtype=complex))
    v2 = positive_sequence_source(1000.0, 2)
    for z, kind in PASSIVITY_EDGES:
        if kind is None:
            SlackModel(node=1, v_te=v2, z_te=z)
        else:
            with pytest.raises(ValueError, match=kind):
                SlackModel(node=1, v_te=v2, z_te=z)


def test_slack_interface_inverts():
    z = np.array([[0.3 + 1.0j, 0.1 + 0.2j], [0.1 + 0.2j, 0.4 + 0.9j]])
    s = SlackModel(node=1, v_te=positive_sequence_source(1000.0, 2), z_te=z)
    assert np.array_equal(s.z_te, z)
    near = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]], dtype=complex)
    for z_bad in (np.zeros((2, 2), dtype=complex), near):
        with pytest.raises(ValueError, match="singular"):
            SlackModel(node=1, v_te=positive_sequence_source(1000.0, 2), z_te=z_bad)


def test_short_circuit_slack_arithmetic():
    v_pg = 69e3 / np.sqrt(3.0)
    s = short_circuit_slack(1, v_pg, 100e6, 0.1, p=3)
    z_mag = 3.0 * v_pg * v_pg / 100e6
    x = z_mag / np.sqrt(1.01)
    expected = complex(0.1 * x, x)
    assert np.allclose(s.z_te, expected * np.eye(3), atol=1e-12)
    # sanity on the absolute scale the 69 kV rating implies
    assert abs(s.z_te[0, 0] - (4.7374 + 47.3737j)) < 1e-3


def test_positive_sequence_source():
    v = positive_sequence_source(1000.0, 3)
    assert np.allclose(np.abs(v), 1000.0)
    assert np.isclose(np.angle(v[0]), 0.0)
    assert np.isclose(np.angle(v[1]), -2.0 * np.pi / 3.0)
    assert np.isclose(np.angle(v[2]), 2.0 * np.pi / 3.0)
