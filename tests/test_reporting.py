"""
CSV schemas and round trips.

Proves:
 Group 1 - Schema stability
   1.  Header rows are exactly the documented column lists
   2.  Trace rows: one per (sample, node, phase); local index only on
       resource pairs; xi/step constant within a sample block; a None
       singular value is a blank cell
   3.  PF rows: node rows carry voltages and mismatch, branch rows carry
       current magnitude and rating
   4.  VSI rows: exactly one is_critical = 1 and it marks the maximum

 Group 2 - Snapshot round trip
   5.  write -> read -> snapshot_to_point reproduces the operating point
       to 9-digit precision; missing pairs and foreign headers raise
   5a. Non-numeric and non-finite snapshot fields raise ParseError naming
       the line

 Group 3 - Atomicity conveniences
   6.  write_csv_atomic overwrites an existing file in place
"""

import csv
from dataclasses import replace

import numpy as np
import pytest

from conftest import two_bus
from polyvsi.continuation import CpfConfig, CpfTrace, run_cpf
from polyvsi.errors import ParseError
from polyvsi.powerflow import PolyphaseSystem, mismatch, solve_power_flow
from polyvsi.reporting import (
    PF_HEADER,
    SNAPSHOT_HEADER,
    TRACE_HEADER,
    VSI_HEADER,
    fmt9,
    read_snapshot_csv,
    snapshot_to_point,
    trace_rows,
    vsi_rows,
    write_csv_atomic,
    write_pf_csv,
    write_snapshot_csv,
    write_trace_csv,
    write_vsi_csv,
)


@pytest.fixture(scope="module")
def system():
    grid, slacks, resources = two_bus()
    return PolyphaseSystem(grid, slacks, resources)


@pytest.fixture(scope="module")
def solved(system):
    op, _ = solve_power_flow(system, xi=1.0)
    return op


def _read(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# -- Group 1 ---------------------------------------------------------------


def test_headers_exact():
    assert TRACE_HEADER == ["step", "xi", "node", "phase", "V_mag_V", "V_ang_rad",
                            "L_local", "L_global", "sv_min", "sv_mean", "sv_max"]
    assert SNAPSHOT_HEADER == ["node", "phase", "V_mag_V", "V_ang_rad"]
    assert PF_HEADER == ["kind", "id", "phase", "V_mag_V", "V_ang_rad", "I_A",
                         "rated_A", "dP_W", "dQ_VAR"]
    assert VSI_HEADER == ["node", "phase", "L_local", "L_global", "is_critical"]


def test_trace_rows_layout(system, tmp_path):
    trace = run_cpf(system, CpfConfig(max_steps=4))
    rows = trace_rows(trace)
    assert len(rows) == len(trace.samples) * 2  # two nodes, one phase
    first = rows[0]
    assert first[0] == 0 and first[2] == 1 and first[3] == 1
    assert first[6] == ""  # node 1 carries no local index
    second = rows[1]
    assert second[2] == 2
    assert float(second[6]) == pytest.approx(trace.samples[0].vsi.local[(2, 1)])
    assert float(second[8]) == pytest.approx(trace.samples[0].sv[0])
    stepped = CpfTrace(samples=[replace(trace.samples[0], sv=(0.5, None, None))])
    assert [row[8:] for row in trace_rows(stepped)] == [[fmt9(0.5), "", ""]] * 2
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    header, body = _read(path)
    assert header == TRACE_HEADER
    assert len(body) == len(rows)


def test_pf_rows_layout(system, solved, tmp_path):
    mis = mismatch(system, solved)
    path = tmp_path / "pf.csv"
    write_pf_csv(path, system, solved, mis)
    header, body = _read(path)
    assert header == PF_HEADER
    node_rows = [r for r in body if r[0] == "node"]
    branch_rows = [r for r in body if r[0] == "branch"]
    assert len(node_rows) == 2 and len(branch_rows) == 1
    n2 = next(r for r in node_rows if r[1] == "2")
    assert float(n2[3]) == pytest.approx(solved.magnitude(2, 1), rel=1e-8)
    assert abs(float(n2[7])) <= 1e-8 * system.s_base
    br = branch_rows[0]
    assert br[1] == "1-2"
    (_, i_series), = system.branch_series_currents(solved)
    assert float(br[5]) == pytest.approx(abs(i_series[0]), rel=1e-8)
    assert br[6] == ""  # no rating on the two-bus line


def test_vsi_rows_unique_critical(system, solved, tmp_path):
    result = system.vsi_at(system.pack(solved), 1.0)
    rows = vsi_rows(result)
    flags = [r[4] for r in rows]
    assert flags.count(1) == 1
    crit = rows[flags.index(1)]
    assert (crit[0], crit[1]) == result.critical
    assert float(crit[2]) == pytest.approx(result.global_value)
    path = tmp_path / "vsi.csv"
    write_vsi_csv(path, result)
    header, body = _read(path)
    assert header == VSI_HEADER
    assert len(body) == len(result.local)


# -- Group 2 ---------------------------------------------------------------


def test_snapshot_round_trip(system, solved, tmp_path):
    path = tmp_path / "snap.csv"
    write_snapshot_csv(path, solved)
    values = read_snapshot_csv(path)
    assert set(values) == {(1, 1), (2, 1)}
    op = snapshot_to_point(values, system, xi=1.0)
    assert op.xi == 1.0
    for node in (1, 2):
        assert op.magnitude(node, 1) == pytest.approx(solved.magnitude(node, 1), rel=1e-8)
        assert op.angle(node, 1) == pytest.approx(solved.angle(node, 1), abs=1e-8)
    # the re-read point still satisfies the power flow tightly
    res = system.residual(system.pack(op), 1.0)
    assert np.abs(res).max() < 1e-4


def test_snapshot_errors(system, solved, tmp_path):
    path = tmp_path / "snap.csv"
    write_snapshot_csv(path, solved)
    values = read_snapshot_csv(path)
    del values[(2, 1)]
    with pytest.raises(ParseError, match="missing node 2"):
        snapshot_to_point(values, system, xi=1.0)
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ParseError, match="header"):
        read_snapshot_csv(bad)


def test_snapshot_rejects_bad_numbers(tmp_path):
    for field in ("bad", "nan", "inf"):
        path = tmp_path / "snap.csv"
        path.write_text(f"node,phase,V_mag_V,V_ang_rad\n1,1,1.0,0.0\n2,1,{field},0.0\n")
        with pytest.raises(ParseError, match="line 3") as exc:
            read_snapshot_csv(path)
        assert exc.value.line == 3
    path.write_text("node,phase,V_mag_V,V_ang_rad\n2,one,1.0,0.0\n")
    with pytest.raises(ParseError, match="phase"):
        read_snapshot_csv(path)


# -- Group 3 ---------------------------------------------------------------


def test_write_csv_atomic_overwrites(tmp_path):
    path = tmp_path / "out.csv"
    write_csv_atomic(path, ["a", "b"], [[fmt9(1.0), fmt9(2.0)]])
    write_csv_atomic(path, ["a", "b"], [[fmt9(3.0), fmt9(4.0)]])
    header, body = _read(path)
    assert header == ["a", "b"]
    assert body == [[fmt9(3.0), fmt9(4.0)]]
    assert fmt9(3.0) == "3.00000000e+00"
