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
   6.  write_text_atomic overwrites an existing file in place, leaves no
       temporary file, and gives the file the mode open(path, "w") would:
       0o644 under umask 0o022

 Group 4 - Column-wise rendering equals csv.writer
   7.  Every writer's file is byte for byte what csv.writer writes for the
       rows the per-cell reference below builds: the bundled and the
       252-state feeder traces, traces with blank index and sv_mean/sv_max
       cells, and every report of a grid whose string ids hold , and "
   8.  A sample without an operating point still raises ValueError
   9.  (hypothesis) fmt9_all and fmt9 equal f"{float(x):.8e}" on signed
       zeros, subnormals, +-1e308, non-finite values and numpy scalars
  10.  (hypothesis) whitespace-free node ids survive write -> csv.reader
"""

import csv
import io
import os
import stat
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvsi_cases import CP, two_bus
from polyvsi.continuation import CpfConfig, CpfTrace, run_cpf
from polyvsi.errors import ParseError
from polyvsi.gridfile import write_text_atomic
from polyvsi.grid import Branch, GridModel, Node
from polyvsi.nodes import PhaseResource, ResourceModel, SlackModel
from polyvsi.powerflow import OperatingPoint, PolyphaseSystem, mismatch, solve_power_flow
from polyvsi.reporting import (
    PF_HEADER,
    SNAPSHOT_HEADER,
    TRACE_HEADER,
    VSI_HEADER,
    fmt9,
    fmt9_all,
    read_snapshot_csv,
    snapshot_to_point,
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
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    header, rows = _read(path)
    assert header == TRACE_HEADER
    assert len(rows) == len(trace.samples) * 2  # two nodes, one phase
    first = rows[0]
    assert first[0] == "0" and first[2] == "1" and first[3] == "1"
    assert first[6] == ""  # node 1 carries no local index
    second = rows[1]
    assert second[2] == "2"
    assert float(second[6]) == pytest.approx(trace.samples[0].vsi.local[(2, 1)])
    assert float(second[8]) == pytest.approx(trace.samples[0].sv[0])
    stepped = CpfTrace(samples=[replace(trace.samples[0], sv=(0.5, None, None))])
    write_trace_csv(path, stepped)
    assert [row[8:] for row in _read(path)[1]] == [[fmt9(0.5), "", ""]] * 2


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
    path = tmp_path / "vsi.csv"
    write_vsi_csv(path, result)
    header, rows = _read(path)
    assert header == VSI_HEADER
    flags = [r[4] for r in rows]
    assert flags.count("1") == 1
    crit = rows[flags.index("1")]
    assert (int(crit[0]), int(crit[1])) == result.critical
    assert float(crit[2]) == pytest.approx(result.global_value)
    assert len(rows) == len(result.local)


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


def test_write_text_atomic_overwrites(tmp_path):
    path = tmp_path / "out.csv"
    write_text_atomic(path, "a,b\n1,2\n")
    write_text_atomic(path, "a,b\n3,4\n")
    assert path.read_text() == "a,b\n3,4\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_written_files_get_the_umask_mode(solved, tmp_path):
    path = tmp_path / "snap.csv"
    old = os.umask(0o022)
    try:
        write_snapshot_csv(path, solved)
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o644
    assert fmt9(3.0) == "3.00000000e+00"


# -- Group 4 ---------------------------------------------------------------
# The reference: rows built cell by cell from the accessors, rendered by
# csv.writer.


def _cell(x):
    return f"{float(x):.8e}"


def _reference(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _snapshot_rows(op):
    return [[node, q, _cell(op.magnitude(node, q)), _cell(op.angle(node, q))]
            for node in op.nodes for q in range(1, op.p + 1)]


def _trace_rows(trace):
    rows = []
    for step, sample in enumerate(trace.samples):
        loc = sample.vsi.local if sample.vsi is not None else {}
        l_glob = _cell(sample.vsi.global_value) if sample.vsi is not None else ""
        sv = ["" if v is None else _cell(v) for v in sample.sv or (None,) * 3]
        for node, phase, magnitude, angle in _snapshot_rows(sample.op):
            l_loc = loc.get((node, phase))
            rows.append([step, _cell(sample.xi), node, phase, magnitude, angle,
                         _cell(l_loc) if l_loc is not None else "", l_glob, *sv])
    return rows


def _pf_rows(system, op, mis):
    rows = [["node", node, q + 1, _cell(op.e[i, q]), _cell(op.theta[i, q]), "", "",
             _cell(mis.dp[i, q]), _cell(mis.dq[i, q])]
            for i, node in enumerate(op.nodes) for q in range(op.p)]
    for branch, i_series in system.branch_series_currents(op):
        rated = _cell(branch.rated_a) if branch.rated_a is not None else ""
        rows += [["branch", f"{branch.from_node}-{branch.to_node}", q + 1, "", "",
                  _cell(abs(i_series[q])), rated, "", ""] for q in range(op.p)]
    return rows


def _vsi_rows(result):
    return [[node, phase, _cell(value), _cell(result.global_value), int((node, phase) == result.critical)]
            for (node, phase), value in result.local.items()]


def _assert_trace_bytes(path, trace):
    write_trace_csv(path, trace)
    assert path.read_bytes() == _reference(TRACE_HEADER, _trace_rows(trace))


def _assert_point_bytes(tmp_path, system, op):
    """Snapshot, pf and vsi files of op against the reference."""
    write_snapshot_csv(tmp_path / "snap.csv", op)
    assert (tmp_path / "snap.csv").read_bytes() == _reference(SNAPSHOT_HEADER, _snapshot_rows(op))
    mis = mismatch(system, op)
    write_pf_csv(tmp_path / "pf.csv", system, op, mis)
    assert (tmp_path / "pf.csv").read_bytes() == _reference(PF_HEADER, _pf_rows(system, op, mis))
    result = system.vsi_at(system.pack(op), op.xi)
    write_vsi_csv(tmp_path / "vsi.csv", result)
    assert (tmp_path / "vsi.csv").read_bytes() == _reference(VSI_HEADER, _vsi_rows(result))


def test_traces_match_reference_bytes(bench_trace, feeder_trace, tmp_path):
    path = tmp_path / "trace.csv"
    _, feeder = feeder_trace
    for trace in (bench_trace, feeder):
        _assert_trace_bytes(path, trace)
    # Intermediate samples carry sv_min alone; here also no index, and no
    # singular values at all.
    assert bench_trace.samples[1].sv[1:] == (None, None)
    base = bench_trace.samples[0]
    blanks = CpfTrace(samples=[replace(base, vsi=None), replace(base, sv=None),
                               replace(base, sv=(None, None, None)), bench_trace.samples[1]])
    _assert_trace_bytes(path, blanks)
    _assert_trace_bytes(path, CpfTrace())
    assert path.read_text() == ",".join(TRACE_HEADER) + "\n"


def test_reports_match_reference_bytes(bench_system, feeder_trace, tmp_path):
    op, _ = solve_power_flow(bench_system, xi=1.0)
    _assert_point_bytes(tmp_path, bench_system, op)
    system, trace = feeder_trace
    _assert_point_bytes(tmp_path, system, trace.final.op)


def _quoted_ids_system():
    """Three-node single-phase feeder whose string node ids need quoting."""
    ids = ('src,"0"', 'mid "1"', "load,2")
    grid = GridModel(
        nodes=(Node(ids[0], "slack", vnom=1000.0), Node(ids[1], "zero", vnom=1000.0),
               Node(ids[2], "resource", vnom=1000.0)),
        branches=(Branch(ids[0], ids[1], np.array([[0.25 + 0.05j]]), rated_a=200.0),
                  Branch(ids[1], ids[2], np.array([[0.25 + 0.05j]]))),
        p=1,
    )
    slacks = [SlackModel(node=ids[0], v_te=np.array([1000.0 + 0j]), z_te=np.array([[0.5 + 0j]]))]
    resources = [ResourceModel(node=ids[2], v0=1000.0,
                               phases=(PhaseResource(p0=-125e3, q0=0.0, zip_re=CP, zip_im=CP),))]
    return PolyphaseSystem(grid, slacks, resources)


def test_quoted_ids_match_reference_bytes(tmp_path):
    system = _quoted_ids_system()
    trace = run_cpf(system, CpfConfig(max_steps=3))
    _assert_trace_bytes(tmp_path / "trace.csv", trace)
    _assert_point_bytes(tmp_path, system, trace.samples[-1].op)
    _, rows = _read(tmp_path / "pf.csv")
    assert [r[1] for r in rows] == ['src,"0"', 'mid "1"', "load,2", 'src,"0"-mid "1"', 'mid "1"-load,2']
    assert rows[3][6] == fmt9(200.0) and rows[4][6] == ""


def test_trace_without_points_raises(bench_trace, tmp_path):
    trace = CpfTrace(samples=[bench_trace.samples[0], replace(bench_trace.samples[1], op=None)])
    with pytest.raises(ValueError, match="no operating points"):
        write_trace_csv(tmp_path / "trace.csv", trace)
    assert not (tmp_path / "trace.csv").exists()


_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308, 1.7976931348623157e308,
          float("inf"), float("-inf"), float("nan"))


@settings(derandomize=True, max_examples=300)
@given(st.lists(st.one_of(
    st.floats(),
    st.sampled_from(_EDGES),
    st.sampled_from(_EDGES).map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(-2**70, 2**70),
), max_size=30))
def test_column_rule_is_the_cell_rule(values):
    expected = [f"{float(x):.8e}" for x in values]
    assert fmt9_all(values) == expected
    assert [fmt9(x) for x in values] == expected


@settings(derandomize=True, max_examples=100, deadline=None)
@given(ids=st.lists(st.text(st.characters(codec="utf-8").filter(lambda c: not c.isspace()), max_size=8),
                    min_size=1, max_size=6, unique=True))
def test_node_ids_survive_csv_reader(ids, tmp_path_factory):
    op = OperatingPoint(nodes=tuple(ids), p=2, e=np.ones((len(ids), 2)), theta=np.zeros((len(ids), 2)))
    path = tmp_path_factory.getbasetemp() / "ids.csv"
    write_snapshot_csv(path, op)
    assert path.read_bytes() == _reference(SNAPSHOT_HEADER, _snapshot_rows(op))
    header, rows = _read(path)
    assert header == SNAPSHOT_HEADER
    assert [(row[0], row[1]) for row in rows] == [(node, str(q)) for node in ids for q in (1, 2)]
