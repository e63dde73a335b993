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
       to 9-digit precision; missing pairs and foreign headers raise; a row
       whose node the grid lacks is named at its line, before the pair its
       mistyped id leaves missing
   5a. Non-numeric and non-finite snapshot fields raise ParseError naming
       the line
   5b. A snapshot opening with a UTF-8 byte-order mark reads as the plain
       file; a byte-order mark later in the file is a ParseError at its line

 Group 3 - Atomicity conveniences
   6.  write_text_atomic overwrites an existing file in place, leaves no
       temporary file, and gives the file the mode open(path, "w") would:
       0o644 under umask 0o022
   6a. A reader re-reading the path during 200 rewrites always sees one
       whole version and never a missing file
   6b. The descriptor handed to the closer thread is the replaced file,
       already unlinked.  Once the closer has closed the replaced files,
       the process holds as many descriptors as before, and writes from
       one process start one closer thread, also when four threads write
       at once
   6c. Without a held descriptor (os.open refusing O_PATH, os.O_PATH
       missing) or past the closer's backlog, the bytes and mode are the
       same and no descriptor is left open
   6d. A directory at the path raises IsADirectoryError and leaves no temp
       file and no descriptor; a symlink at the path is replaced by the
       file, and its target is left untouched
   6f. A missing directory, or a directory at the path, raises an OSError
       that names the path given, not the temp file
   6e. A forked child closes its copies of the descriptors queued in the
       parent and starts its own closer, also when the parent's closer lock
       was held at the fork; a close that raises neither stops the closer
       nor prints

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
import errno
import io
import os
import queue
import signal
import stat
import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvsi_cases import CP, two_bus
from polyvsi.continuation import CpfConfig, CpfTrace, run_cpf
from polyvsi.errors import ParseError
from polyvsi import gridfile
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


def test_snapshot_names_a_row_off_the_grid_before_a_missing_pair(system, solved, tmp_path):
    path = tmp_path / "snap.csv"
    write_snapshot_csv(path, solved)
    lines = path.read_text().splitlines()
    node, phase, rest = lines[1].split(",", 2)
    lines[1] = f"{node}x,{phase},{rest}"  # a mistyped node id, so node's pair is missing
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"^line 2: the grid has no node {node}x phase {phase}$"):
        snapshot_to_point(read_snapshot_csv(path), system, xi=1.0)


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


def test_snapshot_byte_order_mark(solved, tmp_path):
    plain = tmp_path / "snap.csv"
    write_snapshot_csv(plain, solved)
    text = plain.read_text()
    marked = tmp_path / "marked.csv"
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert read_snapshot_csv(marked) == read_snapshot_csv(plain)
    lines = text.splitlines(keepends=True)
    node, phase, rest = lines[2].split(",", 2)
    lines[2] = f"{node},{phase},\ufeff{rest}"
    marked.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        read_snapshot_csv(marked)
    assert exc.value.line == 3


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


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _closer_threads():
    return [t for t in threading.enumerate() if t.name == "polyvsi-closer"]


def _is_closed(fd):
    try:
        os.fstat(fd)
    except OSError:
        return True
    return False


def _drain(seconds=60.0):
    """Wait until the closer has closed every descriptor queued so far (up
    to 256 frees, each tens of milliseconds on ext4 mounted with discard)."""
    read_end, write_end = os.pipe()
    gridfile._close_later(read_end)
    deadline = time.monotonic() + seconds
    while not _is_closed(read_end) and time.monotonic() < deadline:
        time.sleep(0.005)
    os.close(write_end)
    assert _is_closed(read_end), "the closer did not drain"


def test_readers_see_whole_versions_during_rewrites(tmp_path):
    path = tmp_path / "out.csv"
    versions = [f"{i},{i}\n" * (100 + 10 * i) for i in range(201)]
    valid = set(versions)
    write_text_atomic(path, versions[0])
    reads, faults, done = [0], [], threading.Event()

    def reader():
        while not done.is_set():
            try:
                text = path.read_text()
            except OSError as exc:
                faults.append(exc)
                return
            reads[0] += 1
            if text not in valid:
                faults.append(text[:40])

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for text in versions[1:]:
            write_text_atomic(path, text)
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert faults == []
    assert reads[0] > 0
    assert path.read_text() == versions[-1]
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_replaced_files_are_released(tmp_path):
    path = tmp_path / "out.csv"
    write_text_atomic(path, "a\n")
    write_text_atomic(path, "b\n")
    closer = gridfile._closer
    threads = _closer_threads()
    _drain()
    before = _open_fds()
    for i in range(20):
        write_text_atomic(path, f"{i}\n" * 1000)
    assert gridfile._closer is closer
    assert _closer_threads() == threads
    _drain()
    assert _open_fds() == before


@pytest.mark.skipif(not hasattr(os, "O_PATH"), reason="needs os.O_PATH")
def test_the_replaced_file_is_held_across_the_rename(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    write_text_atomic(path, "old\n")
    old = path.stat()
    handed = []
    monkeypatch.setattr(gridfile, "_close_later", handed.append)
    write_text_atomic(path, "new\n")
    assert len(handed) == 1
    try:
        held = os.fstat(handed[0])
    finally:
        os.close(handed[0])
    assert (held.st_dev, held.st_ino) == (old.st_dev, old.st_ino)
    assert held.st_nlink == 0


def test_concurrent_writers_start_one_closer(tmp_path, monkeypatch):
    monkeypatch.setattr(gridfile, "_closer", None)  # the old closer is restored after
    threads = _closer_threads()
    paths = [tmp_path / f"out{i}.csv" for i in range(4)]
    faults = []

    def writer(path):
        try:
            for j in range(25):
                write_text_atomic(path, f"{path.name},{j}\n" * 50)
        except Exception as exc:  # reported by the assertion below
            faults.append(exc)

    workers = [threading.Thread(target=writer, args=(path,)) for path in paths]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert faults == []
    fresh = [t for t in _closer_threads() if t not in threads]
    assert fresh == [gridfile._closer[1]]
    _drain()
    assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in paths]
    for path in paths:
        assert path.read_text() == f"{path.name},24\n" * 50


def _reference_write(path):
    write_text_atomic(path, "old\n")
    write_text_atomic(path, "a,b\n1,2\n")
    return path.read_bytes(), stat.S_IMODE(path.stat().st_mode)


@pytest.mark.parametrize("held", ["o_path_refused", "no_o_path", "backlog_full"])
def test_writes_without_a_held_descriptor_match(tmp_path, monkeypatch, held):
    expected = _reference_write(tmp_path / "ref.csv")
    _drain()
    if held == "o_path_refused":
        real_open = os.open

        def refuse_o_path(path, flags, *args, **kwargs):
            if flags & os.O_PATH:
                raise OSError(errno.EACCES, "refused", path)
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", refuse_o_path)
    elif held == "no_o_path":
        monkeypatch.delattr(os, "O_PATH", raising=False)
    else:
        monkeypatch.setattr(gridfile, "_HELD_MAX", 0)
    counts = os.path.isdir("/proc/self/fd")
    path = tmp_path / "out.csv"
    write_text_atomic(path, "first\n")
    before = _open_fds() if counts else None
    assert _reference_write(path) == expected
    if counts:
        assert _open_fds() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "ref.csv"]


def test_directory_at_the_path_is_refused(tmp_path):
    (tmp_path / "out.csv").mkdir()
    counts = os.path.isdir("/proc/self/fd")
    _drain()
    before = _open_fds() if counts else None
    with pytest.raises(IsADirectoryError):
        write_text_atomic(tmp_path / "out.csv", "a,b\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert (tmp_path / "out.csv").is_dir()
    if counts:
        assert _open_fds() == before


def test_write_errors_name_the_path(tmp_path):
    missing = tmp_path / "no" / "such" / "out.csv"
    with pytest.raises(FileNotFoundError) as exc:
        write_text_atomic(missing, "a,b\n")
    assert exc.value.filename == str(missing) and ".tmp" not in str(exc.value)
    target = tmp_path / "out.csv"
    target.mkdir()
    with pytest.raises(IsADirectoryError) as exc:
        write_text_atomic(target, "a,b\n")
    assert (exc.value.filename, exc.value.filename2) == (str(target), None)
    assert str(exc.value).endswith(f": {str(target)!r}")
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_symlink_at_the_path_is_replaced(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("keep\n")
    link = tmp_path / "out.csv"
    link.symlink_to(target)
    write_text_atomic(link, "new\n")
    assert not link.is_symlink()
    assert link.read_text() == "new\n"
    assert target.read_text() == "keep\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_closes_inherited_descriptors(tmp_path, monkeypatch):
    # A closer whose thread never runs stands for one with a backlog at
    # the fork: the child must close its copy of the queued descriptor.
    stalled = queue.SimpleQueue()
    read_end, write_end = os.pipe()
    stalled.put(read_end)
    monkeypatch.setattr(gridfile, "_closer", (stalled, None))
    gridfile._closer_lock.acquire()  # held by another thread at the fork
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork with threads running: that is the case under test.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            status = 1
            try:
                path = tmp_path / "child.csv"
                assert _is_closed(read_end)
                assert gridfile._closer is None
                write_text_atomic(path, "a\n")
                write_text_atomic(path, "b\n")
                assert gridfile._closer[1].is_alive()
                _drain()
                assert path.read_text() == "b\n"
                status = 0
            finally:
                os._exit(status)
    finally:
        gridfile._closer_lock.release()
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid, "the child hung"
    assert os.waitstatus_to_exitcode(done[1]) == 0
    assert not _is_closed(read_end)  # the parent's own copy stays open
    os.close(read_end)
    os.close(write_end)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["child.csv"]


def test_failing_close_does_not_stop_the_closer(tmp_path, capfd):
    path = tmp_path / "out.csv"
    write_text_atomic(path, "a\n")
    write_text_atomic(path, "b\n")
    gridfile._close_later(-1)
    _drain()
    assert gridfile._closer[1].is_alive()
    assert capfd.readouterr().err == ""


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
