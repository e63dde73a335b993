"""CSV emitters and readers for the command-line tools.

All floats are rendered in scientific notation with nine significant digits;
column orders are fixed and covered by golden tests.  Files are written
atomically (temp file + rename).
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .errors import ParseError
from .gridfile import _floats, _node_id, write_text_atomic
from .powerflow import OperatingPoint

TRACE_HEADER = [
    "step", "xi", "node", "phase", "V_mag_V", "V_ang_rad",
    "L_local", "L_global", "sv_min", "sv_mean", "sv_max",
]
SNAPSHOT_HEADER = ["node", "phase", "V_mag_V", "V_ang_rad"]
PF_HEADER = ["kind", "id", "phase", "V_mag_V", "V_ang_rad", "I_A", "rated_A", "dP_W", "dQ_VAR"]
VSI_HEADER = ["node", "phase", "L_local", "L_global", "is_critical"]


def fmt9(x) -> str:
    return f"{float(x):.8e}"


def _render(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def write_csv_atomic(path, header, rows):
    write_text_atomic(path, _render(header, rows))


def trace_rows(trace) -> list:
    """Flatten a CpfTrace into trace-CSV rows (one per step, node, phase)."""
    rows = []
    for step, sample in enumerate(trace.samples):
        op = sample.op
        if op is None:
            raise ValueError("trace samples carry no operating points")
        loc = sample.vsi.local if sample.vsi is not None else {}
        l_glob = fmt9(sample.vsi.global_value) if sample.vsi is not None else ""
        sv = tuple(fmt9(v) for v in sample.sv) if sample.sv is not None else ("", "", "")
        for node, phase, magnitude, angle in snapshot_rows(op):
            l_loc = loc.get((node, phase))
            rows.append([step, fmt9(sample.xi), node, phase, magnitude, angle,
                         fmt9(l_loc) if l_loc is not None else "", l_glob, *sv])
    return rows


def write_trace_csv(path, trace):
    write_csv_atomic(path, TRACE_HEADER, trace_rows(trace))


def snapshot_rows(op: OperatingPoint) -> list:
    rows = []
    for node in op.nodes:
        for phase in range(1, op.p + 1):
            rows.append([node, phase, fmt9(op.magnitude(node, phase)), fmt9(op.angle(node, phase))])
    return rows


def write_snapshot_csv(path, op: OperatingPoint):
    write_csv_atomic(path, SNAPSHOT_HEADER, snapshot_rows(op))


def read_snapshot_csv(path) -> dict:
    """Read {(node, phase): (magnitude, angle)} from a snapshot CSV.

    Node ids that look like integers are read as integers, and numbers must
    be finite, matching the grid file convention.
    """
    out = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SNAPSHOT_HEADER:
            raise ParseError(f"snapshot header {header} != {SNAPSHOT_HEADER}")
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != 4:
                raise ParseError(f"snapshot row {row} malformed", line)
            try:
                phase = int(row[1])
            except ValueError:
                raise ParseError(f"bad phase {row[1]!r}", line) from None
            out[(_node_id(row[0]), phase)] = tuple(_floats(row[2:], 2, line))
    return out


def snapshot_to_point(values: dict, system, xi: float) -> OperatingPoint:
    """Arrange snapshot values into an OperatingPoint over the system's nodes."""
    n = len(system.unknown_nodes)
    e = np.empty((n, system.p))
    th = np.empty((n, system.p))
    for i, node in enumerate(system.unknown_nodes):
        for q in range(system.p):
            try:
                e[i, q], th[i, q] = values[(node, q + 1)]
            except KeyError:
                raise ParseError(f"snapshot is missing node {node} phase {q + 1}") from None
    return OperatingPoint(nodes=system.unknown_nodes, p=system.p, e=e, theta=th, xi=float(xi))


def pf_rows(system, op: OperatingPoint, mis) -> list:
    rows = []
    for i, node in enumerate(op.nodes):
        for q in range(op.p):
            rows.append([
                "node", node, q + 1,
                fmt9(op.e[i, q]), fmt9(op.theta[i, q]),
                "", "",
                fmt9(mis.dp[i, q]), fmt9(mis.dq[i, q]),
            ])
    for branch, i_series in system.branch_series_currents(op):
        ident = f"{branch.from_node}-{branch.to_node}"
        for q in range(op.p):
            rows.append([
                "branch", ident, q + 1,
                "", "",
                fmt9(abs(i_series[q])),
                fmt9(branch.rated_a) if branch.rated_a is not None else "",
                "", "",
            ])
    return rows


def write_pf_csv(path, system, op: OperatingPoint, mis):
    write_csv_atomic(path, PF_HEADER, pf_rows(system, op, mis))


def vsi_rows(result) -> list:
    rows = []
    for (node, phase), value in result.local.items():
        rows.append([
            node, phase, fmt9(value), fmt9(result.global_value),
            int((node, phase) == result.critical),
        ])
    return rows


def write_vsi_csv(path, result):
    write_csv_atomic(path, VSI_HEADER, vsi_rows(result))
