"""CSV emitters and readers for the command-line tools.

Every number goes through one rule, fmt9: scientific notation with nine
significant digits.  Files are rendered column-wise from the solver's
arrays: each number column is formatted in one pass (fmt9_all), each node
id is quoted once, by csv.writer's QUOTE_MINIMAL rule, and each line is one
join of its cells.  The text is byte for byte what csv.writer writes for
the same rows with a "\n" terminator.  Column orders are fixed and covered
by golden tests.  Files are written atomically (temp file + rename, see
gridfile.write_text_atomic): a reader sees the previous report or the new
one, whole.  Where os.O_PATH exists, the replaced report is freed on a
background thread, so a process writing report after report does not
wait for the file system to release its blocks; elsewhere the rename
frees it in the call.  On NFS the replaced report shows as a hidden .nfs
file until that thread frees it.
"""

from __future__ import annotations

import csv
from itertools import product, repeat
from types import SimpleNamespace

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

_E9 = "%.8e"


def fmt9(x) -> str:
    return _E9 % float(x)


def fmt9_all(values) -> list:
    """fmt9 of every element of values, in C order, from one % call."""
    values = np.asarray(values, dtype=float).ravel().tolist()
    return (f"{_E9}\n" * len(values) % tuple(values)).split("\n")[:-1]


def _cells(values) -> list:
    """Each value as csv.writer writes it as one field of a row."""
    lines = []
    # csv.writer makes one write call per row.  A lone empty field would be
    # written '""', so each row gets a second, empty field, cut off below.
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n").writerows(
        (v, "") for v in values)
    return [line[:-2] for line in lines]


def _id_rows(ids, p: int) -> list:
    """The "id,phase" cells of rows (id, 1) .. (id, p) per id, in order."""
    return [f"{cell},{q}" for cell in _cells(ids) for q in range(1, p + 1)]


def _write(path, header, blocks):
    """Write the header and the rows of each block.

    A block is a list of columns, each a list of rendered cells (one per
    row) or one str for every row; an entry may hold several cells joined
    by commas.
    """
    lines = [",".join(_cells(header))]
    for block in blocks:
        lines += map(",".join, zip(*(repeat(c) if isinstance(c, str) else c for c in block)))
    lines.append("")
    write_text_atomic(path, "\n".join(lines))


def write_trace_csv(path, trace):
    """One row per (sample, node, phase) of a CpfTrace.

    L_local is blank off the index's pairs, and every index and singular
    value cell is blank where the sample holds none.
    """
    blocks, key = [], None
    for step, sample in enumerate(trace.samples):
        op = sample.op
        if op is None:
            raise ValueError("trace samples carry no operating points")
        if (op.nodes, op.p) != key:
            key = (op.nodes, op.p)
            ids = _id_rows(*key)
            row = {pair: k for k, pair in enumerate(product(op.nodes, range(1, op.p + 1)))}
        local, l_glob = [""] * len(ids), ""
        if sample.vsi is not None:
            for pair, cell in zip(sample.vsi.local, fmt9_all(list(sample.vsi.local.values()))):
                if pair in row:
                    local[row[pair]] = cell
            l_glob = fmt9(sample.vsi.global_value)
        sv = ",".join("" if v is None else fmt9(v) for v in sample.sv or (None,) * 3)
        blocks.append([f"{step},{fmt9(sample.xi)}", ids, fmt9_all(op.e), fmt9_all(op.theta),
                       local, f"{l_glob},{sv}"])
    _write(path, TRACE_HEADER, blocks)


def write_snapshot_csv(path, op: OperatingPoint):
    _write(path, SNAPSHOT_HEADER, [[_id_rows(op.nodes, op.p), fmt9_all(op.e), fmt9_all(op.theta)]])


def read_snapshot_csv(path) -> dict:
    """Read {(node, phase): (magnitude, angle, line)} from a snapshot CSV.

    Node ids that look like integers are read as integers, and numbers must
    be finite, matching the grid file convention.  A (node, phase) pair may
    appear on one row only.  A leading UTF-8 byte-order mark is skipped.
    """
    out = {}
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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
            key = (_node_id(row[0]), phase)
            if key in out:
                raise ParseError(f"node {key[0]} phase {phase} repeats line {out[key][2]}", line)
            out[key] = (*_floats(row[2:], 2, line), line)
    return out


def snapshot_to_point(values: dict, system, xi: float) -> OperatingPoint:
    """Arrange snapshot values into an OperatingPoint over the system's nodes.

    Every (node, phase) of the system needs a value, and every value a
    (node, phase) of the system.
    """
    n = len(system.unknown_nodes)
    e = np.empty((n, system.p))
    th = np.empty((n, system.p))
    for i, node in enumerate(system.unknown_nodes):
        for q in range(system.p):
            try:
                e[i, q], th[i, q], _ = values[(node, q + 1)]
            except KeyError:
                raise ParseError(f"snapshot is missing node {node} phase {q + 1}") from None
    if len(values) > e.size:
        known = set(product(system.unknown_nodes, range(1, system.p + 1)))
        (node, q), (*_, line) = next(item for item in values.items() if item[0] not in known)
        raise ParseError(f"the grid has no node {node} phase {q}", line)
    return OperatingPoint(nodes=system.unknown_nodes, p=system.p, e=e, theta=th, xi=float(xi))


def write_pf_csv(path, system, op: OperatingPoint, mis):
    """Node rows (voltage and mismatch), then branch rows (series current
    magnitude and rating) per phase."""
    currents = system.branch_series_currents(op)
    branches = [b for b, _ in currents]
    rated = [fmt9(b.rated_a) if b.rated_a is not None else "" for b in branches]
    _write(path, PF_HEADER, [
        ["node", _id_rows(op.nodes, op.p), fmt9_all(op.e), fmt9_all(op.theta), "", "",
         fmt9_all(mis.dp), fmt9_all(mis.dq)],
        ["branch", _id_rows([f"{b.from_node}-{b.to_node}" for b in branches], op.p), "", "",
         fmt9_all(np.abs([i for _, i in currents])), [r for r in rated for _ in range(op.p)],
         "", ""],
    ])


def write_vsi_csv(path, result):
    pairs = list(result.local)
    _write(path, VSI_HEADER, [[
        [f"{cell},{q}" for cell, (_, q) in zip(_cells(node for node, _ in pairs), pairs)],
        fmt9_all(list(result.local.values())),
        fmt9(result.global_value),
        ["1" if pair == result.critical else "0" for pair in pairs],
    ]])
