"""Plain-text grid file format.

Line-oriented UTF-8 with # comments.  A file opens with `phases P` and then
holds sections: a `nodes` table, named per-km line `config` blocks, `lines`
and `transformers` tables (catalog forms that expand through the shared
builders), explicit `branch` and `slack` blocks (the exact forms the
serializer emits), a `slacks` table for short-circuit-rated sources, and a
`resources` table.  Node ids are integers when they look like integers,
otherwise strings.  Every number must be finite; a model constructor's
ValueError is reported as a ParseError at its row's (or block header's)
line.  parse_configs reads a text made only of config blocks.

parse_grid(serialize_grid(...)) reproduces the models bit-exactly: floats
are emitted with repr and re-read with float(), and catalog rows expand
through the same helper functions the programmatic builders use.
"""

from __future__ import annotations

import contextlib
import math
import os
import tempfile

import numpy as np

from .builders import (
    pi_line,
    sequence_line,
    short_circuit_slack,
    transformer_branch,
)
from .errors import ParseError, ValidationError
from .grid import Branch, GridModel, Node, Shunt, validate_parameters
from .nodes import PhaseResource, ResourceModel, SlackModel, ZipCoefficients


def zip_from_values(alpha: float, beta: float, gamma: float) -> ZipCoefficients:
    """Strict construction, falling back to renormalization for rounded
    (catalog) triples.  Exact triples pass through without bit changes."""
    try:
        return ZipCoefficients(alpha, beta, gamma)
    except ValueError:
        return ZipCoefficients.from_table(alpha, beta, gamma)


def resource_from_values(node, kind: str, v0: float, p0, q0, zre, zim,
                         lam: float = 1.0) -> ResourceModel:
    """Resource from SI values (V, W, var), one ZIP pair for all phases."""
    zip_re = zip_from_values(*zre)
    zip_im = zip_from_values(*zim)
    phases = tuple(
        PhaseResource(p0=pw, q0=qv, zip_re=zip_re, zip_im=zip_im)
        for pw, qv in zip(p0, q0, strict=True)
    )
    return ResourceModel(node=node, v0=v0, phases=phases, kind=kind, lam=lam)


def resource_from_catalog(node, kind: str, v0_kv: float, p0_kw, q0_kvar, zre, zim) -> ResourceModel:
    """Resource from catalog units (kV, kW, kvar), one ZIP pair for all phases."""
    return resource_from_values(node, kind, v0_kv * 1e3, [p * 1e3 for p in p0_kw],
                                [q * 1e3 for q in q0_kvar], zre, zim)


def transformer_from_catalog(label, from_node, to_node, s_mva: float, v_from_kv: float,
                             v_to_kv: float, r_pu: float, x_pu: float, tap: float,
                             p: int, rated_a: float | None = None) -> Branch:
    return transformer_branch(
        from_node,
        to_node,
        s_rated_va=s_mva * 1e6,
        v_from_ll=v_from_kv * 1e3,
        v_to_ll=v_to_kv * 1e3,
        r_pu=r_pu,
        x_pu=x_pu,
        tap=tap,
        p=p,
        rated_a=rated_a,
        label=label,
    )


def slack_from_catalog(node, vnom_pg: float, s_sc_mva: float, r_over_x: float, p: int) -> SlackModel:
    return short_circuit_slack(node, vnom_pg, s_sc_mva * 1e6, r_over_x, p)


def _node_id(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def _floats(tokens, n, line):
    if len(tokens) != n:
        raise ParseError(f"expected {n} numbers, got {len(tokens)}", line)
    try:
        vals = [float(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"bad number: {exc}", line) from None
    if not all(map(math.isfinite, vals)):
        raise ParseError(f"numbers must be finite, got {' '.join(tokens)}", line)
    return vals


def _complex_row(tokens, p, line) -> np.ndarray:
    vals = _floats(tokens, 2 * p, line)
    return np.array([complex(vals[2 * i], vals[2 * i + 1]) for i in range(p)])


def _rated(tokens, line):
    """Split a trailing `rated A` pair off a catalog row: (tokens, A or None)."""
    if len(tokens) >= 2 and tokens[-2] == "rated":
        return tokens[:-2], _floats(tokens[-1:], 1, line)[0]
    return tokens, None


@contextlib.contextmanager
def _at(line):
    """Report a model constructor's ValueError as a ParseError at `line`."""
    try:
        yield
    except ValueError as exc:
        raise ParseError(str(exc), line) from None


class _Lines:
    """Iterator over (lineno, tokens) skipping blanks and comments."""

    def __init__(self, text: str):
        rows = ((i, raw.split("#", 1)[0].split()) for i, raw in enumerate(text.splitlines(), 1))
        self.rows = [(i, tok) for i, tok in rows if tok]
        self.pos = 0

    def __bool__(self):
        return self.pos < len(self.rows)

    def take(self):
        row = self.rows[self.pos]
        self.pos += 1
        return row

    def table(self, what):
        """Yield rows up to the closing 'end', which is consumed."""
        while self:
            ln, t = self.take()
            if t == ["end"]:
                return
            yield ln, t
        raise ParseError(f"missing 'end' after {what} section")

    def close(self, what):
        """Consume the 'end' that must follow a block's fixed rows."""
        for ln, _ in self.table(what):
            raise ParseError(f"expected 'end' closing {what}", ln)

    def row(self, keyword):
        """Take the next row, which must start with `keyword`; returns (lineno, rest)."""
        if not self:
            raise ParseError(f"unexpected end of file: expected '{keyword}' row")
        ln, t = self.take()
        if t[0] != keyword:
            raise ParseError(f"expected '{keyword}' row", ln)
        return ln, t[1:]

    def matrix(self, keyword, p, dtype=complex, first=None):
        """p x p matrix from `keyword` rows; `first` is a (lineno, values) row already taken."""
        m = np.zeros((p, p), dtype=dtype)
        for i in range(p):
            ln, t = first if first is not None and i == 0 else self.row(keyword)
            m[i] = _complex_row(t, p, ln) if dtype is complex else _floats(t, p, ln)
        return m


def _read_config(src, tok, line, p, configs):
    """Read the body of a `config NAME` block into configs[NAME] = (z, b)."""
    if len(tok) != 2:
        raise ParseError("config needs a name", line)
    z = src.matrix("z", p)
    b = src.matrix("b", p, float)
    src.close(f"config {tok[1]}")
    configs[tok[1]] = (z, b)


def parse_configs(text: str, p: int) -> dict:
    """Parse text made only of `config` blocks; returns {name: (z, b)}."""
    src = _Lines(text)
    configs = {}
    while src:
        line, tok = src.take()
        if tok[0] != "config":
            raise ParseError(f"expected a config block, got {tok[0]!r}", line)
        _read_config(src, tok, line, p, configs)
    return configs


def parse_grid_text(text: str, validate: bool = True):
    """Parse grid file text; returns (GridModel, slacks, resources).

    With validate=True the parsed parameters are checked against the
    passivity hypotheses and a ValidationError raised if any fail.
    """
    src = _Lines(text)
    if not src:
        raise ParseError("empty grid file")
    line, tok = src.take()
    if tok[0] != "phases" or len(tok) != 2:
        raise ParseError("file must start with 'phases P'", line)
    try:
        p = int(tok[1])
    except ValueError:
        raise ParseError("phase count must be an integer", line) from None
    if p < 1:
        raise ParseError("phase count must be >= 1", line)

    nodes: list[Node] = []
    branches: list[Branch] = []
    shunts: list[Shunt] = []
    slacks: list[SlackModel] = []
    resources: list[ResourceModel] = []
    configs: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    while src:
        line, tok = src.take()
        head = tok[0]

        if head == "nodes":
            for ln, t in src.table("nodes"):
                if len(t) != 3:
                    raise ParseError("node row needs: id role vnom_volts|-", ln)
                vnom = None if t[2] == "-" else _floats([t[2]], 1, ln)[0]
                with _at(ln):
                    nodes.append(Node(id=_node_id(t[0]), role=t[1], vnom=vnom))

        elif head == "config":
            _read_config(src, tok, line, p, configs)

        elif head == "lines":
            for ln, t in src.table("lines"):
                t, rated = _rated(t, ln)
                if len(t) < 4:
                    raise ParseError("line row too short", ln)
                f, to = _node_id(t[0]), _node_id(t[1])
                length = _floats([t[2]], 1, ln)[0]
                rest = t[3:]
                if rest[0] == "config":
                    if len(rest) != 2:
                        raise ParseError("config reference needs exactly one name", ln)
                    if rest[1] not in configs:
                        raise ParseError(f"undefined line config {rest[1]!r}", ln)
                    z, b = configs[rest[1]]
                    with _at(ln):
                        branches.append(pi_line(f, to, z, b, length, rated_a=rated, label=rest[1]))
                elif rest[0] == "seq":
                    if len(rest) != 8 or rest[-1] != "transposed":
                        raise ParseError(
                            "seq line needs r1 x1 b1 r0 x0 b0 followed by 'transposed'", ln
                        )
                    r1, x1, b1, r0, x0, b0 = _floats(rest[1:7], 6, ln)
                    with _at(ln):
                        branches.append(
                            sequence_line(f, to, length, r1, x1, b1, r0, x0, b0, p=p, rated_a=rated)
                        )
                else:
                    raise ParseError(f"unknown line form {rest[0]!r}", ln)

        elif head == "transformers":
            for ln, t in src.table("transformers"):
                t, rated = _rated(t, ln)
                if len(t) != 9:
                    raise ParseError(
                        "transformer row needs: label from to s_mva v_from_kv v_to_kv r_pu x_pu tap",
                        ln,
                    )
                vals = _floats(t[3:], 6, ln)
                with _at(ln):
                    branches.append(
                        transformer_from_catalog(
                            t[0], _node_id(t[1]), _node_id(t[2]), *vals, p=p, rated_a=rated
                        )
                    )

        elif head == "branch":
            if len(tok) != 3:
                raise ParseError("branch block needs: branch <from> <to>", line)
            z = src.matrix("z", p)
            gain, rated, label = 1.0, None, None
            shunt_y = {"yfrom": None, "yto": None}
            for ln, t in src.table("branch"):
                if t[0] in shunt_y:
                    shunt_y[t[0]] = src.matrix(t[0], p, first=(ln, t[1:]))
                elif t[0] == "gain":
                    gain = _floats(t[1:], 1, ln)[0]
                elif t[0] == "rated":
                    rated = _floats(t[1:], 1, ln)[0]
                elif t[0] == "label":
                    label = " ".join(t[1:]) or None
                else:
                    raise ParseError(f"unknown branch attribute {t[0]!r}", ln)
            with _at(line):
                branches.append(
                    Branch(_node_id(tok[1]), _node_id(tok[2]), z, gain=gain,
                           y_shunt_from=shunt_y["yfrom"], y_shunt_to=shunt_y["yto"],
                           rated_a=rated, label=label)
                )

        elif head == "shunt":
            if len(tok) != 2:
                raise ParseError("shunt block needs: shunt <node>", line)
            y = src.matrix("y", p)
            src.close("shunt")
            with _at(line):
                shunts.append(Shunt(node=_node_id(tok[1]), y=y))

        elif head == "slacks":
            vnoms = {n.id: n.vnom for n in nodes}
            for ln, t in src.table("slacks"):
                if len(t) != 4 or t[1] != "sc":
                    raise ParseError("slack row needs: node sc s_sc_mva r_over_x", ln)
                node = _node_id(t[0])
                s_sc, rx = _floats(t[2:], 2, ln)
                if vnoms.get(node) is None:
                    raise ParseError(f"slack node {node} needs a nominal voltage", ln)
                with _at(ln):
                    slacks.append(slack_from_catalog(node, vnoms[node], s_sc, rx, p))

        elif head == "slack":
            if len(tok) != 2:
                raise ParseError("slack block needs: slack <node>", line)
            z = src.matrix("zrow", p)
            ln, t = src.row("vrow")
            v = _complex_row(t, p, ln)
            src.close("slack")
            with _at(line):
                slacks.append(SlackModel(node=_node_id(tok[1]), v_te=v, z_te=z))

        elif head == "resources":
            for ln, t in src.table("resources"):
                with _at(ln):
                    resources.append(_parse_resource_row(t, p, ln))

        else:
            raise ParseError(f"unknown section {head!r}", line)

    grid = _assemble_model(nodes, branches, shunts, slacks, resources, p)
    if validate:
        violations = validate_parameters(grid)
        if violations:
            raise ValidationError(violations)
    return grid, slacks, resources


def _parse_resource_row(t, p, ln) -> ResourceModel:
    if len(t) < 2:
        raise ParseError("resource row too short", ln)
    node, kind = _node_id(t[0]), t[1]
    fields = {}
    i = 2
    widths = {"v0": 1, "v0_kv": 1, "p0": p, "p0_kw": p, "q0": p, "q0_kvar": p,
              "zip_re": 3, "zip_im": 3, "lam": 1}
    while i < len(t):
        key = t[i]
        if key not in widths:
            raise ParseError(f"unknown resource field {key!r}", ln)
        w = widths[key]
        fields[key] = _floats(t[i + 1 : i + 1 + w], w, ln)
        i += 1 + w
    si = {}
    for a, b in (("v0", "v0_kv"), ("p0", "p0_kw"), ("q0", "q0_kvar")):
        if (a in fields) == (b in fields):
            raise ParseError(f"resource row needs exactly one of {a!r}/{b!r}", ln)
        si[a] = fields[a] if a in fields else [x * 1e3 for x in fields[b]]  # kV, kW, kvar
    if "zip_re" not in fields or "zip_im" not in fields:
        raise ParseError("resource row needs zip_re and zip_im triples", ln)
    return resource_from_values(node, kind, si["v0"][0], si["p0"], si["q0"], fields["zip_re"],
                                fields["zip_im"], lam=fields.get("lam", [1.0])[0])


def _assemble_model(nodes, branches, shunts, slacks, resources, p) -> GridModel:
    with _at(None):
        grid = GridModel(nodes=tuple(nodes), branches=tuple(branches),
                         shunts=tuple(shunts), p=p)
    slack_ids = [s.node for s in slacks]
    if sorted(map(str, slack_ids)) != sorted(map(str, grid.slack_nodes)):
        raise ParseError(
            f"slack sections {slack_ids} do not match slack-role nodes {list(grid.slack_nodes)}"
        )
    res_ids = [r.node for r in resources]
    if sorted(map(str, res_ids)) != sorted(map(str, grid.resource_nodes)):
        raise ParseError(
            f"resource rows {res_ids} do not match resource-role nodes {list(grid.resource_nodes)}"
        )
    return grid


def parse_grid(path, validate: bool = True):
    """Parse a grid file from disk (see parse_grid_text)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_grid_text(fh.read(), validate=validate)


def _fmt(x: float) -> str:
    return repr(float(x))


def _pair_rows(keyword: str, m: np.ndarray) -> list:
    """One `keyword re im re im ...` row per row of m."""
    return [" ".join([keyword] + [_fmt(x) for v in row for x in (v.real, v.imag)]) for row in m]


def serialize_grid(grid: GridModel, slacks, resources, path=None) -> str:
    """Render models to grid-file text; optionally write it atomically.

    Branches and slacks are emitted in their explicit block forms so every
    parameter round-trips bit-exactly.
    """
    out = ["# polyvsi grid file", f"phases {grid.p}", ""]
    out.append("nodes")
    for n in grid.nodes:
        vnom = "-" if n.vnom is None else _fmt(n.vnom)
        out.append(f"{n.id} {n.role} {vnom}")
    out.append("end")
    out.append("")
    for b in grid.branches:
        out.append(f"branch {b.from_node} {b.to_node}")
        for keyword, m in (("z", b.z), ("yfrom", b.y_shunt_from), ("yto", b.y_shunt_to)):
            out += _pair_rows(keyword, m) if m is not None else []
        if b.gain != 1.0:
            out.append(f"gain {_fmt(b.gain)}")
        if b.rated_a is not None:
            out.append(f"rated {_fmt(b.rated_a)}")
        if b.label is not None:
            out.append(f"label {b.label}")
        out += ["end", ""]
    for s in grid.shunts:
        out += [f"shunt {s.node}", *_pair_rows("y", s.y), "end", ""]
    for s in slacks:
        out += [f"slack {s.node}", *_pair_rows("zrow", s.z_te), *_pair_rows("vrow", [s.v_te]), "end", ""]
    out.append("resources")
    for r in resources:
        ph0 = r.phases[0]
        uniform = all(
            ph.zip_re == ph0.zip_re and ph.zip_im == ph0.zip_im for ph in r.phases
        )
        if not uniform:
            raise ValueError("per-phase ZIP triples differing within one resource are not serializable")
        row = [str(r.node), r.kind, "v0", _fmt(r.v0)]
        if r.lam != 1.0:
            row += ["lam", _fmt(r.lam)]
        row += ["p0"] + [_fmt(ph.p0) for ph in r.phases]
        row += ["q0"] + [_fmt(ph.q0) for ph in r.phases]
        row += ["zip_re", _fmt(ph0.zip_re.alpha), _fmt(ph0.zip_re.beta), _fmt(ph0.zip_re.gamma)]
        row += ["zip_im", _fmt(ph0.zip_im.alpha), _fmt(ph0.zip_im.beta), _fmt(ph0.zip_im.gamma)]
        out.append(" ".join(row))
    out.append("end")
    text = "\n".join(out) + "\n"
    if path is not None:
        write_text_atomic(path, text)
    return text


def write_text_atomic(path, text: str):
    """Write text via a temp file and rename, so readers never see a torn file."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
