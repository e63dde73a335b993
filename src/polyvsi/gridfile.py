"""Plain-text grid file format.

Line-oriented UTF-8 with # comments.  A file opens with `phases P` and then
holds sections: a `nodes` table, named per-km line `config` blocks, `lines`
and `transformers` tables (catalog forms that expand through the shared
builders), explicit `branch` and `slack` blocks (the exact forms the
serializer emits), a `slacks` table for short-circuit-rated sources, and a
`resources` table.  Node ids are integers when they look like integers,
otherwise strings.

The reader splits a line when it reaches it, so it holds the tokens of
one block at a time.  Numbers are read with Python's float().  A block's
matrices (P rows of P real or P complex numbers, the latter as real and
imaginary pairs) and its one-number rows (a branch's gain and rated) are
gathered while the block is scanned and converted in one pass; so are
the numbers of a resource row.  Every number must be finite.  A faulty
row, a fault in a block's structure, or a model constructor's ValueError
is reported as a ParseError at its row's (or block header's) line, and
it is the first fault in line order: only a faulty block is read again
row by row.  Each key is given once: a second gain, rated, label, yfrom
or yto in a branch block, a repeated resource field, or a second config
of one name is a ParseError at the repeated row's line.  A resource's
ZIP triples are built once per distinct triple of tokens.  parse_configs
reads a text made only of config blocks.

parse_grid(serialize_grid(...)) reproduces the models bit-exactly: floats
are emitted with repr and re-read with float(), and catalog rows expand
through the same helper functions the programmatic builders use.
"""

from __future__ import annotations

import math
import os
import re
import tempfile
from itertools import count, islice
from operator import itemgetter

import numpy as np

from .builders import (
    pi_line,
    sequence_line,
    short_circuit_slack,
    transformer_branch,
)
from .errors import ParseError
from .grid import ROLE_RESOURCE, ROLE_SLACK, Branch, GridModel, Node, Shunt
from .nodes import PhaseResource, ResourceModel, SlackModel, ZipCoefficients


def zip_from_values(alpha: float, beta: float, gamma: float) -> ZipCoefficients:
    """Strict construction, falling back to renormalization for rounded
    (catalog) triples.  Exact triples pass through without bit changes."""
    try:
        return ZipCoefficients(alpha, beta, gamma)
    except ValueError:
        return ZipCoefficients.from_table(alpha, beta, gamma)


def _resource(node, kind: str, v0: float, p0, q0, zip_re: ZipCoefficients,
              zip_im: ZipCoefficients, lam: float = 1.0) -> ResourceModel:
    """Resource from SI values whose phases share one ZIP pair."""
    phases = tuple(
        PhaseResource(p0=pw, q0=qv, zip_re=zip_re, zip_im=zip_im)
        for pw, qv in zip(p0, q0, strict=True)
    )
    return ResourceModel(node=node, v0=v0, phases=phases, kind=kind, lam=lam)


def resource_from_catalog(node, kind: str, v0_kv: float, p0_kw, q0_kvar, zre, zim) -> ResourceModel:
    """Resource from catalog units (kV, kW, kvar), one ZIP pair for all phases."""
    return _resource(node, kind, v0_kv * 1e3, [p * 1e3 for p in p0_kw], [q * 1e3 for q in q0_kvar],
                     zip_from_values(*zre), zip_from_values(*zim))


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


def _rated(tokens, line):
    """Split a trailing `rated A` pair off a catalog row: (tokens, A or None)."""
    if len(tokens) >= 2 and tokens[-2] == "rated":
        return tokens[:-2], _floats(tokens[-1:], 1, line)[0]
    return tokens, None


def _made(line, ctor, *args, **kwargs):
    """ctor(*args, **kwargs), its ValueError reported as a ParseError at `line`."""
    try:
        return ctor(*args, **kwargs)
    except ValueError as exc:
        raise ParseError(str(exc), line) from None


# Every line boundary of str.splitlines, so a comment ends where its line does.
_COMMENT = re.compile("#[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")


def _convert(rows) -> list:
    """Flat floats of (lineno, tokens, width) rows, converted in one pass.

    Only faulty rows are read again one by one (_floats), so the error is
    the first one in line order.  A non-finite number makes the sum
    non-finite; finite rows whose sum overflows just take the one-by-one
    path, which accepts them.
    """
    if all(len(t) == w for _, t, w in rows):
        try:
            vals = [float(x) for _, t, _ in rows for x in t]
        except ValueError:
            pass
        else:
            if math.isfinite(sum(vals)):
                return vals
    return [x for ln, t, w in rows for x in _floats(t, w, ln)]


def _fault(rows, message, line=None):
    """Raise ParseError(message, line), unless one of `rows`, which all sit
    above that line, holds an earlier fault (see _convert)."""
    _convert(rows)
    raise ParseError(message, line)


def _rows(text: str):
    """Iterator over the (lineno, tokens) rows of text, skipping blanks and
    comments.  A line is split when its row is read, so the parser holds the
    tokens of one block at a time."""
    if "#" in text:
        text = _COMMENT.sub("", text)
    return filter(itemgetter(1), zip(count(1), map(str.split, text.splitlines())))


def _table(rows, what):
    """Yield rows up to the closing 'end', which is consumed."""
    for ln, t in rows:
        if t == ["end"]:
            return
        yield ln, t
    raise ParseError(f"missing 'end' after {what} section")


def _block(rows, what, p, fixed, attrs=None) -> dict:
    """Read one block up to its 'end' and convert its numbers in one pass.

    `fixed` holds the (keyword, n, dtype) matrices that open the block, in
    order: n rows of `keyword`, each a row of p numbers (complex ones as p
    real and imaginary pairs).  Then come the rows of `attrs`, each keyword
    at most once, in any order: an (n, dtype) matrix, a float (one number)
    or a str (the rest of the row, None when empty).  Without attrs only the
    'end' may follow.  Returns {keyword: (n, p) array, float or text}.  A
    fault in the block's structure is reported after the rows above it are
    converted, so the error is the first one in line order.
    """
    gathered = []  # (lineno, number tokens, width) of every row of numbers, in line order
    found = []  # (keyword, n, width, dtype) in line order; dtype None for one number

    def read(keyword, n, dtype, first):
        """Gather the n `keyword` rows that start with the rows in `first`."""
        width = 1 if dtype is None else 2 * p if dtype is complex else p
        chunk = first + list(islice(rows, n - len(first)))
        for ln, t in chunk:
            if t[0] != keyword:
                _fault(gathered, f"expected '{keyword}' row", ln)
            gathered.append((ln, t[1:], width))
        if len(chunk) < n:
            _fault(gathered, f"unexpected end of file: expected '{keyword}' row")
        found.append((keyword, n, width, dtype))

    for keyword, n, dtype in fixed:
        read(keyword, n, dtype, [])
    out = {}
    for ln, t in rows:
        if t == ["end"]:
            break
        key = t[0]
        if attrs is None:
            _fault(gathered, f"expected 'end' closing {what}", ln)
        if key not in attrs:
            _fault(gathered, f"unknown {what} attribute {key!r}", ln)
        if key in out:
            _fault(gathered, f"repeated {what} attribute {key!r}", ln)
        kind = attrs[key]
        if kind is str:
            out[key] = " ".join(t[1:]) or None
        else:
            out[key] = None  # set once the block is converted
            read(key, *((1, None) if kind is float else kind), [(ln, t)])
    else:
        _fault(gathered, f"missing 'end' after {what} section")
    vals = _convert(gathered)
    array = np.array(vals)
    k = 0
    for keyword, n, width, dtype in found:
        if dtype is None:
            out[keyword] = vals[k]
        else:
            out[keyword] = array[k : k + n * width].view(dtype).reshape(n, p)
        k += n * width
    return out


def _read_config(rows, tok, line, p, configs):
    """Read the body of a `config NAME` block into configs[NAME] = (z, b)."""
    if len(tok) != 2:
        raise ParseError("config needs a name", line)
    if tok[1] in configs:
        raise ParseError(f"repeated config {tok[1]!r}", line)
    m = _block(rows, f"config {tok[1]}", p, (("z", p, complex), ("b", p, float)))
    configs[tok[1]] = (m["z"], m["b"])


def parse_configs(text: str, p: int) -> dict:
    """Parse text made only of `config` blocks; returns {name: (z, b)}."""
    rows = _rows(text)
    configs = {}
    for line, tok in rows:
        if tok[0] != "config":
            raise ParseError(f"expected a config block, got {tok[0]!r}", line)
        _read_config(rows, tok, line, p, configs)
    return configs


def parse_grid_text(text: str):
    """Parse grid file text; returns (GridModel, slacks, resources).

    A slack's z_te is judged by SlackModel, and the slack and resource
    models must sit one-to-one on their nodes (GridModel.require_models);
    branch and shunt matrices are not judged here, but listed by
    validate_parameters and refused when a system is built
    (grid.admittance_entries).
    """
    rows = _rows(text)
    line, tok = next(rows, (None, None))
    if tok is None:
        raise ParseError("empty grid file")
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
    branch_attrs = {"yfrom": (p, complex), "yto": (p, complex), "gain": float, "rated": float,
                    "label": str}
    resource_widths = {"v0": 1, "v0_kv": 1, "p0": p, "p0_kw": p, "q0": p, "q0_kvar": p,
                       "zip_re": 3, "zip_im": 3, "lam": 1}
    zips: dict[tuple, ZipCoefficients] = {}

    for line, tok in rows:
        head = tok[0]

        if head == "nodes":
            for ln, t in _table(rows, "nodes"):
                if len(t) != 3:
                    raise ParseError("node row needs: id role vnom_volts|-", ln)
                vnom = None if t[2] == "-" else _floats([t[2]], 1, ln)[0]
                nodes.append(_made(ln, Node, id=_node_id(t[0]), role=t[1], vnom=vnom))

        elif head == "config":
            _read_config(rows, tok, line, p, configs)

        elif head == "lines":
            for ln, t in _table(rows, "lines"):
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
                    branches.append(_made(ln, pi_line, f, to, z, b, length, rated_a=rated,
                                          label=rest[1]))
                elif rest[0] == "seq":
                    if len(rest) != 8 or rest[-1] != "transposed":
                        raise ParseError(
                            "seq line needs r1 x1 b1 r0 x0 b0 followed by 'transposed'", ln
                        )
                    r1, x1, b1, r0, x0, b0 = _floats(rest[1:7], 6, ln)
                    branches.append(_made(ln, sequence_line, f, to, length, r1, x1, b1, r0, x0, b0,
                                          p=p, rated_a=rated))
                else:
                    raise ParseError(f"unknown line form {rest[0]!r}", ln)

        elif head == "transformers":
            for ln, t in _table(rows, "transformers"):
                t, rated = _rated(t, ln)
                if len(t) != 9:
                    raise ParseError(
                        "transformer row needs: label from to s_mva v_from_kv v_to_kv r_pu x_pu tap",
                        ln,
                    )
                vals = _floats(t[3:], 6, ln)
                branches.append(_made(ln, transformer_from_catalog, t[0], _node_id(t[1]),
                                      _node_id(t[2]), *vals, p=p, rated_a=rated))

        elif head == "branch":
            if len(tok) != 3:
                raise ParseError("branch block needs: branch <from> <to>", line)
            m = _block(rows, "branch", p, (("z", p, complex),), branch_attrs)
            branches.append(_made(line, Branch, _node_id(tok[1]), _node_id(tok[2]), m["z"],
                                  gain=m.get("gain", 1.0), y_shunt_from=m.get("yfrom"),
                                  y_shunt_to=m.get("yto"), rated_a=m.get("rated"),
                                  label=m.get("label")))

        elif head == "shunt":
            if len(tok) != 2:
                raise ParseError("shunt block needs: shunt <node>", line)
            y = _block(rows, "shunt", p, (("y", p, complex),))["y"]
            shunts.append(_made(line, Shunt, node=_node_id(tok[1]), y=y))

        elif head == "slacks":
            vnoms = {n.id: n.vnom for n in nodes}
            for ln, t in _table(rows, "slacks"):
                if len(t) != 4 or t[1] != "sc":
                    raise ParseError("slack row needs: node sc s_sc_mva r_over_x", ln)
                node = _node_id(t[0])
                s_sc, rx = _floats(t[2:], 2, ln)
                if vnoms.get(node) is None:
                    raise ParseError(f"slack node {node} needs a nominal voltage", ln)
                slacks.append(_made(ln, slack_from_catalog, node, vnoms[node], s_sc, rx, p))

        elif head == "slack":
            if len(tok) != 2:
                raise ParseError("slack block needs: slack <node>", line)
            m = _block(rows, "slack", p, (("zrow", p, complex), ("vrow", 1, complex)))
            slacks.append(_made(line, SlackModel, node=_node_id(tok[1]), v_te=m["vrow"][0],
                                z_te=m["zrow"]))

        elif head == "resources":
            for ln, t in _table(rows, "resources"):
                resources.append(_made(ln, _parse_resource_row, t, ln, resource_widths, zips))

        else:
            raise ParseError(f"unknown section {head!r}", line)

    grid = _made(None, GridModel, nodes=tuple(nodes), branches=tuple(branches),
                 shunts=tuple(shunts), p=p)
    for role, models in ((ROLE_SLACK, slacks), (ROLE_RESOURCE, resources)):
        _made(None, grid.require_models, role, models)
    return grid, slacks, resources


def _parse_resource_row(t, ln, widths, zips) -> ResourceModel:
    """One `resources` row; widths maps each field to its count of numbers,
    zips holds the ZipCoefficients built so far by their tokens as written."""
    if len(t) < 2:
        raise ParseError("resource row too short", ln)
    node, kind = _node_id(t[0]), t[1]
    starts = {}  # field -> index of its first number in t
    rows = []
    i = 2
    while i < len(t):
        key = t[i]
        if key not in widths:
            _fault(rows, f"unknown resource field {key!r}", ln)
        if key in starts:
            _fault(rows, f"repeated resource field {key!r}", ln)
        starts[key] = i + 1
        rows.append((ln, t[i + 1 : i + 1 + widths[key]], widths[key]))
        i += 1 + widths[key]
    vals = _convert(rows)
    fields, k = {}, 0
    for key in starts:
        fields[key] = vals[k : k + widths[key]]
        k += widths[key]
    si = {}
    for a, b in (("v0", "v0_kv"), ("p0", "p0_kw"), ("q0", "q0_kvar")):
        if (a in fields) == (b in fields):
            raise ParseError(f"resource row needs exactly one of {a!r}/{b!r}", ln)
        si[a] = fields[a] if a in fields else [x * 1e3 for x in fields[b]]  # kV, kW, kvar
    if "zip_re" not in fields or "zip_im" not in fields:
        raise ParseError("resource row needs zip_re and zip_im triples", ln)
    pair = []
    for key in ("zip_re", "zip_im"):
        # Keyed on the tokens: a float key would take -0.0 for 0.0.
        written = tuple(t[starts[key] : starts[key] + 3])
        if written not in zips:
            zips[written] = zip_from_values(*fields[key])
        pair.append(zips[written])
    return _resource(node, kind, si["v0"][0], si["p0"], si["q0"], *pair,
                     lam=fields.get("lam", [1.0])[0])


def parse_grid(path):
    """Parse a grid file from disk (see parse_grid_text)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_grid_text(fh.read())


def _fmt(x: float) -> str:
    return repr(float(x))


def _pair_rows(keyword: str, m: np.ndarray) -> list:
    """One `keyword re im re im ...` row per row of m."""
    return [" ".join([keyword] + [_fmt(x) for v in row for x in (v.real, v.imag)]) for row in m]


def _token(node_id, what: str) -> str:
    """The id as the parser reads it back; ValueError naming what otherwise."""
    text = str(node_id)
    if "#" in text or text.split() != [text] or _node_id(text) != node_id:
        raise ValueError(f"{what}: node id {node_id!r} does not read back from a grid file "
                         "(ids are ints, or strings without whitespace or '#' that int() rejects)")
    return text


def serialize_grid(grid: GridModel, slacks, resources, path=None) -> str:
    """Render models to grid-file text; optionally write it atomically.

    Branches and slacks are emitted in their explicit block forms so every
    parameter round-trips bit-exactly.  Models the format cannot hold raise
    ValueError naming the element: a node id that does not read back as
    itself, a branch label that is not single-spaced words free of '#',
    and per-phase ZIP triples that differ within one resource.
    """
    out = ["# polyvsi grid file", f"phases {grid.p}", ""]
    out.append("nodes")
    for n in grid.nodes:
        vnom = "-" if n.vnom is None else _fmt(n.vnom)
        out.append(f"{_token(n.id, 'node')} {n.role} {vnom}")
    out.append("end")
    out.append("")
    for b in grid.branches:
        name = f"branch {b.from_node}-{b.to_node}"
        out.append(f"branch {_token(b.from_node, name)} {_token(b.to_node, name)}")
        for keyword, m in (("z", b.z), ("yfrom", b.y_shunt_from), ("yto", b.y_shunt_to)):
            out += _pair_rows(keyword, m) if m is not None else []
        if b.gain != 1.0:
            out.append(f"gain {_fmt(b.gain)}")
        if b.rated_a is not None:
            out.append(f"rated {_fmt(b.rated_a)}")
        if b.label is not None:
            if "#" in str(b.label) or (" ".join(str(b.label).split()) or None) != b.label:
                raise ValueError(f"{name}: label {b.label!r} does not read back from a grid file")
            out.append(f"label {b.label}")
        out += ["end", ""]
    for s in grid.shunts:
        out += [f"shunt {_token(s.node, 'shunt')}", *_pair_rows("y", s.y), "end", ""]
    for s in slacks:
        out += [f"slack {_token(s.node, 'slack')}", *_pair_rows("zrow", s.z_te),
                *_pair_rows("vrow", [s.v_te]), "end", ""]
    out.append("resources")
    for r in resources:
        ph0 = r.phases[0]
        uniform = all(
            ph.zip_re == ph0.zip_re and ph.zip_im == ph0.zip_im for ph in r.phases
        )
        if not uniform:
            raise ValueError(f"resource {r.node}: per-phase ZIP triples differ, which a grid file "
                             "cannot hold")
        row = [_token(r.node, "resource"), r.kind, "v0", _fmt(r.v0)]
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
    """Write text via a temp file and rename, so readers never see a torn file.

    The file gets the mode open(path, "w") gives a new file: 0o666 less the
    umask (mkstemp alone would leave it 0o600).
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    umask = os.umask(0o022)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
