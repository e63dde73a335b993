"""Plain-text grid file format.

Line-oriented UTF-8 with # comments (parse_grid skips a leading byte-order
mark).  A file opens with `phases P` and then holds sections: a `nodes`
table, named per-km line `config` blocks, `lines` and `transformers` tables (catalog forms that expand through the shared
builders), explicit `branch` and `slack` blocks (the exact forms the
serializer emits), a `slacks` table for short-circuit-rated sources, and a
`resources` table.  Node ids are integers when they look like integers,
otherwise strings.

Numbers are read with Python's float() syntax, and every number must be
finite.  The matrix rows (the z, b, yfrom, yto, y, zrow and vrow rows: P
real numbers, or P complex ones as real and imaginary pairs) are
converted for the whole file at once.  The reader walks the rows once and
keeps only the number text of each matrix row, in one list per width (2P
for complex rows, P for a config's b).  At the end it converts each list
with one np.loadtxt call (numpy's C reader, which gives float()'s bits),
checks finiteness once, and builds the branch, shunt and slack blocks and
the config lines, in line order, from views of those arrays.  Every other
number (tables, resource rows, a branch's gain and rated) is converted
when its row is read, and its model built there.

A faulty row, a fault in a block's structure, or a model constructor's
ValueError is reported as a ParseError at its row's (or block header's)
line, and it is the first fault in line order.  So on any fault, or when
np.loadtxt refuses a row (a bad token, a wrong count, or a spelling
float() accepts but it does not, such as 1_0 or non-ASCII digits) or a
number is not finite, the text is read again eagerly: each matrix row
converted with float() as it is read, and each model built at its own
line.  The eager read raises the first fault where it is read; without
one it gives the models float() gives, which are those of the fast read
whenever np.loadtxt takes every row.  Each key is given once: a second
gain, rated, label, yfrom or yto in a branch block, a repeated resource
field, or a second config of one name is a ParseError at the repeated
row's line.  A resource's ZIP triples are built once per distinct triple
of tokens.  parse_configs reads a text made only of config blocks.

parse_grid(serialize_grid(...)) reproduces the models bit-exactly: floats
are emitted with repr and re-read with float(), and catalog rows expand
through the same helper functions the programmatic builders use.
"""

from __future__ import annotations

import math
import os
import queue
import re
import threading
from itertools import chain, count, islice, repeat
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
    phases = tuple([PhaseResource(pw, qv, zip_re, zip_im) for pw, qv in zip(p0, q0, strict=True)])
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
        vals = list(map(float, tokens))
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


def _rows(text: str):
    """Iterator over the (lineno, parts) rows of text, skipping blanks and
    comments; parts is the line split at its first whitespace, [keyword] or
    [keyword, rest]."""
    if "#" in text:
        text = _COMMENT.sub("", text)
    parts = map(str.split, text.splitlines(), repeat(None), repeat(1))
    return filter(itemgetter(1), zip(count(1), parts))


def _tokens(parts) -> list:
    """The whitespace-separated tokens of a row given as its _rows parts."""
    return [parts[0], *parts[1].split()] if len(parts) == 2 else parts


def _table(rows, what):
    """Yield the (lineno, tokens) rows up to the closing 'end', which is
    consumed."""
    for ln, parts in rows:
        if parts == ["end"]:
            return
        yield ln, _tokens(parts)
    raise ParseError(f"missing 'end' after {what} section")


class _Matrices:
    """The matrix rows of one text, and the models built from them.

    The rows of each dtype are kept, in line order, in one list: complex
    rows hold 2p numbers, float rows p.  A matrix is named by a (dtype,
    index) tuple into its dtype's rows: index is a slice, or an int for one
    row read as a vector.  A model that reads matrices is built by
    _made(line, ctor, *args) with every such tuple among args replaced by
    its array (no other argument is a tuple).

    The fast read keeps each row's number text and a slot for each such
    model, and at the end convert() converts each list in one np.loadtxt
    call and builds the models.  The eager read converts each row with
    _floats as it is read and builds each model at its own line, so it
    raises the first fault in line order.
    """

    def __init__(self, p: int, eager: bool):
        self.p = p
        self.eager = eager
        self.width = {complex: 2 * p, float: p}  # numbers in a row of each dtype
        self.kept = {complex: [], float: []}  # each row's text; its numbers when eager
        self.steps = []  # (models, slot, line, ctor, args), in line order
        self.arrays = None  # dtype -> (rows, p) array, once converted

    def matrix(self, rows, keyword: str, n: int, dtype, first=None) -> tuple:
        """Gather the n `keyword` rows that follow, or that start with the
        row `first`."""
        kept, width, eager = self.kept[dtype], self.width[dtype], self.eager
        start = len(kept)
        for ln, parts in islice(rows, n) if first is None else chain((first,), islice(rows, n - 1)):
            if parts[0] != keyword:
                raise ParseError(f"expected '{keyword}' row", ln)
            if len(parts) == 1:
                _floats([], width, ln)  # a row of no numbers
            kept.append(_floats(parts[1].split(), width, ln) if eager else parts[1])
        if len(kept) - start < n:
            raise ParseError(f"unexpected end of file: expected '{keyword}' row")
        return dtype, slice(start, start + n)

    def block(self, rows, what: str, fixed, attrs=None) -> dict:
        """Read one block up to its 'end'.

        `fixed` holds the (keyword, n, dtype) matrices that open the block, in
        order: n rows of `keyword`.  Then come the rows of `attrs`, each
        keyword at most once, in any order: an (n, dtype) matrix, a float (one
        number, converted here) or a str (the rest of the row, None when
        empty).  Without attrs only the 'end' may follow.  Returns {keyword:
        (dtype, index), float or text}.
        """
        out = {}
        for keyword, n, dtype in fixed:
            out[keyword] = self.matrix(rows, keyword, n, dtype)
        for ln, parts in rows:
            if parts == ["end"]:
                return out
            key = parts[0]
            if attrs is None:
                raise ParseError(f"expected 'end' closing {what}", ln)
            if key not in attrs:
                raise ParseError(f"unknown {what} attribute {key!r}", ln)
            if key in out:
                raise ParseError(f"repeated {what} attribute {key!r}", ln)
            kind = attrs[key]
            if kind is str:
                out[key] = " ".join(_tokens(parts)[1:]) or None
            elif kind is float:
                out[key] = _floats(_tokens(parts)[1:], 1, ln)[0]
            else:
                out[key] = self.matrix(rows, key, *kind, first=(ln, parts))
        raise ParseError(f"missing 'end' after {what} section")

    def config(self, rows, tok, line, configs):
        """Read the body of a `config NAME` block into configs[NAME] = (z, b)."""
        if len(tok) != 2:
            raise ParseError("config needs a name", line)
        if tok[1] in configs:
            raise ParseError(f"repeated config {tok[1]!r}", line)
        m = self.block(rows, f"config {tok[1]}", (("z", self.p, complex), ("b", self.p, float)))
        configs[tok[1]] = (m["z"], m["b"])

    def defer(self, models: list, line, ctor, *args):
        """Build _made(line, ctor, *args) into the next slot of models: now
        when eager, else in convert()."""
        if self.eager:
            models.append(_made(line, ctor, *self.arrays_of(args)))
        else:
            models.append(None)
            self.steps.append((models, len(models) - 1, line, ctor, args))

    def arrays_of(self, args) -> list:
        """args with each (dtype, index) tuple replaced by its array."""
        if self.eager:
            kept = self.kept
            return [np.array(kept[a[0]][a[1]]).view(a[0]) if type(a) is tuple else a
                    for a in args]
        arrays = self.arrays
        return [arrays[a[0]][a[1]] if type(a) is tuple else a for a in args]

    def convert(self):
        """Convert the fast read's rows, one np.loadtxt call per dtype, and
        build its deferred models.  Raises ParseError, at no line, when
        np.loadtxt refuses a row or a number is not finite."""
        flat = {}
        for dtype, texts in self.kept.items():
            width = self.width[dtype]
            try:
                # No call on an empty list, which np.loadtxt warns about.
                flat[dtype] = np.loadtxt(texts, ndmin=2, comments=None) if texts else \
                    np.empty((0, width))
            except ValueError:
                raise ParseError("np.loadtxt refuses a matrix row") from None
            if flat[dtype].shape != (len(texts), width) or not np.isfinite(flat[dtype]).all():
                raise ParseError("np.loadtxt reads a matrix row to a wrong count or not finite")
        self.arrays = {complex: flat[complex].view(complex), float: flat[float]}
        for models, slot, line, ctor, args in self.steps:
            models[slot] = _made(line, ctor, *self.arrays_of(args))


def parse_configs(text: str, p: int) -> dict:
    """Parse text made only of `config` blocks; returns {name: (z, b)}."""
    try:
        return _read_configs(text, p, False)
    except ParseError:
        return _read_configs(text, p, True)


def _read_configs(text: str, p: int, eager: bool) -> dict:
    """parse_configs by the fast read or the eager one (see _Matrices)."""
    rows = _rows(text)
    matrices = _Matrices(p, eager)
    configs = {}
    for line, parts in rows:
        if parts[0] != "config":
            raise ParseError(f"expected a config block, got {parts[0]!r}", line)
        matrices.config(rows, _tokens(parts), line, configs)
    if not eager:
        matrices.convert()
    return {name: tuple(matrices.arrays_of(pair)) for name, pair in configs.items()}


def parse_grid_text(text: str):
    """Parse grid file text; returns (GridModel, slacks, resources).

    A slack's z_te is judged by SlackModel, and the slack and resource
    models must sit one-to-one on their nodes (GridModel.require_models);
    branch and shunt matrices are not judged here, but listed by
    validate_parameters and refused when a system is built
    (grid.admittance_entries).
    """
    try:
        return _read_grid(text, False)
    except ParseError:
        return _read_grid(text, True)


def _read_grid(text: str, eager: bool):
    """parse_grid_text by the fast read or the eager one (see _Matrices)."""
    rows = _rows(text)
    line, parts = next(rows, (None, None))
    if parts is None:
        raise ParseError("empty grid file")
    tok = _tokens(parts)
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
    matrices = _Matrices(p, eager)
    configs: dict[str, tuple] = {}  # name -> (z, b) as named by _Matrices
    branch_attrs = {"yfrom": (p, complex), "yto": (p, complex), "gain": float, "rated": float,
                    "label": str}
    resource_widths = {"v0": 1, "v0_kv": 1, "p0": p, "p0_kw": p, "q0": p, "q0_kvar": p,
                       "zip_re": 3, "zip_im": 3, "lam": 1}
    zips: dict[tuple, ZipCoefficients] = {}

    for line, parts in rows:
        head = parts[0]

        if head == "branch":  # tested first: most sections of a serialized grid are branches
            tok = _tokens(parts)
            if len(tok) != 3:
                raise ParseError("branch block needs: branch <from> <to>", line)
            m = matrices.block(rows, "branch", (("z", p, complex),), branch_attrs)
            # Branch(from, to, z, gain, y_shunt_from, y_shunt_to, rated_a, label)
            matrices.defer(branches, line, Branch, _node_id(tok[1]), _node_id(tok[2]),
                           m["z"], m.get("gain", 1.0), m.get("yfrom"), m.get("yto"),
                           m.get("rated"), m.get("label"))

        elif head == "nodes":
            for ln, t in _table(rows, "nodes"):
                if len(t) != 3:
                    raise ParseError("node row needs: id role vnom_volts|-", ln)
                vnom = None if t[2] == "-" else _floats([t[2]], 1, ln)[0]
                nodes.append(_made(ln, Node, id=_node_id(t[0]), role=t[1], vnom=vnom))

        elif head == "config":
            matrices.config(rows, _tokens(parts), line, configs)

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
                    matrices.defer(branches, ln, pi_line, f, to, *configs[rest[1]], length,
                                   rated, rest[1])
                elif rest[0] == "seq":
                    if len(rest) != 8 or rest[-1] != "transposed":
                        raise ParseError(
                            "seq line needs r1 x1 b1 r0 x0 b0 followed by 'transposed'", ln
                        )
                    r1, x1, b1, r0, x0, b0 = _floats(rest[1:7], 6, ln)
                    branches.append(_made(ln, sequence_line, f, to, length, r1, x1, b1, r0,
                                          x0, b0, p=p, rated_a=rated))
                else:
                    raise ParseError(f"unknown line form {rest[0]!r}", ln)

        elif head == "transformers":
            for ln, t in _table(rows, "transformers"):
                t, rated = _rated(t, ln)
                if len(t) != 9:
                    raise ParseError(
                        "transformer row needs: label from to s_mva v_from_kv v_to_kv r_pu "
                        "x_pu tap", ln,
                    )
                vals = _floats(t[3:], 6, ln)
                branches.append(_made(ln, transformer_from_catalog, t[0], _node_id(t[1]),
                                      _node_id(t[2]), *vals, p=p, rated_a=rated))

        elif head == "shunt":
            tok = _tokens(parts)
            if len(tok) != 2:
                raise ParseError("shunt block needs: shunt <node>", line)
            m = matrices.block(rows, "shunt", (("y", p, complex),))
            matrices.defer(shunts, line, Shunt, _node_id(tok[1]), m["y"])

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
            tok = _tokens(parts)
            if len(tok) != 2:
                raise ParseError("slack block needs: slack <node>", line)
            m = matrices.block(rows, "slack", (("zrow", p, complex), ("vrow", 1, complex)))
            v_te = (complex, m["vrow"][1].start)  # the one vrow, as a vector
            matrices.defer(slacks, line, SlackModel, _node_id(tok[1]), v_te, m["zrow"])

        elif head == "resources":
            for ln, t in _table(rows, "resources"):
                resources.append(_made(ln, _parse_resource_row, t, ln, resource_widths, zips))

        else:
            raise ParseError(f"unknown section {head!r}", line)
    if not eager:
        matrices.convert()

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
    fields = {}  # field -> (index of its first number in t, its numbers)
    i = 2
    while i < len(t):
        key = t[i]
        width = widths.get(key)
        if width is None:
            raise ParseError(f"unknown resource field {key!r}", ln)
        if key in fields:
            raise ParseError(f"repeated resource field {key!r}", ln)
        i += 1
        fields[key] = (i, _floats(t[i : i + width], width, ln))
        i += width
    si = {}
    for a, b in (("v0", "v0_kv"), ("p0", "p0_kw"), ("q0", "q0_kvar")):
        if (a in fields) == (b in fields):
            raise ParseError(f"resource row needs exactly one of {a!r}/{b!r}", ln)
        si[a] = fields[a][1] if a in fields else [x * 1e3 for x in fields[b][1]]  # kV, kW, kvar
    if "zip_re" not in fields or "zip_im" not in fields:
        raise ParseError("resource row needs zip_re and zip_im triples", ln)
    pair = []
    for key in ("zip_re", "zip_im"):
        # Keyed on the tokens: a float key would take -0.0 for 0.0.
        start, values = fields[key]
        written = tuple(t[start : start + 3])
        if written not in zips:
            zips[written] = zip_from_values(*values)
        pair.append(zips[written])
    return _resource(node, kind, si["v0"][0], si["p0"], si["q0"], *pair,
                     lam=fields["lam"][1][0] if "lam" in fields else 1.0)


def parse_grid(path):
    """Parse a grid file from disk (see parse_grid_text); a leading UTF-8
    byte-order mark is skipped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
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

    Readers see the old file or the new one, whole, and never a missing one,
    and the temp file is gone when the call returns or raises.  The temp
    file, under a random .tmp name in path's directory, is created with
    mode 0o666, which the kernel reduces by the umask: the mode open(path,
    "w") gives a new file, without the process's umask ever being read or
    set.  A path that is a symlink is replaced by the file, and its target
    is left untouched.

    Freeing the replaced file can take tens of milliseconds on some file
    systems (ext4 mounted with discard).  So where os.O_PATH exists, the
    replaced file is held open across the rename and its descriptor is
    closed on the process's one closer thread, which then does the free;
    elsewhere, if it cannot be held, or once _HELD_MAX wait, the call frees
    it.  This spares a process that writes report after report; one that
    writes a single report and exits still waits for the free, because the
    kernel closes the held descriptor as the process exits.  On a local
    file system no name but path's and the temp file's ever appears in the
    directory.  NFS is the exception: the client renames a replaced file
    that is still open to a hidden .nfs name, which stays until the closer
    closes it.

    An OSError names path, whichever file it arose on: a missing directory,
    or a directory at path, is reported for path, not for the temp file.
    """
    path = os.fspath(path)
    try:
        _replace_with(path, text)
    except OSError as exc:
        if exc.errno is None:
            raise
        raise type(exc)(exc.errno, exc.strerror, path) from exc


def _replace_with(path: str, text: str):
    """write_text_atomic's temp file, rename and hand-off of the replaced file."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    old = None
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        old = _hold(path)
        os.replace(tmp, path)
    except BaseException:
        if old is not None:
            os.close(old)
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    if old is not None:
        _close_later(old)


def _hold(path):
    """A descriptor that keeps the file (or symlink) at path alive, or None
    where os.O_PATH is missing or nothing can be opened there."""
    if not hasattr(os, "O_PATH"):
        return None
    try:
        return os.open(path, os.O_PATH | os.O_NOFOLLOW)
    except OSError:
        return None


_closer = None  # (queue, thread) of the process's closer thread
_closer_lock = threading.Lock()
_HELD_MAX = 256  # replaced files waiting at most; descriptors far below the usual limit of 1024


def _close_later(fd: int):
    """Close fd on the process's one closer thread, started on first use;
    in the call if _HELD_MAX already wait."""
    global _closer
    if _closer is None:
        with _closer_lock:
            if _closer is None:
                fds = queue.SimpleQueue()
                thread = threading.Thread(target=_close_each, args=(fds,),
                                          name="polyvsi-closer", daemon=True)
                thread.start()
                _closer = (fds, thread)
    fds = _closer[0]
    if fds.qsize() < _HELD_MAX:
        fds.put(fd)
    else:
        os.close(fd)


def _close_each(fds):
    """The closer thread: close every descriptor put on fds, forever."""
    while True:
        fd = fds.get()
        try:
            os.close(fd)
        except OSError:
            pass


def _reset_closer_in_child():
    """After a fork: close the child's copies of the descriptors still
    queued in the parent, whose closer thread the child lacks, and let the
    child's first write start its own closer.  One the parent's closer had
    taken but not yet closed stays open in the child."""
    global _closer, _closer_lock
    if _closer is not None:
        fds = _closer[0]
        while not fds.empty():
            try:
                os.close(fds.get_nowait())
            except OSError:
                pass
    _closer = None
    _closer_lock = threading.Lock()  # the parent's may have been held at the fork


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_closer_in_child)
