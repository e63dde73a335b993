"""
Grid file format: parsing, serialization, catalog expansion.

Proves:
 Group 1 - Parsing
   1.  Minimal explicit file yields the expected models
   2.  Catalog rows (lines/transformers/slacks tables) expand through the
       shared builders: sequence identity recovers (z1, z0, b1, b0) and the
       transformer matches transformer_branch
   3.  Undefined config is reported with its name and line number
   4.  Structural garbage raises ParseError (empty, bad header, unknown
       section, mismatched slack/resource sections, end of file inside a
       block)
   4a. Non-finite numbers, non-positive ratings and constructor errors in
       catalog rows and blocks raise ParseError naming the line; the
       builders reject non-positive and infinite ratings themselves.  So do a phase
       count that is not an integer >= 1, a nameless config, a short line
       row, a config reference with two names, a seq row without
       'transposed', a branch, shunt or slack header of the wrong arity,
       an unknown branch attribute, a slacks-table node without a nominal
       voltage, an unknown resource field, both or neither of v0/v0_kv and
       a missing ZIP triple
   4b. parse_configs reads config-only text with the grid file's config
       grammar and rejects anything else
   4c. Every row of a three-phase matrix block (config z and b, branch z,
       yfrom and yto, shunt y, slack zrow and vrow) with a wrong width, a
       bad token or a non-finite number raises ParseError naming that row;
       with faults in several rows the first one in line order is reported;
       a finite block whose sum overflows (two 1e308 entries) is accepted
   4d. The first fault in line order is reported across a branch block's
       matrix and attribute rows (gain, rated, an unknown attribute, a
       missing end) and across blocks (a later malformed block or unknown
       section)
   4e. A repeated key is a ParseError at the repeated row's line: a second
       gain, rated, label, yfrom or yto in one branch block, a repeated
       resource field, and a second config of one name (also in
       parse_configs)
   4f. A file opening with a UTF-8 byte-order mark parses to the models of
       the plain file; a byte-order mark later in the file is a ParseError
       at its line
   4g. (hypothesis) The file-level conversion of matrix rows gives the bits,
       or the ParseError (message and line), of converting row by row with
       _floats: random doubles (signed zeros, subnormals, +-1e308), spellings
       float() accepts and np.loadtxt refuses (1_0, non-ASCII digits),
       numbers separated by non-breaking and other Unicode spaces, nan, inf,
       Infinity, 1e400, rows whose finite numbers sum past the float range,
       wrong counts and junk; fixed cases pin each of these, in config
       blocks and in a grid's branch and shunt blocks
   4h. A file without matrix rows (a catalog-only grid, an empty config
       text) parses with warnings as errors; every matrix row of one width
       is converted by one np.loadtxt call
   4i. Parsing the 302-node synthetic feeder peaks below 2.5 MB of traced
       memory

 Group 2 - Validation
   5.  Asymmetric parameters parse cleanly, and building a system from
       them raises ValidationError

 Group 3 - Round trips
   6.  serialize -> parse reproduces every model bit-exactly (gain, rated,
       label, pi shunts, node shunts, explicit slacks, lam != 1)
   7.  serialize(parse(serialize(x))) is textually stable
   8.  zip_from_values passes exact triples through and renormalizes
       rounded ones
   9.  Resource rows mixing SI and catalog units parse to the all-catalog
       row's model and serialize to the same text
   9a. ZIP triples that differ only in the sign of a zero keep their own
       signs through parse and serialize
  10.  The text of a 302-node synthetic feeder re-serializes to itself and
       re-parses to equal models
  11.  (hypothesis) serialize -> parse reproduces random_system models with
       each resource's ZIP triples made uniform and a drawn lam; with the
       per-phase triples left differing, serialize raises ValueError
       naming the resource
  11a. The models parsed from the bundled file and the 42- and 302-node
       synthetic feeders, and the configs of the bundled catalog, match
       SHA-256 digests of every field's bits recorded before the one-pass
       reader

 Group 4 - What the format cannot hold
  12.  serialize raises ValueError naming the element for a node id with
       whitespace or '#', a string id that reads back as an int, and a
       branch label with '#', a newline, leading, trailing or repeated
       spaces, or no text; a string id and a single-spaced label round-trip
"""

import hashlib
import importlib.resources
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvsi_cases import random_system

from polyvsi.benchmark import bundled_grid_text
from polyvsi.builders import (
    seq_to_phase_b,
    seq_to_phase_z,
    short_circuit_slack,
    transformer_branch,
)
from polyvsi.errors import ParseError, ValidationError
from polyvsi.gridfile import (
    _floats,
    parse_configs,
    parse_grid,
    parse_grid_text,
    serialize_grid,
    zip_from_values,
)
from polyvsi.grid import Branch, GridModel, Node, Shunt
from polyvsi.nodes import PhaseResource, ResourceModel, SlackModel, ZipCoefficients
from polyvsi.powerflow import PolyphaseSystem

MINIMAL = """\
phases 1
nodes
1 slack 1000.0
2 resource 1000.0
end

branch 1 2
z 0.5 0.0
end

slack 1
zrow 0.5 0.0
vrow 1000.0 0.0
end

resources
2 load v0 1000.0 p0 -125000.0 q0 0.0 zip_re 0.0 0.0 1.0 zip_im 0.0 0.0 1.0
end
"""

CATALOG = """\
phases 3
nodes
1 slack 39837.0
2 zero 39837.0
3 resource 14376.0
end

lines
1 2 25.0 seq 0.071 0.379 3.038 0.202 0.884 1.74 transposed rated 300.0
end

transformers
TF 2 3 12.0 69.0 24.9 0.005 0.1 1.05 rated 230.0
end

slacks
1 sc 100.0 0.1
end

resources
3 load v0_kv 14.376 p0_kw -60.0 -50.0 -40.0 q0_kvar -30.0 -25.0 -20.0 zip_re -0.067 0.251 0.816 zip_im 1.064 -0.088 0.025
end
"""


# -- Group 1 ---------------------------------------------------------------


def test_minimal_file():
    grid, slacks, resources = parse_grid_text(MINIMAL)
    assert grid.p == 1
    assert grid.node_ids == (1, 2)
    assert grid.slack_nodes == (1,)
    assert len(grid.branches) == 1
    assert grid.branches[0].z[0, 0] == 0.5 + 0j
    assert len(slacks) == 1
    assert slacks[0].v_te[0] == 1000.0 + 0j
    assert len(resources) == 1
    assert resources[0].phases[0].p0 == -125000.0
    assert resources[0].lam == 1.0


def test_catalog_expansion():
    grid, slacks, resources = parse_grid_text(CATALOG)
    line = grid.branches[0]
    z_rec = line.z / 25.0
    d, o = z_rec[0, 0], z_rec[0, 1]
    assert abs((d - o) - (0.071 + 0.379j)) < 1e-12
    assert abs((d + 2 * o) - (0.202 + 0.884j)) < 1e-12
    assert np.allclose(line.z / 25.0, seq_to_phase_z(0.071 + 0.379j, 0.202 + 0.884j), atol=1e-15)
    y_half = 1j * seq_to_phase_b(3.038, 1.74) * 1e-6 * 25.0 / 2.0
    assert np.allclose(line.y_shunt_from, y_half, atol=1e-18)
    assert np.allclose(line.y_shunt_to, y_half, atol=1e-18)
    assert line.rated_a == 300.0

    tf = grid.branches[1]
    ref = transformer_branch(2, 3, 12e6, 69e3, 24.9e3, 0.005, 0.1, tap=1.05,
                             rated_a=230.0, label="TF")
    assert tf == ref

    v_pg = 39837.0
    z_mag = 3.0 * v_pg**2 / 100e6
    x = z_mag / np.sqrt(1.01)
    assert np.allclose(slacks[0].z_te, complex(0.1 * x, x) * np.eye(3), atol=1e-12)
    assert resources[0].v0 == 14376.0
    assert resources[0].phases[2].q0 == -20000.0


def test_undefined_config_reported():
    text = CATALOG.replace("seq 0.071 0.379 3.038 0.202 0.884 1.74 transposed rated 300.0",
                           "config 777")
    with pytest.raises(ParseError, match="777") as exc:
        parse_grid_text(text)
    assert exc.value.line is not None
    assert f"line {exc.value.line}" in str(exc.value)


def test_structural_garbage():
    with pytest.raises(ParseError, match="empty"):
        parse_grid_text("")
    with pytest.raises(ParseError, match="phases"):
        parse_grid_text("hello world\n")
    with pytest.raises(ParseError, match="unknown section"):
        parse_grid_text("phases 1\nwibble\n")
    # slack-role node without a slack section
    broken = MINIMAL.replace("slack 1\nzrow 0.5 0.0\nvrow 1000.0 0.0\nend\n", "")
    with pytest.raises(ParseError, match="slack"):
        parse_grid_text(broken)
    with pytest.raises(ParseError, match="^unexpected end of file: expected 'z' row$") as exc:
        parse_grid_text(MINIMAL[: MINIMAL.index("z 0.5")])
    assert exc.value.line is None


def test_builders_reject_non_positive_ratings():
    for s_va, v_from, v_to in ((0.0, 69e3, 24.9e3), (-12e6, 69e3, 24.9e3),
                               (12e6, 0.0, 24.9e3), (12e6, 69e3, -1.0),
                               (float("nan"), 69e3, 24.9e3), (float("inf"), 69e3, 24.9e3),
                               (12e6, float("inf"), 24.9e3), (12e6, 69e3, float("inf"))):
        with pytest.raises(ValueError, match="positive"):
            transformer_branch(2, 3, s_va, v_from, v_to, 0.005, 0.1)
    for s_sc in (0.0, -100e6, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive"):
            short_circuit_slack(1, 39837.0, s_sc, 0.1)


def _line_of(text, snippet):
    return text[: text.index(snippet)].count("\n") + 1


def test_bad_rows_name_their_line():
    cases = [
        (CATALOG, "1 2 25.0 seq", "1 2 inf seq", "finite"),
        (CATALOG, "1 2 25.0 seq", "1 1 25.0 seq", "differ"),
        (CATALOG, "TF 2 3 12.0", "TF 2 3 0.0", "positive"),
        (CATALOG, "1.05 rated 230.0", "0.0 rated 230.0", "gain"),
        (CATALOG, "1.05 rated 230.0", "1.05 rated nan", "finite"),
        (CATALOG, "1 sc 100.0", "1 sc -100.0", "positive"),
        (CATALOG, "3 load v0_kv 14.376", "3 load v0_kv -14.376", "positive"),
        (MINIMAL, "z 0.5 0.0\nend", "z nan 0.0\nend", "finite"),
        (MINIMAL, "branch 1 2", "branch 2 2", "differ"),
        (MINIMAL, "slack 1\nzrow 0.5", "slack 1\nzrow -0.5", "semidefinite"),
        (MINIMAL, "phases 1", "phases one", "phase count must be an integer"),
        (MINIMAL, "phases 1", "phases 0", "phase count must be >= 1"),
        (MINIMAL, "branch 1 2", "config", "config needs a name"),
        (CATALOG, " seq 0.071 0.379 3.038 0.202 0.884 1.74 transposed", "", "line row too short"),
        (THREE, "2 3 1.5 config a", "2 3 1.5 config a b", "config reference needs exactly one name"),
        (CATALOG, "1.74 transposed", "1.74", "seq line needs r1 x1 b1 r0 x0 b0 followed by 'transposed'"),
        (MINIMAL, "branch 1 2", "branch 1", "branch block needs: branch <from> <to>"),
        (THREE, "shunt 2", "shunt 2 3", "shunt block needs: shunt <node>"),
        (MINIMAL, "slack 1\nzrow", "slack\nzrow", "slack block needs: slack <node>"),
        (MINIMAL, "end\n\nslack 1", "tap 1.0\nend\n\nslack 1", "unknown branch attribute 'tap'"),
        (CATALOG, "1 sc 100.0", "9 sc 100.0", "slack node 9 needs a nominal voltage"),
        (CATALOG, " zip_im", " lam 1.0 pf 0.9 zip_im", "unknown resource field 'pf'"),
        (CATALOG, "v0_kv 14.376", "v0_kv 14.376 v0 14376.0", "exactly one of 'v0'/'v0_kv'"),
        (MINIMAL, "load v0 1000.0", "load", "exactly one of 'v0'/'v0_kv'"),
        (MINIMAL, " zip_im 0.0 0.0 1.0", "", "resource row needs zip_re and zip_im triples"),
    ]
    for text, old, new, match in cases:
        assert text.count(old) == 1, old
        with pytest.raises(ParseError, match=match) as exc:
            parse_grid_text(text.replace(old, new))
        assert exc.value.line == _line_of(text, old), new


def test_parse_configs():
    text = "# per-km\nconfig a\nz 1 2\nb 3\nend\n\nconfig b\nz 5 6\nb 7\nend\n"
    configs = parse_configs(text, 1)
    assert list(configs) == ["a", "b"]
    z, b = configs["a"]
    assert z.dtype == complex and z[0, 0] == 1 + 2j
    assert b.dtype == float and b[0, 0] == 3.0
    with pytest.raises(ParseError, match="config"):
        parse_configs("nodes\nend\n", 1)
    with pytest.raises(ParseError, match="end"):
        parse_configs("config a\nz 1 2\nb 3\n", 1)
    with pytest.raises(ParseError, match="line 3"):
        parse_configs("config a\nz 1 2\nz 3 4\nend\n", 1)
    with pytest.raises(ParseError, match="line 4"):
        parse_configs("config a\nz 1 2\nb 3\nb 4\nend\n", 1)


THREE = """\
phases 3
nodes
1 slack 1000.0
2 zero 1000.0
3 resource 1000.0
end

config a
z 0.3 0.8 0.1 0.4 0.1 0.35
z 0.1 0.4 0.3 0.8 0.1 0.4
z 0.1 0.35 0.1 0.4 0.3 0.8
b 3.0 -1.0 -0.5
b -1.0 3.0 -1.0
b -0.5 -1.0 3.0
end

lines
2 3 1.5 config a
end

branch 1 2
z 0.5 1.0 0.1 0.2 0.1 0.2
z 0.1 0.2 0.5 1.0 0.1 0.2
z 0.1 0.2 0.1 0.2 0.5 1.0
yfrom 0.0 1e-05 0.0 0.0 0.0 0.0
yfrom 0.0 0.0 0.0 1e-05 0.0 0.0
yfrom 0.0 0.0 0.0 0.0 0.0 1e-05
yto 0.0 2e-05 0.0 0.0 0.0 0.0
yto 0.0 0.0 0.0 2e-05 0.0 0.0
yto 0.0 0.0 0.0 0.0 0.0 2e-05
label feeder
end

shunt 2
y 0.0 3e-05 0.0 0.0 0.0 0.0
y 0.0 0.0 0.0 3e-05 0.0 0.0
y 0.0 0.0 0.0 0.0 0.0 3e-05
end

slack 1
zrow 0.05 0.3 0.0 0.01 0.0 0.01
zrow 0.0 0.01 0.05 0.3 0.0 0.01
zrow 0.0 0.01 0.0 0.01 0.05 0.3
vrow 1000.0 0.0 -500.0 -866.0 -500.0 866.0
end

resources
3 load v0 1000.0 p0 -1000.0 -900.0 -800.0 q0 0.0 0.0 0.0 zip_re 0.0 0.0 1.0 zip_im 0.0 0.0 1.0
end
"""

MATRIX_ROWS = ("z", "b", "yfrom", "yto", "y", "zrow", "vrow")


def test_bad_matrix_rows_name_their_line():
    grid, slacks, _ = parse_grid_text(THREE)
    assert grid.branches[1].y_shunt_from[0, 0] == 1e-5j and grid.shunts[0].y[2, 2] == 3e-5j
    assert slacks[0].v_te[1] == -500.0 - 866.0j
    lines = THREE.splitlines()
    rows = [k for k, ln in enumerate(lines) if ln.partition(" ")[0] in MATRIX_ROWS]
    assert len(rows) == 22
    for k in rows:
        keyword, *numbers = lines[k].split()
        faults = [
            (numbers[:-1], "expected"),
            (numbers + ["0.0"], "expected"),
            (numbers[:1] + ["1.0.0"] + numbers[2:], "bad number"),
            (numbers[:1] + ["0x10"] + numbers[2:], "bad number"),
            (numbers[:-1] + ["nan"], "finite"),
            (["inf"] + numbers[1:], "finite"),
            (numbers[:2] + ["-1e999"] + numbers[3:], "finite"),
        ]
        for bad, match in faults:
            text = "\n".join(lines[:k] + [" ".join([keyword] + bad)] + lines[k + 1:]) + "\n"
            with pytest.raises(ParseError, match=match) as exc:
                parse_grid_text(text)
            assert exc.value.line == k + 1, (lines[k], bad)


def test_first_bad_matrix_row_is_reported():
    start = THREE.index("branch 1 2\n")
    z_line = THREE[:start].count("\n") + 2  # the branch's first z row
    block = THREE[start:].split("label")[0]
    cases = [
        # a bad token above a row with the wrong keyword
        (["z 0.5 x 0.1 0.2 0.1 0.2", "w 0.1 0.2 0.5 1.0 0.1 0.2"], 0, "bad number"),
        # a non-finite number above a short row
        (["z 0.5 1.0 0.1 0.2 0.1 0.2", "z 0.1 0.2 0.5 nan 0.1 0.2", "z 0.1 0.2"], 1, "finite"),
        # a short row above a bad token
        (["z 0.5 1.0 0.1 0.2 0.1", "z 0.1 0.2 0.5 1.0 0.1 y"], 0, "expected 6 numbers, got 5"),
    ]
    for new_rows, bad, match in cases:
        rows = block.splitlines()
        rows[1 : 1 + len(new_rows)] = new_rows
        text = THREE.replace(block, "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match=match) as exc:
            parse_grid_text(text)
        assert exc.value.line == z_line + bad, new_rows



def test_overflowing_block_sum_is_accepted():
    # The one-pass conversion sees the block's sum overflow to inf and hands
    # the block to the row-by-row path, which accepts each finite number.
    grid, _, _ = parse_grid_text(MINIMAL.replace("z 0.5 0.0", "z 1e308 1e308"))
    assert grid.branches[0].z[0, 0] == complex(1e308, 1e308)


def _edited(text, edits):
    """text with each (old, new) replacement made; every old occurs once."""
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return text


_YTO_2 = "yto 0.0 0.0 0.0 2e-05 0.0 0.0\n"
_Z_3 = "z 0.1 0.2 0.1 0.2 0.5 1.0\n"


@pytest.mark.parametrize("edits, at, message", [
    # a bad number in a later yto row, after a good z
    ([(_YTO_2, "yto 0.0 0.0 0.0 2e-05 0.0 x\n")], "0.0 x",
     "bad number: could not convert string to float: 'x'"),
    # a bad gain row above a bad yto row
    ([(_Z_3, _Z_3 + "gain 1.0x\n"), (_YTO_2, "yto 0.0 0.0 0.0 nan 0.0 0.0\n")], "gain",
     "bad number: could not convert string to float: '1.0x'"),
    # a bad yto row above a gain row of two numbers
    ([(_YTO_2, "yto 0.0 0.0 0.0 nan 0.0 0.0\n"), ("label feeder\n", "gain 1.0 2.0\n")],
     "0.0 nan", "numbers must be finite, got 0.0 0.0 0.0 nan 0.0 0.0"),
    # a short yto row above a bad rated row
    ([(_YTO_2, "yto 0.0 0.0 0.0 2e-05 0.0\n"), ("label feeder\n", "rated -inf\n")],
     "2e-05 0.0\n", "expected 6 numbers, got 5"),
    # a fault in z above an unknown attribute of the same block
    ([("z 0.5 1.0 0.1 0.2 0.1 0.2\n", "z 0.5 1.0 0.1 0.2 0.1 inf\n"),
      ("label feeder\n", "tap 1.0\n")], "0.1 inf", "numbers must be finite"),
    # a fault in yfrom above a block that lost its end
    ([("yfrom 0.0 0.0 0.0 1e-05 0.0 0.0\n", "yfrom 0.0 0.0 0.0 1e-05 0.0 0.0 0.0\n"),
      ("label feeder\nend\n", "label feeder\n")], "yfrom 0.0 0.0 0.0 1e-05 0.0 0.0 0.0",
     "expected 6 numbers, got 7"),
    # a fault in the branch block above a malformed later shunt block
    ([(_YTO_2, "yto 0.0 0.0 0.0 2e-05 0.0 0x1\n"), ("shunt 2\n", "shunt 2 3\n")], "0x1",
     "bad number: could not convert string to float: '0x1'"),
    # a fault in the branch block above an unknown section
    ([(_YTO_2, "yto 0.0 0.0 0.0 2e-05 0.0 1.0.0\n"), ("resources\n", "wibble\n")], "1.0.0",
     "bad number: could not convert string to float: '1.0.0'"),
    # a good branch block, then a fault in the slack block's vrow
    ([("vrow 1000.0 0.0", "vrow 1000.0 x")], "vrow",
     "bad number: could not convert string to float: 'x'"),
], ids=["yto-after-z", "gain-above-yto", "yto-above-gain", "yto-above-rated",
        "z-above-unknown-attribute", "yfrom-above-missing-end", "branch-above-shunt-header",
        "branch-above-unknown-section", "vrow-after-branch"])
def test_first_fault_across_rows_and_blocks(edits, at, message):
    text = _edited(THREE, edits)
    with pytest.raises(ParseError, match=re.escape(message)) as exc:
        parse_grid_text(text)
    assert exc.value.line == _line_of(text, at)


@pytest.mark.parametrize("text, edits, at, message", [
    (THREE, [("label feeder\n", "label feeder\ngain 1.0\ngain 2.0\n")], "gain 2.0",
     "repeated branch attribute 'gain'"),
    (THREE, [("label feeder\n", "rated 100.0\nlabel feeder\nrated 200.0\n")], "rated 200.0",
     "repeated branch attribute 'rated'"),
    (THREE, [("label feeder\n", "label feeder\nlabel other\n")], "label other",
     "repeated branch attribute 'label'"),
    (THREE, [("label feeder\n", "label feeder\nyfrom 0 0 0 0 0 0\nyfrom 0 0 0 0 0 0\n"
              "yfrom 0 0 0 0 0 0\n")], "yfrom 0 0", "repeated branch attribute 'yfrom'"),
    (THREE, [("label feeder\n", "label feeder\nyto 0 0 0 0 0 0\n")], "yto 0 0",
     "repeated branch attribute 'yto'"),
    (CATALOG, [(" zip_im", " lam 2 lam 3 zip_im")], "3 load", "repeated resource field 'lam'"),
    (MINIMAL, [("v0 1000.0", "v0 1000.0 v0 1000.0")], "2 load", "repeated resource field 'v0'"),
    (MINIMAL, [("p0 -125000.0", "p0 -125000.0 p0 -1.0")], "2 load",
     "repeated resource field 'p0'"),
    (THREE, [("lines\n", "config a\nz 1 2 0 0 0 0\nz 0 0 1 2 0 0\nz 0 0 0 0 1 2\n"
              "b 1 0 0\nb 0 1 0\nb 0 0 1\nend\n\nlines\n")], "config a\nz 1 2",
     "repeated config 'a'"),
], ids=["gain", "rated", "label", "yfrom", "yto", "lam", "v0", "p0", "config"])
def test_repeated_keys_are_refused(text, edits, at, message):
    text = _edited(text, edits)
    with pytest.raises(ParseError, match=re.escape(message)) as exc:
        parse_grid_text(text)
    assert exc.value.line == _line_of(text, at)


def test_zip_triples_keep_signed_zeros():
    text = _edited(MINIMAL, [
        ("2 resource 1000.0\n", "2 resource 1000.0\n3 resource 1000.0\n"),
        ("\nslack 1", "\nbranch 2 3\nz 0.5 0.0\nend\n\nslack 1"),
        ("zip_im 0.0 0.0 1.0\n", "zip_im 0.0 0.0 1.0\n"
         "3 load v0 1000.0 p0 -1.0 q0 0.0 zip_re -0.0 0.0 1.0 zip_im 0.0 -0.0 1.0\n"),
    ])
    models = parse_grid_text(text)
    signs = [[math.copysign(1.0, x) for x in (r.phases[0].zip_re.alpha, r.phases[0].zip_im.beta)]
             for r in models[2]]
    assert signs == [[1.0, 1.0], [-1.0, -1.0]]
    assert "zip_re -0.0 0.0 1.0 zip_im 0.0 -0.0 1.0" in serialize_grid(*models)


def _config_text(p, blocks):
    """Config-only text with one block per entry of blocks, each the number
    texts of its p z rows and p b rows; also (line, width, number text) of
    every row."""
    lines, rows = [], []
    for k, block in enumerate(blocks):
        lines.append(f"config c{k}")
        for i, numbers in enumerate(block):
            keyword, width = ("z", 2 * p) if i < p else ("b", p)
            lines.append(f"{keyword} {numbers}")
            rows.append((len(lines), width, numbers))
        lines.append("end")
    return "\n".join(lines) + "\n", rows


def _assert_converts_row_by_row(p, blocks):
    """parse_configs gives the bits, or the ParseError, of _floats applied
    to each row in line order."""
    text, rows = _config_text(p, blocks)
    try:
        values = [_floats(numbers.split(), width, ln) for ln, width, numbers in rows]
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_configs(text, p)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
        return
    configs = parse_configs(text, p)
    assert list(configs) == [f"c{k}" for k in range(len(blocks))]
    for k, (z, b) in enumerate(configs.values()):
        block = values[2 * p * k : 2 * p * (k + 1)]
        for got, want in ((z, np.array(block[:p]).view(complex)), (b, np.array(block[p:]))):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()


# Spellings float() accepts and np.loadtxt refuses, and spellings both refuse.
_LOADTXT_REFUSES = ["1_0", "1_000.5", "\u0661\u0662", "\uff11.\uff15", "-\u0660.\u0665"]
_JUNK = ["x", "0x10", "1.0.0", "1e", "--1", "1d3", "1,5", '"1"', "\x00"]
_NOT_FINITE = ["nan", "-nan", "inf", "-inf", "Infinity", "-iNF", "1e400", "-1e400"]
_EDGES = ["-0.0", "0.0", "5e-324", "-2.2250738585072014e-308", "1e308", "-1e308",
          "1.7976931348623157e308"]
_SEPARATORS = [" ", "  ", "\t", "\xa0", "\u2003", " \u3000 "]


@st.composite
def _config_blocks(draw):
    """(p, blocks) for _assert_converts_row_by_row: most rows are doubles as
    repr writes them, some hold odd spellings, and some have a wrong count."""
    p = draw(st.integers(1, 3))
    doubles = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(_EDGES)
    odd = st.sampled_from(_LOADTXT_REFUSES + _JUNK + _NOT_FINITE)
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        block = []
        for width in [2 * p] * p + [p] * p:
            n = width + draw(st.sampled_from([0] * 12 + [-1, 1]))
            tokens = st.one_of(doubles, odd) if draw(st.integers(0, 7)) == 0 else doubles
            block.append(draw(st.sampled_from(_SEPARATORS)).join(
                draw(st.lists(tokens, min_size=n, max_size=n))))
        blocks.append(block)
    return p, blocks


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_config_blocks())
def test_file_conversion_matches_row_by_row(case):
    _assert_converts_row_by_row(*case)


@pytest.mark.parametrize("p, blocks", [
    (1, [["1_0 2", "3"]]),
    (1, [["\u0661\u0662 \uff11.\uff15", "-\u0660.\u0665"]]),
    (2, [["1\xa02 3\u20034", "5 6 7 8", "1 2", "3\t4"]]),
    (1, [["-0.0 5e-324", "-2.2250738585072014e-308"]]),
    (1, [["1e308 1e308", "-1.7976931348623157e308"]]),
    (1, [["1 2", "nan"]]),
    (1, [["inf 1", "1"]]),
    (1, [["1 Infinity", "1"]]),
    (1, [["1 2", "-iNF"]]),
    (1, [["1e400 1", "1"]]),
    (1, [["1 2 3", "1"]]),
    (1, [["1", "1"]]),
    (1, [["", "1"]]),
    (1, [["1 2", "1 2"]]),
    (1, [["x 1", "1"]]),
    (1, [["1 2", "0x10"]]),
    # faults in several rows and blocks: the first in line order is raised
    (1, [["1 2", "1"], ["1 x", "nan"], ["1 2 3", "1"]]),
    (1, [["1 2", "1_0"], ["1 2", "1 2"], ["inf 2", "x"]]),
    (2, [["1 2 3 4", "1 2 3 4", "1 2", "1 nan"], ["1 2 3", "x 2 3 4", "1 2", "1 2"]]),
    # a spelling np.loadtxt refuses above a real fault
    (1, [["1_0 2", "3"], ["1 2", "1e400"]]),
], ids=["underscore", "unicode-digits", "unicode-spaces", "signed-zero-subnormal",
        "overflowing-sum", "nan", "inf", "Infinity", "-iNF", "1e400", "too-many", "too-few",
        "empty-row", "b-too-many", "bad-token", "hex", "first-of-three", "later-block-fault",
        "two-phase-blocks", "refused-spelling-above-fault"])
def test_file_conversion_fixed_cases(p, blocks):
    _assert_converts_row_by_row(p, blocks)


@pytest.mark.parametrize("old, new, plain", [
    ("z 0.5 1.0 0.1 0.2 0.1 0.2\n", "z 0.5 1_0 0.1 0.2 0.1 0.2\n",
     "z 0.5 10.0 0.1 0.2 0.1 0.2\n"),
    ("y 0.0 0.0 0.0 3e-05 0.0 0.0\n", "y 0.0 0.0 \u0660.\u0660 3e-05 0.0 0.0\n",
     "y 0.0 0.0 0.0 3e-05 0.0 0.0\n"),
    ("yto 0.0 2e-05 0.0 0.0 0.0 0.0\n", "yto 0.0\xa02e-05\u20030.0 0.0\t0.0 0.0\n",
     "yto 0.0 2e-05 0.0 0.0 0.0 0.0\n"),
    ("vrow 1000.0 0.0", "vrow 1_000.0 0.0", "vrow 1000.0 0.0"),
], ids=["branch-underscore", "shunt-unicode-digits", "yto-unicode-spaces", "vrow-underscore"])
def test_grid_blocks_read_float_spellings(old, new, plain):
    # np.loadtxt refuses the rows with 1_0 or non-ASCII digits, and the
    # replay reads them as float() does, into the models of the plain
    # spelling; the Unicode spaces np.loadtxt splits on as str.split does.
    assert parse_grid_text(_edited(THREE, [(old, new)])) == parse_grid_text(
        _edited(THREE, [(old, plain)]))


def test_files_without_matrix_rows_parse_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid, slacks, resources = parse_grid_text(CATALOG)
        assert parse_configs("# no blocks\n", 3) == {}
    assert len(grid.branches) == 2 and len(slacks) == 1 and len(resources) == 1


def test_matrix_rows_take_one_loadtxt_call_per_width(monkeypatch, synthfeeder):
    feeder = synthfeeder.feeder_text(0, 300)
    calls = []

    def loadtxt(rows, **kwargs):
        calls.append(len(rows))
        return real(rows, **kwargs)

    real = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", loadtxt)
    parse_grid_text(THREE)
    assert calls == [22 - 3, 3]  # the complex rows, then the config's b rows
    calls.clear()
    parse_grid_text(feeder)
    assert calls == [2707]


def test_parse_memory_peak(synthfeeder):
    text = synthfeeder.feeder_text(0, 300)
    tracemalloc.start()
    try:
        parse_grid_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6, peak


def test_parse_configs_refuses_a_repeated_name():
    block = "config a\nz 1 2\nb 3\nend\n"
    with pytest.raises(ParseError, match="^line 5: repeated config 'a'$"):
        parse_configs(block + block, 1)


def test_byte_order_mark(tmp_path):
    text = bundled_grid_text()
    plain, marked = tmp_path / "plain.grid", tmp_path / "marked.grid"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert parse_grid(marked) == parse_grid(plain)
    lines = MINIMAL.splitlines(keepends=True)
    assert lines[6] == "branch 1 2\n"
    lines[6] = "\ufeff" + lines[6]
    marked.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        parse_grid(marked)
    assert exc.value.line == 7


# -- Group 2 ---------------------------------------------------------------

ASYM = """\
phases 2
nodes
1 slack 1000.0
2 resource 1000.0
end

branch 1 2
z 0.5 0.0 0.2 0.0
z 0.1 0.0 0.5 0.0
end

slack 1
zrow 0.1 0.0 0.0 0.0
zrow 0.0 0.0 0.1 0.0
vrow 1000.0 0.0 -1000.0 0.0
end

resources
2 load v0 1000.0 p0 -1000.0 -1000.0 q0 0.0 0.0 zip_re 0.0 0.0 1.0 zip_im 0.0 0.0 1.0
end
"""


def test_validation_toggle():
    grid, slacks, resources = parse_grid_text(ASYM)
    assert grid.branches[0].z[0, 1] == 0.2
    with pytest.raises(ValidationError) as exc:
        PolyphaseSystem(grid, slacks, resources)
    assert any(v.kind == "asymmetric" for v in exc.value.violations)


# -- Group 3 ---------------------------------------------------------------


def _full_feature_models():
    p = 2
    z = np.array([[0.4 + 0.9j, 0.1 + 0.2j], [0.1 + 0.2j, 0.5 + 0.8j]])
    ysh = np.array([[1e-5j, 0], [0, 2e-5j]])
    grid = GridModel(
        nodes=(Node(1, "slack", vnom=900.0), Node(2, "zero", vnom=900.0),
               Node(3, "resource", vnom=880.0)),
        branches=(
            Branch(1, 2, z, y_shunt_from=ysh, y_shunt_to=2 * ysh, rated_a=120.0,
                   label="feeder"),
            Branch(2, 3, 0.5 * z, gain=0.97),
        ),
        shunts=(Shunt(2, ysh),),
        p=p,
    )
    v_te = 900.0 * np.exp(1j * np.array([0.0, -np.pi / 2]))
    slacks = [SlackModel(node=1, v_te=v_te, z_te=np.array([[0.05 + 0.3j, 0.01j],
                                                           [0.01j, 0.05 + 0.3j]]))]
    zre = ZipCoefficients(0.25, 0.25, 0.5)
    zim = ZipCoefficients(0.0, 0.125, 0.875)
    resources = [ResourceModel(node=3, v0=880.0, lam=0.7, kind="compensator",
                               phases=(PhaseResource(0.0, 450.0, zre, zim),
                                       PhaseResource(0.0, 325.0, zre, zim)))]
    return grid, slacks, resources


def test_serialize_parse_round_trip():
    grid, slacks, resources = _full_feature_models()
    text = serialize_grid(grid, slacks, resources)
    grid2, slacks2, resources2 = parse_grid_text(text)
    assert grid2 == grid
    assert slacks2 == slacks
    assert resources2 == resources
    assert resources2[0].lam == 0.7


def test_serialize_textually_stable():
    grid, slacks, resources = _full_feature_models()
    text = serialize_grid(grid, slacks, resources)
    again = serialize_grid(*parse_grid_text(text))
    assert again == text


def test_mixed_unit_resource_rows():
    row = next(ln for ln in CATALOG.splitlines() if ln.startswith("3 load "))
    mixes = [
        row.replace("p0_kw -60.0 -50.0 -40.0", "p0 -60000.0 -50000.0 -40000.0"),
        row.replace("v0_kv 14.376", "v0 14376.0")
        .replace("q0_kvar -30.0 -25.0 -20.0", "q0 -30000.0 -25000.0 -20000.0"),
    ]
    ref = parse_grid_text(CATALOG)
    text = serialize_grid(*ref)
    assert serialize_grid(*parse_grid_text(text)) == text
    for mixed in mixes:
        assert mixed != row
        models = parse_grid_text(CATALOG.replace(row, mixed))
        assert models[2] == ref[2], mixed
        assert serialize_grid(*models) == text, mixed


def test_zip_from_values():
    exact = zip_from_values(0.2, 0.3, 0.5)
    assert exact.alpha == 0.2 and exact.beta == 0.3 and exact.gamma == 0.5
    rounded = zip_from_values(1.064, -0.088, 0.025)
    s = 1.064 - 0.088 + 0.025
    assert rounded.alpha == 1.064 / s
    with pytest.raises(ValueError):
        zip_from_values(0.9, 0.3, 0.3)


def test_synthetic_feeder_text_round_trips(synthfeeder):
    text = synthfeeder.feeder_text(0, 300)
    models = parse_grid_text(text)
    assert len(models[0].branches) == 301
    assert serialize_grid(*models) == text
    assert parse_grid_text(serialize_grid(*models)) == models


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lam=st.floats(0.0, 4.0))
def test_random_models_round_trip(seed, lam):
    grid, slacks, resources = random_system(np.random.default_rng(seed))
    mixed = [r for r in resources if len({(ph.zip_re, ph.zip_im) for ph in r.phases}) > 1]
    if mixed:
        with pytest.raises(ValueError, match=f"resource {mixed[0].node}: per-phase ZIP"):
            serialize_grid(grid, slacks, resources)
    uniform = [replace(r, lam=lam, phases=tuple(replace(ph, zip_re=r.phases[0].zip_re,
                                                        zip_im=r.phases[0].zip_im)
                                                for ph in r.phases))
               for r in resources]
    assert parse_grid_text(serialize_grid(grid, slacks, uniform)) == (grid, slacks, uniform)


# SHA-256 of _model_digest, recorded with the reader that converted each
# matrix on its own; the one-pass reader must reproduce every bit.  The
# feeder texts come from perfbench/synthfeeder.py, so a change in the
# generator's arithmetic moves their digests without any parser change.
GOLDEN_MODELS = {
    "bundled": "b3bc15b245a02a8b212f4d3bca7bcd66e7a5e26ca7ff3b1d60cc431d42afff4f",
    "feeder 40": "68bb5249b8bad4d884f411ba050d62c41bad06e54507c47599039ea5d990f30f",
    "feeder 300": "09a894a703d5d31231d4671c49358ee5fa0f2eb3d2787947625f0298d21f66df",
}
GOLDEN_CONFIGS = "104fa9edd7c2a629b956f55a0ec8ab50e2b19755b3fb70ab1378d3c488685173"


def _model_digest(models) -> str:
    """SHA-256 over every parsed field: arrays by dtype, shape and bytes,
    scalars by type name and value (floats by their hex form, so -0.0 and
    0.0 differ)."""
    grid, slacks, resources = models
    h = hashlib.sha256()

    def put(*values):
        for x in values:
            if isinstance(x, np.ndarray):
                h.update(f"{x.dtype.str}{x.shape}".encode())
                h.update(np.ascontiguousarray(x).tobytes())
            else:
                h.update(type(x).__name__.encode())
                h.update((x.hex() if isinstance(x, float) else repr(x)).encode())
            h.update(b";")

    put(grid.p)
    for n in grid.nodes:
        put(n.id, n.role, n.vnom)
    for b in grid.branches:
        put(b.from_node, b.to_node, b.z, b.y_shunt_from, b.y_shunt_to, b.gain, b.rated_a, b.label)
    for s in grid.shunts:
        put(s.node, s.y)
    for s in slacks:
        put(s.node, s.z_te, s.v_te)
    for r in resources:
        put(r.node, r.kind, r.v0, r.lam)
        for ph in r.phases:
            put(ph.p0, ph.q0, *(getattr(z, c) for z in (ph.zip_re, ph.zip_im)
                                for c in ("alpha", "beta", "gamma")))
    return h.hexdigest()


def test_parsed_models_match_golden_digests(synthfeeder):
    texts = {"bundled": bundled_grid_text(), "feeder 40": synthfeeder.feeder_text(0, 40),
             "feeder 300": synthfeeder.feeder_text(0, 300)}
    assert {name: _model_digest(parse_grid_text(t)) for name, t in texts.items()} == GOLDEN_MODELS
    configs = importlib.resources.files("polyvsi").joinpath("data", "ieee34_overhead.txt")
    configs = configs.read_text(encoding="utf-8")
    h = hashlib.sha256()
    for name, (z, b) in parse_configs(configs, 3).items():
        for part in (name.encode(), z.dtype.str.encode(), z.tobytes(), b.dtype.str.encode(),
                     b.tobytes()):
            h.update(part)
    assert h.hexdigest() == GOLDEN_CONFIGS


# -- Group 4 ---------------------------------------------------------------


def _with_resource_id(node_id):
    """_full_feature_models with the resource node 3 renamed node_id."""
    grid, slacks, resources = _full_feature_models()
    grid = replace(grid, nodes=grid.nodes[:2] + (replace(grid.nodes[2], id=node_id),),
                   branches=(grid.branches[0], replace(grid.branches[1], to_node=node_id)))
    return grid, slacks, [replace(resources[0], node=node_id)]


@pytest.mark.parametrize("node_id", ["n 3", "n#3", "3"], ids=["whitespace", "hash", "int-text"])
def test_serialize_refuses_ids_that_do_not_read_back(node_id):
    message = f"node: node id {node_id!r} does not read back"
    with pytest.raises(ValueError, match=re.escape(message)):
        serialize_grid(*_with_resource_id(node_id))


@pytest.mark.parametrize("label", ["a#b", "a\nb", " a", "a ", "a  b", ""],
                         ids=["hash", "newline", "leading", "trailing", "repeated", "empty"])
def test_serialize_refuses_labels_that_do_not_read_back(label):
    grid, slacks, resources = _full_feature_models()
    grid = replace(grid, branches=(replace(grid.branches[0], label=label), grid.branches[1]))
    with pytest.raises(ValueError, match=re.escape(f"branch 1-2: label {label!r}")):
        serialize_grid(grid, slacks, resources)


def test_string_ids_and_spaced_labels_round_trip():
    grid, slacks, resources = _with_resource_id("n3")
    labelled = replace(grid.branches[0], label="main feeder")
    grid = replace(grid, branches=(labelled, grid.branches[1]))
    models = (grid, slacks, resources)
    assert parse_grid_text(serialize_grid(*models)) == models
