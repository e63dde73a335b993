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
       section, mismatched slack/resource sections)
   4a. Non-finite numbers, non-positive ratings and constructor errors in
       catalog rows and blocks raise ParseError naming the line; the
       builders reject non-positive ratings themselves
   4b. parse_configs reads config-only text with the grid file's config
       grammar and rejects anything else

 Group 2 - Validation
   5.  Asymmetric parameters raise ValidationError when validate=True and
       parse cleanly when validate=False

 Group 3 - Round trips
   6.  serialize -> parse reproduces every model bit-exactly (gain, rated,
       label, pi shunts, node shunts, explicit slacks, lam != 1)
   7.  serialize(parse(serialize(x))) is textually stable
   8.  zip_from_values passes exact triples through and renormalizes
       rounded ones
   9.  Resource rows mixing SI and catalog units parse to the all-catalog
       row's model and serialize to the same text
"""

import numpy as np
import pytest

from polyvsi.builders import (
    seq_to_phase_b,
    seq_to_phase_z,
    short_circuit_slack,
    transformer_branch,
)
from polyvsi.errors import ParseError, ValidationError
from polyvsi.gridfile import parse_configs, parse_grid_text, serialize_grid, zip_from_values
from polyvsi.grid import Branch, GridModel, Node, Shunt
from polyvsi.nodes import PhaseResource, ResourceModel, SlackModel, ZipCoefficients

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


def test_builders_reject_non_positive_ratings():
    for s_va, v_from, v_to in ((0.0, 69e3, 24.9e3), (-12e6, 69e3, 24.9e3),
                               (12e6, 0.0, 24.9e3), (12e6, 69e3, -1.0),
                               (float("nan"), 69e3, 24.9e3)):
        with pytest.raises(ValueError, match="positive"):
            transformer_branch(2, 3, s_va, v_from, v_to, 0.005, 0.1)
    for s_sc in (0.0, -100e6, float("nan")):
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
    with pytest.raises(ValidationError) as exc:
        parse_grid_text(ASYM)
    assert any(v.kind == "asymmetric" for v in exc.value.violations)
    grid, _, _ = parse_grid_text(ASYM, validate=False)
    assert grid.branches[0].z[0, 1] == 0.2


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
