"""
Command line driver, run in-process through main(argv).

Proves:
 Group 1 - validate
   1.  Healthy file: exit 0, summary line
   2.  Parameter violations: exit 1, one line per violation
   3.  Unparseable file / missing file: exit 2
   3a. Non-finite v0, reference power or ZIP coefficient in the bundled
       feeder: validate and cpf both exit 2
   3b. Zero tap, self-loop, non-positive or non-finite ratings and lengths,
       and a non-finite config entry: validate and cpf exit 2 naming the line
   3c. Models that parse but cannot form a system (no resource node, a node
       without nominal voltage): pf, cpf and vsi exit 2 with one line

 Group 2 - pf
   4.  Solves and writes --out / --voltages CSVs, exit 0
   5.  Infeasible loading exits 1
   6.  --start warm start from a snapshot converges immediately
   6a. A non-numeric or non-finite snapshot exits 2 in pf --start and vsi

 Group 3 - cpf
   7.  Traces the two-bus fold to xi ~ 2, writes the trace CSV
   8.  --no-vsi leaves the index columns empty
   9.  Infeasible base case exits 1

 Group 4 - vsi
  10.  Chains pf --voltages into vsi; index matches the library value
  11.  At xi = 0 the reported index is ~ 0
  11a. pf --voltages then vsi on a 302-node synthetic feeder (the sparse
       path) both exit 0

 Group 5 - bench
  12.  bench emit writes a parseable file identical to the bundled data

 Group 6 - numeric flags
  13.  Out-of-range, non-finite or non-numeric flag values exit 2 at
       parse time with a usage message; the boundary values parse
"""

import csv
from dataclasses import replace

import numpy as np
import pytest

from conftest import two_bus
from polyvsi import benchmark
from polyvsi.cli import build_parser, main
from polyvsi.grid import Node
from polyvsi.gridfile import parse_grid, serialize_grid
from polyvsi.powerflow import PolyphaseSystem, solve_power_flow


@pytest.fixture()
def grid_file(tmp_path):
    grid, slacks, resources = two_bus()
    path = tmp_path / "two_bus.grid"
    serialize_grid(grid, slacks, resources, path=path)
    return path


def _rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# -- Group 1 ---------------------------------------------------------------


def test_validate_ok(grid_file, capsys):
    assert main(["validate", str(grid_file)]) == 0
    out = capsys.readouterr().out
    assert "ok: 2 nodes" in out


def test_validate_violations(tmp_path, grid_file, capsys):
    text = grid_file.read_text().replace("z 0.5 0.0\n", "z -0.5 0.0\n", 1)
    bad = tmp_path / "bad.grid"
    bad.write_text(text)
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "indefinite-real-part" in out
    assert "violation(s)" in out


def test_validate_parse_error(tmp_path):
    junk = tmp_path / "junk.grid"
    junk.write_text("not a grid\n")
    assert main(["validate", str(junk)]) == 2
    assert main(["validate", str(tmp_path / "absent.grid")]) == 2
    assert main(["validate", str(tmp_path)]) == 2
    binary = tmp_path / "binary.grid"
    binary.write_bytes(b"\xff\xfe\x00phases 3\n")
    assert main(["validate", str(binary)]) == 2


def test_non_finite_resource_parameters_exit_two(tmp_path, capsys):
    text = benchmark.bundled_grid_text()
    row = next(ln for ln in text.splitlines() if ln.startswith("9 load "))
    mutations = {
        "v0": row.replace("v0_kv 14.376021702821681", "v0_kv inf"),
        "p0": row.replace("p0_kw -60.0", "p0_kw nan"),
        "zip": row.replace("zip_re -0.067", "zip_re nan"),
    }
    for name, mutated in mutations.items():
        assert mutated != row
        path = tmp_path / f"{name}.grid"
        path.write_text(text.replace(row, mutated))
        assert main(["validate", str(path)]) == 2, name
        assert main(["cpf", str(path), "--out", str(tmp_path / "t.csv")]) == 2, name
        assert not (tmp_path / "t.csv").exists()
    assert "finite" in capsys.readouterr().err


def test_malformed_catalog_rows_exit_two(tmp_path, capsys):
    text = benchmark.bundled_grid_text()
    mutations = [
        ("LVR1 11 12 9.0 24.9 24.9 0.005 0.1 1.05", "LVR1 11 12 9.0 24.9 24.9 0.005 0.1 0.0"),
        ("6 7 1.314 config 300", "6 6 1.314 config 300"),
        ("1 sc 100.0 0.1", "1 sc 0.0 0.1"),
        ("1 sc 100.0 0.1", "1 sc -100.0 0.1"),
        ("TF 5 6 12.0 ", "TF 5 6 0.0 "),
        ("6 7 1.314 config 300", "6 7 inf config 300"),
        ("1 sc 100.0 0.1", "1 sc nan 0.1"),
        ("TF 5 6 12.0 ", "TF 5 6 nan "),
        ("config 300\nz 0.830649009782868 ", "config 300\nz inf "),
    ]
    for old, new in mutations:
        assert text.count(old) == 1, old
        lineno = text[: text.index(old)].count("\n") + 1 + new.count("\n")
        path = tmp_path / "bad.grid"
        path.write_text(text.replace(old, new))
        capsys.readouterr()
        assert main(["validate", str(path)]) == 2, new
        assert f"line {lineno}:" in capsys.readouterr().err, new
        assert main(["cpf", str(path)]) == 2, new
        assert f"line {lineno}:" in capsys.readouterr().err, new


def _system_commands_exit_two(path, tmp_path, capsys, message):
    """pf, cpf and vsi each exit 2 with the one-line message on stderr."""
    snap = tmp_path / "snap.csv"
    for argv in (["pf"], ["cpf"], ["vsi", "--voltages", str(snap)]):
        capsys.readouterr()
        assert main([argv[0], str(path), *argv[1:]]) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, (argv[0], err)


def test_grid_without_resources_exits_two(tmp_path, capsys):
    grid, slacks, _ = two_bus()
    grid = replace(grid, nodes=(grid.nodes[0], Node(2, "zero", vnom=grid.nodes[1].vnom)))
    path = tmp_path / "no_resources.grid"
    serialize_grid(grid, slacks, [], path=path)
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.startswith("ok")
    _system_commands_exit_two(path, tmp_path, capsys, "the augmented grid has no resource nodes")


def test_node_without_nominal_voltage_exits_two(tmp_path, capsys):
    grid, slacks, resources = two_bus()
    grid = replace(grid, nodes=(grid.nodes[0], replace(grid.nodes[1], vnom=None)))
    path = tmp_path / "no_vnom.grid"
    serialize_grid(grid, slacks, resources, path=path)
    assert "\n2 resource -\n" in path.read_text()
    _system_commands_exit_two(path, tmp_path, capsys, "nodes without nominal voltage")


# -- Group 2 ---------------------------------------------------------------


def test_pf_writes_outputs(grid_file, tmp_path, capsys):
    out = tmp_path / "pf.csv"
    snap = tmp_path / "snap.csv"
    rc = main(["pf", str(grid_file), "--out", str(out), "--voltages", str(snap)])
    assert rc == 0
    assert "converged" in capsys.readouterr().out
    header, body = _rows(out)
    assert header[0] == "kind"
    v2 = next(r for r in body if r[0] == "node" and r[1] == "2")
    grid, slacks, resources = two_bus()
    system = PolyphaseSystem(grid, slacks, resources)
    op, _ = solve_power_flow(system, xi=1.0)
    assert float(v2[3]) == pytest.approx(op.magnitude(2, 1), rel=1e-8)
    sheader, sbody = _rows(snap)
    assert sheader == ["node", "phase", "V_mag_V", "V_ang_rad"]
    assert len(sbody) == 2


def test_pf_infeasible_exits_one(grid_file, capsys):
    assert main(["pf", str(grid_file), "--xi", "5.0"]) == 1
    assert "diverged" in capsys.readouterr().err


def test_pf_warm_start(grid_file, tmp_path, capsys):
    snap = tmp_path / "snap.csv"
    assert main(["pf", str(grid_file), "--voltages", str(snap)]) == 0
    assert main(["pf", str(grid_file), "--start", str(snap)]) == 0
    out = capsys.readouterr().out
    assert "converged in 0 iteration(s)" in out or "converged in 1 iteration(s)" in out


def test_bad_snapshot_exits_two(grid_file, tmp_path, capsys):
    snap = tmp_path / "snap.csv"
    assert main(["pf", str(grid_file), "--voltages", str(snap)]) == 0
    header, *body = snap.read_text().splitlines()
    for name, field in (("word", "bad"), ("nan", "nan")):
        bad = tmp_path / f"{name}.csv"
        row = body[1].split(",")
        row[2] = field
        bad.write_text("\n".join([header, body[0], ",".join(row)]) + "\n")
        capsys.readouterr()
        assert main(["pf", str(grid_file), "--start", str(bad)]) == 2, name
        assert main(["vsi", str(grid_file), "--voltages", str(bad)]) == 2, name
        assert "line 3" in capsys.readouterr().err, name


# -- Group 3 ---------------------------------------------------------------


def test_cpf_traces_fold(grid_file, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = main(["cpf", str(grid_file), "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "fold-detected" in stdout
    header, body = _rows(out)
    assert header[0] == "step"
    last_xi = float(body[-1][1])
    assert abs(last_xi - 2.0) < 1e-3
    # every body row carries the index and singular value columns
    res_rows = [r for r in body if r[2] == "2"]
    assert all(r[6] != "" and r[8] != "" for r in res_rows)


def test_cpf_no_vsi(grid_file, tmp_path):
    out = tmp_path / "trace.csv"
    rc = main(["cpf", str(grid_file), "--no-vsi", "--no-svd",
               "--max-steps", "3", "--out", str(out)])
    assert rc == 0
    _, body = _rows(out)
    assert all(r[6] == "" and r[8] == "" for r in body)


def test_cpf_infeasible_base(tmp_path, capsys):
    grid, slacks, resources = two_bus(p0_kw=-300.0)
    path = tmp_path / "heavy.grid"
    serialize_grid(grid, slacks, resources, path=path)
    assert main(["cpf", str(path)]) == 1
    assert "diverged" in capsys.readouterr().err


# -- Group 4 ---------------------------------------------------------------


def test_vsi_chain(grid_file, tmp_path, capsys):
    snap = tmp_path / "snap.csv"
    out = tmp_path / "vsi.csv"
    assert main(["pf", str(grid_file), "--voltages", str(snap)]) == 0
    assert main(["vsi", str(grid_file), "--voltages", str(snap),
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    header, body = _rows(out)
    assert header == ["node", "phase", "L_local", "L_global", "is_critical"]
    grid, slacks, resources = two_bus()
    system = PolyphaseSystem(grid, slacks, resources)
    op, _ = solve_power_flow(system, xi=1.0)
    expected = system.vsi_at(system.pack(op), 1.0).global_value
    assert float(body[0][3]) == pytest.approx(expected, rel=1e-6)
    assert f"L_global = {expected:.6f}" in stdout


def test_vsi_zero_loading(grid_file, tmp_path):
    snap = tmp_path / "snap.csv"
    out = tmp_path / "vsi.csv"
    assert main(["pf", str(grid_file), "--xi", "0.0", "--voltages", str(snap)]) == 0
    assert main(["vsi", str(grid_file), "--voltages", str(snap),
                 "--xi", "0.0", "--out", str(out)]) == 0
    _, body = _rows(out)
    assert float(body[0][2]) < 1e-6


def test_large_feeder_pf_then_vsi(synthfeeder, tmp_path, capsys):
    grid_path = tmp_path / "feeder.grid"
    grid_path.write_text(synthfeeder.feeder_text(0, 300))
    snap = tmp_path / "snap.csv"
    assert main(["pf", str(grid_path), "--voltages", str(snap)]) == 0
    assert "converged in" in capsys.readouterr().out
    _, body = _rows(snap)
    assert len(body) == 1812 // 2
    assert main(["vsi", str(grid_path), "--voltages", str(snap)]) == 0
    assert "L_global = " in capsys.readouterr().out


# -- Group 5 ---------------------------------------------------------------


def test_bench_emit(tmp_path):
    path = tmp_path / "bench.grid"
    assert main(["bench", "emit", str(path)]) == 0
    assert path.read_text() == benchmark.bundled_grid_text()
    grid, slacks, resources = parse_grid(path)
    assert len(grid.nodes) == 25
    ref_grid, ref_slacks, ref_resources = benchmark.build_benchmark()
    assert grid == ref_grid
    assert list(slacks) == list(ref_slacks)
    assert list(resources) == list(ref_resources)


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# -- Group 6 ---------------------------------------------------------------


@pytest.mark.parametrize(
    "command, flag, bad, good",
    [
        pytest.param("pf", "--xi", ("-1", "nan", "inf"), "0", id="pf-xi"),
        pytest.param("pf", "--eps", ("0", "-1", "nan"), "1e-12", id="pf-eps"),
        pytest.param("pf", "--max-iter", ("-1", "1.5"), "0", id="pf-max-iter"),
        pytest.param("cpf", "--xi-start", ("-1", "nan", "inf"), "0", id="cpf-xi-start"),
        pytest.param("cpf", "--sigma", ("0", "-0.05", "inf"), "1e-3", id="cpf-sigma"),
        pytest.param("cpf", "--eps", ("0", "nan"), "1e-12", id="cpf-eps"),
        pytest.param("cpf", "--max-steps", ("0", "x"), "1", id="cpf-max-steps"),
        pytest.param("vsi", "--xi", ("-1", "nan"), "0", id="vsi-xi"),
    ],
)
def test_bad_numeric_flags_exit_two(grid_file, capsys, command, flag, bad, good):
    extra = ["--voltages", "snap.csv"] if command == "vsi" else []
    for value in bad:
        with pytest.raises(SystemExit) as exc:
            main([command, str(grid_file), *extra, flag, value])
        assert exc.value.code == 2, value
        err = capsys.readouterr().err
        assert "usage:" in err and f"argument {flag}:" in err, value
    args = build_parser().parse_args([command, str(grid_file), *extra, flag, good])
    assert getattr(args, flag.lstrip("-").replace("-", "_")) == float(good)
