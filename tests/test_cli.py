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

 Group 5 - bench
  12.  bench emit writes a parseable file identical to the bundled data
"""

import csv

import numpy as np
import pytest

from conftest import two_bus
from polyvsi import benchmark
from polyvsi.cli import main
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
