"""
Command line driver, run in-process through main(argv).

Proves:
 Group 1 - validate
   1.  Healthy file: exit 0, summary line
   2.  Parameter violations (an indefinite or a singular branch impedance):
       validate exits 1, one line per violation; pf, cpf and vsi exit 2
       when they build the system
   3.  Unparseable file / missing file: exit 2
   3a. Non-finite v0, reference power or ZIP coefficient in the bundled
       feeder: validate and cpf both exit 2
   3b. Zero tap, self-loop, non-positive or non-finite ratings and lengths,
       and a non-finite config entry: validate and cpf exit 2 naming the line
   3c. Models that parse but cannot form a system (no resource node, a node
       without nominal voltage): pf, cpf and vsi exit 2 with one line
   3d. A slack block whose zrows are zero or rank 1: validate, pf, cpf and
       vsi each exit 2 naming the block's line

 Group 2 - pf
   4.  Solves and writes --out / --voltages CSVs, exit 0
   5.  Infeasible loading exits 1
   6.  --start warm start from a snapshot converges immediately
   6a. A non-numeric or non-finite snapshot exits 2 in pf --start and vsi
   6b. A snapshot that repeats a (node, phase) row, or has a row for a
       node or phase the grid lacks, exits 2 in pf --start and vsi,
       naming the row's line

 Group 3 - cpf
   7.  Traces the two-bus fold to xi ~ 2, writes the trace CSV
   8.  --no-vsi leaves the index columns empty
   9.  Infeasible base case exits 1 with the usual "error: " line
   9a. Every CpfConfig field is set by a cpf flag

 Group 4 - vsi
  10.  Chains pf --voltages into vsi; index matches the library value
  11.  At xi = 0 the reported index is ~ 0
  11a. pf --voltages then vsi on a 302-node synthetic feeder both exit 0

 Group 5 - bench
  12.  bench emit writes a parseable file identical to the bundled data
  12a. cpf --out and pf --voltages, each run twice as a process over the
       bundled file in one directory, exit 0 without stderr, and leave
       only the grid and the two reports there

 Group 6 - numeric flags
  13.  Out-of-range, non-finite or non-numeric flag values exit 2 at
       parse time with a usage message; the boundary values parse

 Group 7 - mutated grid files and snapshots
  14.  (hypothesis) The bundled file with a token replaced by nan, inf,
       1e400 or x, a line dropped, duplicated or swapped, or the text
       truncated: validate, pf, cpf --max-steps 2 and vsi --voltages with
       the bundled snapshot return 0, 1 or 2 and never raise
  15.  (hypothesis) The bundled feeder's pf --voltages snapshot mutated
       the same way (a token may also become empty): vsi --voltages and
       pf --start --max-iter 3 return 0, 1 or 2 and never raise
"""

import csv
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyvsi_cases import two_bus
from polyvsi import benchmark, cli
from polyvsi.cli import build_parser, main
from polyvsi.continuation import CpfConfig, run_cpf
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
    for z, kind in (("-0.5 0.0", "indefinite-real-part"), ("0.0 0.0", "singular")):
        text = grid_file.read_text().replace("z 0.5 0.0\n", f"z {z}\n", 1)
        bad = tmp_path / "bad.grid"
        bad.write_text(text)
        assert main(["validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert f"branch 1-2 impedance: {kind}" in out
        assert "violation(s)" in out
        _system_commands_exit_two(bad, tmp_path, capsys, f"1 parameter violation(s): branch 1-2 impedance: {kind}")


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


@pytest.mark.parametrize("z_te", ["zero", "rank-1"])
def test_singular_thevenin_exits_two(tmp_path, capsys, z_te):
    text = benchmark.bundled_grid_text()
    table = "slacks\n1 sc 100.0 0.1\nend\n"
    assert text.count(table) == 1
    v_te = benchmark.build_benchmark()[1][0].v_te
    pair = "0.0 0.0" if z_te == "zero" else "1.0 1.0"
    block = ("slack 1\n" + f"zrow {' '.join([pair] * 3)}\n" * 3
             + f"vrow {' '.join(repr(float(x)) for x in v_te.view(float))}\nend\n")
    lineno = text[: text.index(table)].count("\n") + 1
    path = tmp_path / "slack.grid"
    path.write_text(text.replace(table, block))
    snap = tmp_path / "snap.csv"
    for argv in (["validate"], ["pf"], ["cpf"], ["vsi", "--voltages", str(snap)]):
        capsys.readouterr()
        assert main([argv[0], str(path), *argv[1:]]) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {lineno}: z_te ") and "singular" in err, (argv[0], err)


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


def _snapshot_with(grid_file, tmp_path, extra_row):
    """pf's snapshot of grid_file with extra_row appended as its line 4."""
    snap = tmp_path / "snap.csv"
    assert main(["pf", str(grid_file), "--voltages", str(snap)]) == 0
    text = snap.read_text()
    bad = tmp_path / "bad.csv"
    bad.write_text(text + extra_row(text.splitlines()[2]) + "\n")
    return bad


def _assert_line_4_exits_two(grid_file, bad, capsys, message):
    capsys.readouterr()
    assert main(["pf", str(grid_file), "--start", str(bad)]) == 2
    assert main(["vsi", str(grid_file), "--voltages", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.count("line 4") == 2 and err.count(message) == 2, err


def test_repeated_snapshot_row_exits_two(grid_file, tmp_path, capsys):
    bad = _snapshot_with(grid_file, tmp_path, lambda row: row)
    _assert_line_4_exits_two(grid_file, bad, capsys, "repeats line 3")


@pytest.mark.parametrize("pair", ["9,1", "2,2"], ids=["node", "phase"])
def test_snapshot_row_off_the_grid_exits_two(grid_file, tmp_path, capsys, pair):
    bad = _snapshot_with(grid_file, tmp_path, lambda row: pair + "," + row.split(",", 2)[2])
    _assert_line_4_exits_two(grid_file, bad, capsys, f"no node {pair.replace(',', ' phase ')}")


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
    assert capsys.readouterr().err.startswith("error: base case at xi = 1.0 diverged")


def test_cpf_flags_set_every_config_field(grid_file, monkeypatch):
    # A CpfConfig field that no flag sets is a library knob without a caller.
    seen = []

    def capture(system, config):
        seen.append(config)
        return run_cpf(system, replace(config, max_steps=1))

    monkeypatch.setattr(cli, "run_cpf", capture)
    assert main(["cpf", str(grid_file), "--sigma", "0.01", "--eps", "1e-9",
                 "--max-steps", "7", "--xi-start", "0.5", "--no-vsi", "--no-svd"]) == 0
    config, = seen
    default = CpfConfig()
    same = [f.name for f in fields(CpfConfig) if getattr(config, f.name) == getattr(default, f.name)]
    assert same == []


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


def test_cli_processes_exit_cleanly(tmp_path):
    grid = tmp_path / "bench.grid"
    assert main(["bench", "emit", str(grid)]) == 0
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    runs = [["cpf", grid.name, "--out", "T"]] * 2 + [["pf", grid.name, "--voltages", "S"]] * 2
    for argv in runs:
        done = subprocess.run([sys.executable, "-m", "polyvsi.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["S", "T", "bench.grid"]


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


# -- Group 7 ---------------------------------------------------------------


def _mutated(data, lines, sep, values) -> str:
    """The text of lines after one mutation drawn from data: a token (split
    on sep, whitespace when None) replaced by one of values, a line dropped,
    duplicated or swapped with another, or the whole text truncated."""
    lines = list(lines)
    kind = data.draw(st.sampled_from(["token", "drop", "duplicate", "swap", "truncate"]))
    i = data.draw(st.integers(0, len(lines) - 1))
    if kind == "token":
        tokens = lines[i].split(sep) or [""]
        tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(st.sampled_from(values))
        lines[i] = (sep or " ").join(tokens)
    elif kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    text = "\n".join(lines) + "\n"
    if kind == "truncate":
        text = text[: data.draw(st.integers(0, len(text)))]
    return text


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_grid_files_exit_cleanly(data, bundled_snapshot, tmp_path, capsys):
    path, snapshot = tmp_path / "mutated.grid", tmp_path / "snap.csv"
    path.write_text(_mutated(data, benchmark.bundled_grid_text().splitlines(), None,
                             ["nan", "inf", "1e400", "x"]))
    snapshot.write_text("\n".join(bundled_snapshot[1]) + "\n")
    for command, *flags in (["validate"], ["pf"], ["cpf", "--max-steps", "2"],
                            ["vsi", "--voltages", str(snapshot)]):
        assert main([command, str(path), *flags]) in (0, 1, 2), command
    capsys.readouterr()


@pytest.fixture(scope="module")
def bundled_snapshot(tmp_path_factory):
    """The bundled feeder's grid file and the lines of its pf --voltages snapshot."""
    root = tmp_path_factory.mktemp("bundled")
    grid, snap = root / "bundled.grid", root / "snap.csv"
    grid.write_text(benchmark.bundled_grid_text())
    assert main(["pf", str(grid), "--voltages", str(snap)]) == 0
    return grid, snap.read_text().splitlines()


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_snapshots_exit_cleanly(data, bundled_snapshot, tmp_path, capsys):
    grid, lines = bundled_snapshot
    path = tmp_path / "mutated.csv"
    path.write_text(_mutated(data, lines, ",", ["nan", "inf", "1e400", "x", ""]))
    for command, *flags in (["vsi", "--voltages"], ["pf", "--max-iter", "3", "--start"]):
        assert main([command, str(grid), *flags, str(path)]) in (0, 1, 2), command
    capsys.readouterr()
