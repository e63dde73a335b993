"""polyvsi command line: validate, pf, cpf, vsi, bench."""

from __future__ import annotations

import argparse
import math
import sys

from . import benchmark, reporting
from .continuation import CpfConfig, run_cpf
from .errors import IncompleteModel, ParseError, PolyvsiError, ValidationError
from .gridfile import parse_grid, write_text_atomic
from .grid import validate_parameters
from .powerflow import PolyphaseSystem, mismatch, solve_power_flow


def _load_system(path) -> PolyphaseSystem:
    grid, slacks, resources = parse_grid(path)
    return PolyphaseSystem(grid, slacks, resources)


def cmd_validate(args) -> int:
    grid, slacks, _ = parse_grid(args.grid)
    violations = validate_parameters(grid)
    for v in violations:
        print(v)
    if violations:
        print(f"{len(violations)} violation(s)")
        return 1
    print(f"ok: {len(grid.nodes)} nodes, {len(grid.branches)} branches, "
          f"{len(slacks)} slack(s)")
    return 0


def cmd_pf(args) -> int:
    system = _load_system(args.grid)
    if args.start is not None:
        values = reporting.read_snapshot_csv(args.start)
        x0 = system.pack(reporting.snapshot_to_point(values, system, args.xi))
    else:
        x0 = None
    try:
        op, res = solve_power_flow(system, xi=args.xi, x0=x0, eps=args.eps, max_iter=args.max_iter)
    except PolyvsiError as exc:
        print(f"power flow diverged at xi = {args.xi}: {exc}", file=sys.stderr)
        return 1
    mis = mismatch(system, op)
    print(f"converged in {res.iterations} iteration(s), max mismatch "
          f"{mis.norm_inf:.3e} VA at xi = {args.xi}")
    if args.out:
        reporting.write_pf_csv(args.out, system, op, mis)
        print(f"wrote {args.out}")
    if args.voltages:
        reporting.write_snapshot_csv(args.voltages, op)
        print(f"wrote {args.voltages}")
    return 0


def cmd_cpf(args) -> int:
    system = _load_system(args.grid)
    config = CpfConfig(
        sigma=args.sigma,
        eps=args.eps,
        max_steps=args.max_steps,
        record_vsi=not args.no_vsi,
        record_svd=not args.no_svd,
        xi_start=args.xi_start,
    )
    trace = run_cpf(system, config)
    final = trace.final
    print(f"xi_max = {trace.xi_max:.6f} ({trace.termination}, {len(trace.samples)} samples)")
    if final.vsi is not None:
        node, phase = final.vsi.critical
        print(f"L_global = {final.vsi.global_value:.4f} at node {node} phase {phase}")
    if args.out:
        reporting.write_trace_csv(args.out, trace)
        print(f"wrote {args.out}")
    return 0


def cmd_vsi(args) -> int:
    system = _load_system(args.grid)
    values = reporting.read_snapshot_csv(args.voltages)
    op = reporting.snapshot_to_point(values, system, args.xi)
    result = system.vsi_at(system.pack(op), args.xi)
    node, phase = result.critical
    print(f"L_global = {result.global_value:.6f} at node {node} phase {phase} (xi = {args.xi})")
    if args.out:
        reporting.write_vsi_csv(args.out, result)
        print(f"wrote {args.out}")
    return 0


def cmd_bench_emit(args) -> int:
    write_text_atomic(args.path, benchmark.bundled_grid_text())
    print(f"wrote {args.path}")
    return 0


def _flag(convert, ok, what: str):
    """argparse type: convert the text and require ok(value), else exit 2."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    return parse


_LOADING = _flag(float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
_POSITIVE = _flag(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")


def _at_least(low: int):
    return _flag(int, lambda v: v >= low, f"an integer >= {low}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyvsi",
        description="Voltage-stability index and continuation power flow for polyphase grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a grid file against the modeling hypotheses")
    p.add_argument("grid")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("pf", help="solve the power flow at fixed loading")
    p.add_argument("grid")
    p.add_argument("--xi", type=_LOADING, default=1.0, help="loading factor (default 1.0)")
    p.add_argument("--out", help="write voltages/currents/mismatch CSV")
    p.add_argument("--voltages", help="write a voltage snapshot CSV")
    p.add_argument("--start", help="initial voltages from a snapshot CSV")
    p.add_argument("--eps", type=_POSITIVE, default=1e-8)
    p.add_argument("--max-iter", type=_at_least(0), default=30)
    p.set_defaults(fn=cmd_pf)

    p = sub.add_parser("cpf", help="trace the loading path up to the fold")
    p.add_argument("grid")
    p.add_argument("--sigma", type=_POSITIVE, default=0.05, help="arclength step (default 0.05)")
    p.add_argument("--eps", type=_POSITIVE, default=1e-8)
    p.add_argument("--max-steps", type=_at_least(1), default=500)
    p.add_argument("--xi-start", type=_LOADING, default=1.0)
    p.add_argument("--out", help="write the trace CSV")
    p.add_argument("--no-vsi", action="store_true", help="skip index evaluation per sample")
    p.add_argument("--no-svd", action="store_true",
                   help="skip Jacobian singular values (exact at the base and final "
                        "samples, sv_min alone to within 1e-6 relative in between)")
    p.set_defaults(fn=cmd_cpf)

    p = sub.add_parser("vsi", help="evaluate the stability index at a voltage snapshot")
    p.add_argument("grid")
    p.add_argument("--voltages", required=True, help="snapshot CSV (node, phase, V_mag_V, V_ang_rad)")
    p.add_argument("--xi", type=_LOADING, default=1.0,
                   help="loading factor of the snapshot (default 1.0)")
    p.add_argument("--out", help="write the per-node index CSV")
    p.set_defaults(fn=cmd_vsi)

    p = sub.add_parser("bench", help="bundled benchmark utilities")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    pe = bench_sub.add_parser("emit", help="write the bundled benchmark grid file")
    pe.add_argument("path")
    pe.set_defaults(fn=cmd_bench_emit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, UnicodeDecodeError, ParseError, ValidationError, IncompleteModel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PolyvsiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
