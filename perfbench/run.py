"""polyvsi benchmark: one workload per process, one closed-loop caller.

    python3 perfbench/run.py --workload bundled-cpf --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src, nothing
is installed or built.  The workloads and their gates are in workloads.py.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (over the timed instances, at the reference speed of
workloads.REF_S); with --trace 1 it
holds the per-layer metrics of the traced instances, which alternate with
untraced ones so the tracing overhead is measured in the same run.  The line
before it records the environment and the workload's size.

OpenBLAS, OpenMP and MKL are pinned to BLAS_THREADS threads before numpy is
imported, so a run uses one process and no helper threads.  Output files go
to .perfbench_out/ under the working directory and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys

BLAS_THREADS = 1
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("bundled-cpf", "feeder-cpf", "feeder-snapshot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    return args


def environment(np) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "polyvsi", "__init__.py")):
        print("perfbench: run from the repository root (src/polyvsi not found)", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    sys.path[:0] = [src, HERE]
    import numpy as np

    import workloads as wl

    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        workload = wl.WORKLOADS[args.workload](args.seed, OUT_DIR)
        instances = wl.measure(workload, args.seconds, traced=bool(args.trace))
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    timed = [i for i in instances if i.size]  # completed, whatever the gate found
    failed = [i for i in instances if i.failures]
    for inst in failed[:5]:
        print(f"perfbench: failed instance: {'; '.join(inst.failures)}", file=sys.stderr)
    traced = [i for i in timed if i.layers is not None]
    untraced = [i for i in timed if i.layers is None]
    if not untraced or (args.trace and not traced):
        print("perfbench: no instance completed", file=sys.stderr)
        return 1

    run_s = [i.scaled(i.run_s) for i in untraced]
    tail_s, tail_pct = wl.tail(run_s)
    record = {
        "env": environment(np),
        "workload": args.workload,
        "seed": args.seed,
        "size": timed[-1].size,
        "instances": len(instances),
        "untraced_instances": len(untraced),
        "tail_percentile": tail_pct,
        "wall_run_s": wl.median(i.run_s for i in untraced),
        "reference_s": wl.median(i.ref_s for i in untraced),
    }
    print(json.dumps(record))

    if args.trace:
        layers = {
            name: wl.median(i.layers[name] for i in traced)
            for name in traced[0].layers
        }
        traced_run_s = wl.median(i.run_s for i in traced)
        layers["bench.traced_run_s"] = traced_run_s
        layers["bench.overhead_s"] = traced_run_s - record["wall_run_s"]
        metrics = {name: {"value": value, "unit": wl.unit_of(name)} for name, value in layers.items()}
    else:
        metrics = {
            "run_s": {"value": wl.median(run_s), "unit": "s"},
            "run_s_tail": {"value": tail_s, "unit": "s"},
            "setup_s": {"value": wl.median(i.scaled(i.setup_s) for i in untraced), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not failed,
        "attempted": len(instances),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
