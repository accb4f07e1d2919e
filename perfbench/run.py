"""Benchmark of the coupled adapt -> Stokes -> advect loop.

Run from the root of a source checkout of this repository:

    python3 perfbench/run.py --workload slab_amg --seed 1 --seconds 30 --trace 0

Workloads: ``slab_amg``, ``slab_gmg`` (Section VI yielding-slab
convection under the AMG or the matrix-free GMG Stokes preconditioner)
and ``front_p2`` (the distributed AMR pipeline on two rank processes).
See perfbench/README.md for what each measures and how the layers map
onto the end-to-end metrics.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same seed untraced and then traced, checks that both passes count the
same work, and prints the per-layer metrics of the traced pass.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("slab_amg", "slab_gmg", "front_p2")
#: scratch space for checkpoints, inside the checkout
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
#: span files of traced runs
SPAN_DIR = os.path.join(ROOT, ".perfbench_spans")


def pin_threads() -> None:
    """One BLAS/OpenMP thread per process: front_p2 runs two rank
    processes on the 2-core host, and the slab runs use the same setting
    so no workload differs in threading.  Must run before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def fix_hash_seed() -> None:
    """Re-execute this interpreter with ``PYTHONHASHSEED=0`` unless it is
    already set so.  The order of string hashing changes how the program
    allocates: one round of ``slab_gmg`` on one seed peaked at 133 or
    140 MB from run to run with random hashing, and at 140.0-140.2 MB
    with the hash seed fixed.  The rank processes inherit the setting."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])


def stop_child_processes() -> None:
    """Stop the rank processes of the process backend and the
    multiprocessing resource tracker, and wait until each has ended.

    The tracker is started by the rank pools' shared memory and
    semaphores.  Left alone it outlives this process, since it ends only
    after it sees its pipe close.  The pools' semaphores are collected
    first, so that no finalizer at exit starts a new tracker."""
    procomm = sys.modules.get("repro.parallel.procomm")
    if procomm is not None:
        procomm.shutdown_pools()
    gc.collect()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="run length; sets the number of whole rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def rounds_for(seconds: float, round_seconds: float) -> int:
    return max(1, int(round(seconds / round_seconds)))


def declared_metrics(trace: bool) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    fix_hash_seed()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source at {os.path.join(ROOT, 'src', 'repro')}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    pin_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload == "front_p2":
        import front as workload
    else:
        import slab as workload

    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        out = workload.run(args.workload, args.seed,
                           rounds_for(args.seconds, workload.ROUND_SECONDS),
                           bool(args.trace), WORK_DIR, SPAN_DIR)
    finally:
        stop_child_processes()
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    ops = out["ops"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("operations:")
    for line in ops.report_lines():
        print(line)
    for line in out.get("notes", []):
        print(line)
    undeclared = set(out["metrics"]) - set(units)
    if undeclared or (not args.trace and set(out["metrics"]) != set(units)):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(out['metrics']) ^ set(units))}")
    # a layer the workload never calls reads 0
    metrics = {k: {"value": float(out["metrics"].get(k, 0)), "unit": u}
               for k, u in units.items()}
    print("metrics:")
    for k, v in metrics.items():
        print(f"  {k:<28} {v['value']:.6g} {v['unit']}")
    result = {
        "correct": ops.correct,
        "attempted": sum(ops.attempted.values()),
        "failed": sum(ops.failed.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
