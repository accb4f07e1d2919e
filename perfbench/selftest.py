"""Self-test of the benchmark's output checks at smoke size.

Each check must accept the program's real output and reject a damaged
copy of it: a perturbed velocity (direct-solve check), a dropped leaf
(forest check), a shifted front (centroid check) and a flipped
checkpoint byte (restore check).  A check that accepts both would be
vacuous.  Run from the root of a source checkout:

    python3 perfbench/selftest.py

Exits 0 when every check accepts the real output and rejects the
damaged one; prints one line per case.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SMOKE_LEVEL = 5
SMOKE_TARGET = 1500
SMOKE_CYCLES = 2


def slab_cases() -> list[tuple[str, bool, bool]]:
    import numpy as np

    import slab
    from repro.rhea import MantleConvection

    cfg = slab.make_config("amg")
    cfg.initial_level = 2
    sim = MantleConvection(cfg, T_init=slab.initial_temperature(slab.seeded_inputs(0)))
    sim.solve_stokes()
    args = (cfg, sim.mesh, sim.eta_elem, sim.T)
    good = slab.direct_velocity_error(*args, sim.u) <= slab.DIRECT_REL_TOL
    rng = np.random.default_rng(0)
    u_bad = sim.u * (1.0 + 0.05 * rng.standard_normal(sim.u.shape))
    bad = slab.direct_velocity_error(*args, u_bad) <= slab.DIRECT_REL_TOL
    return [("direct solve / perturbed velocity", good, bad)]


def front_cases(work: str) -> list[tuple[str, bool, bool]]:
    import numpy as np

    import front
    from common import Ops
    from repro.parallel import run_spmd

    params = front.seeded_inputs(0)

    results = run_spmd(2, smoke_and_save, params, work, backend="thread")
    live = front.concat_state([r[0] for r in results])
    t, path = results[0][1], results[0][2]
    cases = []

    keep = np.ones(len(live["x"]), dtype=bool)
    keep[len(keep) // 2] = False
    dropped = {k: v[keep] for k, v in live.items()}
    cases.append(("forest / dropped leaf",
                  not front.forest_problems(live, SMOKE_LEVEL),
                  not front.forest_problems(dropped, SMOKE_LEVEL)))

    def centroid_ok(p):
        ops = Ops()
        front.check_front(ops, live, p, t, max_level=SMOKE_LEVEL)
        return "check" not in ops.failed

    c = np.asarray(params["center"])
    shifted = {"center": tuple(c + np.array([0.0, 0.0, 0.2]))}
    cases.append(("front centroid / shifted front", centroid_ok(params), centroid_ok(shifted)))

    good = not front.restore_problems(path, live)
    shard = sorted(f for f in os.listdir(path) if f.endswith(".bin"))[0]
    with open(os.path.join(path, shard), "r+b") as fh:
        fh.seek(os.path.getsize(os.path.join(path, shard)) // 2)
        b = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([b[0] ^ 0x01]))
    cases.append(("restore / flipped checkpoint byte", good,
                  not front.restore_problems(path, live)))
    return cases


def smoke_and_save(comm, params, work):
    """Smoke run on the calling rank, then a checkpoint of its end state."""
    import front
    from repro.amr import ParAmrPipeline
    from repro.checkpoint import save_pipeline

    wl = front.make_workload(params)
    pipe = ParAmrPipeline(comm, workload=wl, coarse_level=2, max_level=SMOKE_LEVEL)
    for _ in range(2):
        pipe.adapt(SMOKE_TARGET)
        mesh = pipe.pm.mesh
        pipe.T = wl.initial(mesh.node_coords())[mesh.indep_nodes]
    for _ in range(SMOKE_CYCLES):
        pipe.adapt(SMOKE_TARGET)
        pipe.advance_time(front.T_SPAN, cfl=front.CFL)
    path = save_pipeline(pipe, work)
    return front.live_state(pipe), pipe.sim_time, path


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    work = tempfile.mkdtemp(prefix=".perfbench_selftest_", dir=ROOT)
    try:
        cases = slab_cases() + front_cases(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ok = True
    for name, accepts_real, accepts_damaged in cases:
        good = accepts_real and not accepts_damaged
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {name}: real output "
              f"{'accepted' if accepts_real else 'REJECTED'}, damaged output "
              f"{'ACCEPTED' if accepts_damaged else 'rejected'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
