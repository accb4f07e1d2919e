"""Slab workloads: the Section VI yielding-slab convection run.

One process runs a closed loop of cycles through
``MantleConvection.run(1)``: adapt the mesh, solve Stokes (Picard passes,
each a MINRES solve under the lagged multigrid preconditioner), then
advect temperature ``adapt_every`` steps.  ``slab_amg`` and ``slab_gmg``
get the same inputs and differ only in ``stokes_preconditioner``.

A round is the fixed set of operations every run repeats whole: one
set-up, ``CYCLES`` cycles, the ``rest_state`` solve and the checks, so the
share of failed operations is the same in every run.  Rounds repeat the
same work, which lets each cycle count with its least disturbed repeat.
"""

from __future__ import annotations

import gc
import os

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from common import Ops, cycle_metrics, host_factor, median, now, peak_rss_mb, probe_host
from spans import Probe, Recorder, layer_times

#: cycles per round; a round takes about 7.5 s on the 2-core reference
#: host.  Later cycles are left out: from the ninth cycle on, the GMG
#: iteration counts of nearby inputs part by up to 25%, so they would
#: measure the seed rather than the program.
CYCLES = 5
ROUND_SECONDS = 7.5
INITIAL_ADAPT_ROUNDS = 2
TARGET_ELEMENTS = 1400

#: seeded input ranges (fractions of the box length / height): small
#: moves, because the yielding flow amplifies them into different work
SLAB_X = (0.498, 0.502)
PLUME_X = (0.248, 0.252)
PLUME_Z = (0.148, 0.152)

#: velocity of the program within this relative distance of the direct
#: solve (MINRES stops at stokes_tol = 1e-5; today 1.3e-3 AMG, 1.7e-3 GMG)
DIRECT_REL_TOL = 1e-2
#: normal velocity on a free-slip face, relative to max |u|
FREE_SLIP_TOL = 1e-12
#: SUPG over- and undershoot allowed around [0, 1]
T_OVERSHOOT = 0.1
#: the exact flow of T = 1 - z is zero; a solve at solver tolerance keeps
#: vrms below 1e-3 of the first-cycle vrms of these runs (about 410)
REST_VRMS_MAX = 0.41
REST_FAULT = ("Stokes load uses the full buoyancy Ra*T; its hydrostatic part "
              "is not balanced by the Q1 pressure with Dohrmann-Bochev "
              "stabilization and drives spurious flow")


def seeded_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "slab_x": float(rng.uniform(*SLAB_X)),
        "plume_x": float(rng.uniform(*PLUME_X)),
        "plume_z": float(rng.uniform(*PLUME_Z)),
    }


def initial_temperature(params: dict):
    """Conductive profile with a cold slab hanging from the top and a hot
    plume near the bottom; depends on x and z only."""
    sx, px, pz = params["slab_x"], params["plume_x"], params["plume_z"]

    def field(coords: np.ndarray) -> np.ndarray:
        x, z = coords[:, 0] / 8.0, coords[:, 2]
        slab = -0.45 * np.exp(-(((x - sx) / 0.06) ** 2)) * (z > 0.55)
        plume = 0.35 * np.exp(-(((x - px) / 0.1) ** 2 + ((z - pz) / 0.15) ** 2))
        return np.clip(1.0 - z + slab + plume, 0.0, 1.0)

    return field


def make_config(preconditioner: str):
    from repro.rhea import RheaConfig, YieldingViscosity

    return RheaConfig(
        Ra=1e5,
        domain=(8.0, 4.0, 1.0),
        viscosity=YieldingViscosity(sigma_y=500.0),
        initial_level=3,
        min_level=2,
        max_level=6,
        adapt_every=4,
        picard_iterations=2,
        stokes_tol=1e-5,
        target_elements=TARGET_ELEMENTS,
        viscosity_weight=0.8,
        yield_weight=1.5,
        stokes_preconditioner=preconditioner,
    )


# -- probes and spans ---------------------------------------------------------


def install_probes(probe: Probe) -> None:
    """Counting hooks: every MINRES result, operator and preconditioner
    applies, Picard passes, balance additions and advection steps."""
    import repro.rhea.convection as conv
    from repro.fem import AdvectionDiffusion

    def counted(fn, key):
        def call(x):
            probe.add(key)
            return fn(x)
        return call

    def minres_probe(fn):
        def probed(A, b, M=None, **kw):
            M = counted(M, "prec_applies") if M is not None else None
            res = fn(counted(A, "stokes_applies"), b, M=M, **kw)
            probe.add("minres_calls")
            probe.add("minres_iterations", res.iterations)
            probe.add("minres_unconverged", not res.converged)
            return res
        return probed

    def solve_probe(fn):
        def probed(self):
            stats = fn(self)
            probe.add("solves")
            probe.add("picard_passes", stats["picard_iterations"])
            return stats
        return probed

    def adapt_probe(fn):
        def probed(*args, **kw):
            out = fn(*args, **kw)
            probe.add("balance_added", out[2].n_balance_added)
            return out
        return probed

    def advance_probe(fn):
        def probed(self, T, dt, n_steps):
            probe.add("advection_steps", n_steps)
            return fn(self, T, dt, n_steps)
        return probed

    probe.patch(conv, "minres", minres_probe)
    probe.patch(conv.MantleConvection, "solve_stokes", solve_probe)
    probe.patch(conv, "adapt_mesh", adapt_probe)
    probe.patch(AdvectionDiffusion, "advance", advance_probe)


def install_spans(rec: Recorder, viscosity_law) -> None:
    import repro.amr.driver as drv
    import repro.rhea.convection as conv
    from repro.fem import AdvectionDiffusion, StokesSystem
    from repro.octree import LinearOctree
    from repro.solvers import (
        GMGStokesPreconditioner,
        LaggedStokesPreconditioner,
        StokesBlockPreconditioner,
    )

    rec.wrap(conv.MantleConvection, "adapt", "rhea.adapt")
    rec.wrap(conv.MantleConvection, "solve_stokes", "rhea.solve_stokes")
    rec.wrap(conv.MantleConvection, "advance_temperature", "rhea.advance")
    rec.wrap(conv, "adapt_mesh", "amr.adapt")
    rec.wrap(drv, "mark_elements", "amr.mark")
    rec.wrap(LinearOctree, "coarsen", "octree.coarsen", under="amr.adapt")
    rec.wrap(LinearOctree, "refine", "octree.refine", under="amr.adapt")
    rec.wrap(drv, "balance", "octree.balance")
    rec.wrap(drv, "extract_mesh", "mesh.extract")
    rec.wrap(drv, "interpolate_fields", "mesh.interpolate")
    rec.wrap(conv, "strain_rate_invariant", "rhea.viscosity", skip_inside="rhea.viscosity")
    rec.wrap(type(viscosity_law), "__call__", "rhea.viscosity", skip_inside="rhea.viscosity")
    rec.wrap(StokesSystem, "__init__", "fem.stokes_setup")
    rec.wrap(StokesSystem, "matvec", "fem.stokes_apply")
    rec.wrap(LaggedStokesPreconditioner, "get", "solvers.prec_setup")
    rec.wrap(StokesBlockPreconditioner, "apply", "solvers.prec_apply")
    rec.wrap(GMGStokesPreconditioner, "apply", "solvers.prec_apply")
    rec.wrap(conv, "minres", "solvers.minres")
    rec.wrap(AdvectionDiffusion, "__init__", "fem.advection_setup")
    rec.wrap(AdvectionDiffusion, "advance", "fem.advection")


# -- checks made outside the program ------------------------------------------


def direct_velocity_error(cfg, mesh, eta, T, u) -> float:
    """Relative velocity error of a solve against a direct sparse solve of
    the same assembled saddle system.  Pressure is fixed by pinning its
    last dof to zero; the velocity does not depend on the pressure
    constant, and a pinned dof keeps the factorization sparse where a
    mean constraint would add a dense row."""
    from repro.fem import StokesSystem

    bf = np.zeros((mesh.n_nodes, 3))
    bf[:, 2] = cfg.Ra * T
    st = StokesSystem(mesh, eta, bf, bc=cfg.velocity_bc)
    K = sp.bmat([[st.A, st.B.T], [st.B, -st.C]], format="csc")
    keep = np.arange(st.n_dof - 1)
    x = spla.spsolve(K[keep][:, keep].tocsc(), st.rhs()[keep])
    u_direct = x[: st.n_u]
    u_prog = np.concatenate([u[mesh.indep_nodes, a] for a in range(3)])
    return float(np.linalg.norm(u_direct - u_prog) / np.linalg.norm(u_direct))


def free_slip_violation(mesh, domain, u) -> float:
    """Largest normal velocity on the box faces over max |u|."""
    c = mesh.node_coords()
    worst = 0.0
    for a in range(3):
        on_face = np.isclose(c[:, a], 0.0) | np.isclose(c[:, a], domain[a])
        worst = max(worst, float(np.abs(u[on_face, a]).max(initial=0.0)))
    return worst / max(float(np.abs(u).max()), 1e-300)


def temperature_in_range(T) -> tuple[bool, str]:
    lo, hi = float(T.min()), float(T.max())
    return (-T_OVERSHOOT <= lo and hi <= 1.0 + T_OVERSHOOT), f"T in [{lo:.4f}, {hi:.4f}]"


def rest_state_vrms(cfg) -> float:
    """vrms of the Stokes solve for T = 1 - z on the initial uniform
    mesh; the exact flow is zero."""
    from repro.rhea import MantleConvection

    Lz = cfg.domain[2]
    sim = MantleConvection(cfg, T_init=lambda c: 1.0 - c[:, 2] / Lz)
    sim.solve_stokes()
    return sim.vrms()


# -- one pass -------------------------------------------------------------------


def _check_solves(ops: Ops, probe: Probe, before: dict) -> None:
    """One convergence check per Stokes solve: every MINRES call of the
    solve converged."""
    bad = probe.counts.get("minres_unconverged", 0) - before.get("minres_unconverged", 0)
    calls = probe.counts.get("minres_calls", 0) - before.get("minres_calls", 0)
    ops.record("solve", bad == 0, f"{bad} of {calls} MINRES calls did not converge")
    ops.check("minres_converged", bad == 0, f"{bad} of {calls} did not converge")


def run_pass(preconditioner: str, seed: int, rounds: int, rec: Recorder | None) -> dict:
    """Run ``rounds`` rounds; with ``rec`` the timed cycles are traced.

    Peak RSS is read after the first round, the memory of one
    simulation.  Later rounds repeat the same work in the same process,
    and what they add depends on heap reuse that changes from run to run
    of the same seed (one round read 223-229 MB on ``slab_amg``, four
    rounds 267-320 MB).  The cycles of all rounds run before any check,
    so the direct solve and the ``rest_state`` solves come later still."""
    from repro.fem import assembly_counts
    from repro.rhea import MantleConvection

    cfg = make_config(preconditioner)
    field = initial_temperature(seeded_inputs(seed))
    ops = Ops()
    probe = Probe()
    install_probes(probe)
    out = {"setup": [], "cycles": [], "counts": {}, "direct_rel_err": [], "probe": []}
    counts = out["counts"]
    colds = []

    def tally(key, n):
        counts[key] = counts.get(key, 0) + int(n)

    try:
        for _ in range(rounds):
            before = dict(probe.counts)
            out["probe"].append(probe_host())
            t0 = now()
            sim = MantleConvection(cfg, T_init=field)
            sim.adapt_initial(rounds=INITIAL_ADAPT_ROUNDS, target=TARGET_ELEMENTS)
            sim.solve_stokes()
            out["setup"].append(now() - t0)
            ops.record("setup", True)
            _check_solves(ops, probe, before)
            colds.append((sim.mesh, sim.eta_elem.copy(), sim.T.copy(), sim.u.copy()))

            if rec is not None:
                install_spans(rec, cfg.viscosity)
            start = dict(probe.counts)
            stats0 = sim.cache_stats()
            asm0 = sum(assembly_counts().values())
            times = []
            try:
                for _ in range(CYCLES):
                    before = dict(probe.counts)
                    out["probe"].append(probe_host())
                    span = rec.open("cycle") if rec is not None else None
                    t0 = now()
                    sim.run(1)
                    times.append(now() - t0)
                    if span is not None:
                        rec.close(span)
                    ops.record("cycle", True)
                    _check_solves(ops, probe, before)
                    c = sim.cache_stats()
                    tally("opcache_hits", c["cache_hits"])
                    tally("opcache_misses", c["cache_misses"])
                    tally("elements", sim.mesh.n_elements)
                    v = free_slip_violation(sim.mesh, cfg.domain, sim.u)
                    ops.check("free_slip", v <= FREE_SLIP_TOL, f"normal velocity {v:.2e} of max |u|")
                    ok, what = temperature_in_range(sim.T)
                    ops.check("temperature_range", ok, what)
            finally:
                if rec is not None:
                    rec.restore()
            out["cycles"].append(times)
            stats1 = sim.cache_stats()
            tally("prec_builds", stats1["prec_builds"] - stats0["prec_builds"])
            tally("prec_reuses", stats1["prec_reuses"] - stats0["prec_reuses"])
            tally("assemblies", sum(assembly_counts().values()) - asm0)
            for k, v in probe.counts.items():
                tally(k, v - start.get(k, 0))
            sim = None
            gc.collect()
            out.setdefault("rss", peak_rss_mb())

        for cold in colds:
            vrms = rest_state_vrms(cfg)
            ops.known_fault("rest_state", vrms <= REST_VRMS_MAX, REST_FAULT,
                            f"vrms {vrms:.3g} at rest (limit {REST_VRMS_MAX})")
            err = direct_velocity_error(cfg, *cold)
            ops.check("direct_solve", err <= DIRECT_REL_TOL,
                      f"velocity differs from the direct solve by {err:.2e}")
            out["direct_rel_err"].append(err)
    finally:
        probe.restore()
    out["ops"] = ops
    return out


def end_to_end(res: dict) -> dict:
    f = host_factor(res["probe"])
    return {**cycle_metrics(res["cycles"], f),
            "setup_s": median(res["setup"]) * f,
            "peak_rss_mb": res["rss"]}


def per_layer(res: dict, rec: Recorder) -> dict:
    """Per-layer metrics of a traced pass (totals over its timed cycles)."""
    lt = layer_times(rec.spans)
    tot, slf, calls = lt["total"], lt["self"], lt["calls"]
    c = res["counts"]
    n_cycles = sum(len(r) for r in res["cycles"])
    iters = c.get("minres_iterations", 0)
    m = {
        "rhea.picard_passes": c.get("picard_passes", 0) / n_cycles,
        "rhea.viscosity_s": tot.get("rhea.viscosity", 0.0),
        "rhea.adapt_self_s": slf.get("rhea.adapt", 0.0),
        "rhea.stokes_self_s": slf.get("rhea.solve_stokes", 0.0),
        "rhea.advance_self_s": slf.get("rhea.advance", 0.0),
        "amr.adapt_s": slf.get("amr.adapt", 0.0),
        "amr.mark_s": slf.get("amr.mark", 0.0),
        "octree.coarsen_s": slf.get("octree.coarsen", 0.0),
        "octree.refine_s": slf.get("octree.refine", 0.0),
        "octree.balance_s": slf.get("octree.balance", 0.0),
        "octree.balance_added": c.get("balance_added", 0),
        "mesh.extract_s": slf.get("mesh.extract", 0.0),
        "mesh.interpolate_s": slf.get("mesh.interpolate", 0.0),
        "mesh.elements": c.get("elements", 0),
        "mesh.opcache_hits": c.get("opcache_hits", 0),
        "mesh.opcache_misses": c.get("opcache_misses", 0),
        "fem.stokes_setup_s": slf.get("fem.stokes_setup", 0.0),
        "fem.stokes_apply_s": slf.get("fem.stokes_apply", 0.0),
        "fem.stokes_applies": calls.get("fem.stokes_apply", 0),
        "fem.assemblies": c.get("assemblies", 0),
        "fem.advection_setup_s": slf.get("fem.advection_setup", 0.0),
        "fem.advection_s": slf.get("fem.advection", 0.0),
        "fem.advection_steps": c.get("advection_steps", 0),
        "solvers.prec_setup_s": slf.get("solvers.prec_setup", 0.0),
        "solvers.prec_builds": c.get("prec_builds", 0),
        "solvers.prec_reuses": c.get("prec_reuses", 0),
        "solvers.prec_apply_s": slf.get("solvers.prec_apply", 0.0),
        "solvers.prec_applies": calls.get("solvers.prec_apply", 0),
        "solvers.minres_iterations": iters,
        "solvers.minres_self_s": slf.get("solvers.minres", 0.0),
        "solvers.iteration_ms": 1e3 * tot.get("solvers.minres", 0.0) / max(iters, 1),
        "trace.uncovered_s": lt["uncovered"],
    }
    return m


def count_mismatches(untraced: dict, traced: dict, rec: Recorder) -> list[str]:
    """Counts of the traced pass must equal the untraced pass exactly; the
    span call counts must equal the untraced probe counts."""
    a, b = untraced["counts"], traced["counts"]
    bad = [f"{k}: untraced {a.get(k)} traced {b.get(k)}"
           for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]
    calls = layer_times(rec.spans)["calls"]
    for span, key in (("fem.stokes_apply", "stokes_applies"),
                      ("solvers.prec_apply", "prec_applies"),
                      ("solvers.minres", "minres_calls")):
        if calls.get(span, 0) != a.get(key, 0):
            bad.append(f"{span} spans {calls.get(span, 0)} != untraced {key} {a.get(key, 0)}")
    return bad


def run(workload: str, seed: int, rounds: int, trace: bool, work_dir: str,
        span_dir: str) -> dict:
    preconditioner = workload.split("_", 1)[1]
    res = run_pass(preconditioner, seed, rounds, None)
    ops = res["ops"]
    c = res["counts"]
    notes = [f"  direct-solve velocity error {max(res['direct_rel_err']):.2e}",
             f"  work: {c['elements']} elements over the cycles, "
             f"{c['minres_iterations']} MINRES iterations",
             f"  host speed factor {host_factor(res['probe']):.3f}; wall-clock time "
             f"to solution {cycle_metrics(res['cycles'], 1.0)['time_to_solution_s']:.4f} s"]
    if not trace:
        return {"ops": ops, "metrics": end_to_end(res), "notes": notes}

    rec = Recorder(f"{workload}-seed{seed}-pid{os.getpid()}")
    traced = run_pass(preconditioner, seed, rounds, rec)
    ops.merge(traced["ops"])
    bad = count_mismatches(res, traced, rec)
    ops.require("trace_counts_equal", not bad, "; ".join(bad))
    metrics = per_layer(traced, rec)
    metrics["trace.overhead_s"] = (end_to_end(traced)["time_to_solution_s"]
                                   - end_to_end(res)["time_to_solution_s"])
    os.makedirs(span_dir, exist_ok=True)
    rec.dump(os.path.join(span_dir, f"{workload}-seed{seed}.json"),
             workload=workload, seed=seed)
    return {"ops": ops, "metrics": metrics, "notes": notes}

