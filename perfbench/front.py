"""front_p2: the distributed AMR pipeline on two rank processes.

``ParAmrPipeline`` advects a thin spherical front by a rigid rotation and
re-adapts the forest every cycle (mark, coarsen, refine, balance,
partition, extract, interpolate, transfer), saving a checkpoint every
``CHECKPOINT_EVERY`` cycles.  Stokes never runs.  Ranks are real
processes of the ``process`` SPMD backend, one BLAS thread each.

A round is one set-up (which starts fresh rank processes), ``CYCLES``
cycles and the checks.  Rounds repeat the same work, which lets each
cycle count with its least disturbed repeat.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

from common import Ops, cycle_metrics, host_factor, median, now, peak_rss_mb, probe_host
from spans import Recorder, layer_times

NRANKS = 2
CYCLES = 8
ROUND_SECONDS = 6.0  # about one round on the 2-core reference host
CHECKPOINT_EVERY = 4
INITIAL_ADAPT_ROUNDS = 3
TARGET_ELEMENTS = 22000
COARSE_LEVEL = 3
MIN_LEVEL = 1
MAX_LEVEL = 7
T_SPAN = 0.05  # simulated time per cycle
CFL = 0.5
OMEGA = 1.0  # rotation rate about the vertical axis through the box centre
FRONT_RADIUS = 0.25
FRONT_WIDTH = 0.05
KAPPA = 1e-6

#: the seed places the front centre at one of four positions, a quarter
#: turn apart about the rotation axis, at AXIS_DISTANCE from it.  The
#: four are symmetric images under the box's own symmetry, so they ask
#: for the same work; a move off them as small as 0.05 rad changed the
#: element count by up to 6%.
AXIS_DISTANCE = 0.15

#: centroid within this many finest cells of the rotated centre
CENTROID_CELLS = 4.0
#: mass within this relative distance of the exact mass
MASS_REL_TOL = 0.02

COMM_METHODS = ("send", "recv", "sendrecv", "barrier", "allgather", "gather",
                "bcast", "allreduce", "exscan", "alltoall", "alltoallv_arrays",
                "allgather_concat", "global_offsets")


def seeded_inputs(seed: int) -> dict:
    k = int(np.random.default_rng(seed).integers(4))
    offset = AXIS_DISTANCE * np.array([(0, -1), (1, 0), (0, 1), (-1, 0)][k])
    return {"center": (0.5 + float(offset[0]), 0.5 + float(offset[1]), 0.5)}


def make_workload(params: dict):
    from repro.amr import RotatingFrontWorkload, rotating_velocity

    return RotatingFrontWorkload(
        kappa=KAPPA, front_radius=FRONT_RADIUS, front_width=FRONT_WIDTH,
        front_center=tuple(params["center"]),
        velocity=rotating_velocity(center=(0.5, 0.5, 0.5), scale=OMEGA),
    )


def install_spans(rec: Recorder, comm) -> None:
    import repro.amr.pardriver as pd
    from repro.checkpoint import Checkpointer
    from repro.fem import ParAdvectionDiffusion

    rec.wrap(pd.ParAmrPipeline, "adapt", "amr.adapt")
    rec.wrap(pd.ParAmrPipeline, "advance_time", "amr.advance")
    rec.wrap(pd, "mark_elements", "amr.mark")
    rec.wrap(pd, "coarsen_tree", "octree.coarsen")
    rec.wrap(pd, "refine_tree", "octree.refine")
    rec.wrap(pd, "balance_tree", "octree.balance")
    rec.wrap(pd, "partition_tree", "octree.partition")
    rec.wrap(pd, "extract_parmesh", "mesh.extract")
    rec.wrap(pd, "par_interpolate_at", "mesh.interpolate")
    rec.wrap(ParAdvectionDiffusion, "__init__", "fem.advection_setup")
    rec.wrap(ParAdvectionDiffusion, "advance", "fem.advection")
    rec.wrap(Checkpointer, "save_pipeline", "checkpoint.save")
    for m in COMM_METHODS:
        rec.wrap(type(comm), m, "parallel." + m, skip_inside="parallel.")


def live_state(pipe) -> dict:
    """This rank's owned leaves and element-corner temperatures."""
    mesh, owned, local = pipe.pm.mesh, pipe.pm.owned_elements, pipe.pt.local
    return {"x": local.x.copy(), "y": local.y.copy(), "z": local.z.copy(),
            "level": local.level.copy(),
            "T": mesh.expand(pipe.T)[mesh.element_nodes[owned]]}


def rank_main(comm, params, trace, ckpt_dir, run_id):
    """One rank: set up, then ``CYCLES`` timed cycles.  Times are
    ``perf_counter`` values, comparable across the rank processes."""
    from repro.amr import ParAmrPipeline
    from repro.checkpoint import Checkpointer

    wl = make_workload(params)
    pipe = ParAmrPipeline(comm, workload=wl, coarse_level=COARSE_LEVEL,
                          min_level=MIN_LEVEL, max_level=MAX_LEVEL)
    for _ in range(INITIAL_ADAPT_ROUNDS):
        pipe.adapt(TARGET_ELEMENTS)
        mesh = pipe.pm.mesh
        pipe.T = wl.initial(mesh.node_coords())[mesh.indep_nodes]
    comm.barrier()
    out = {"t_setup": now()}
    rec = Recorder(f"{run_id}-rank{comm.rank}") if trace else None
    ckpt = Checkpointer(ckpt_dir, every=CHECKPOINT_EVERY, keep=1)
    n_hist = len(pipe.adapt_history)
    stats0 = comm.stats.snapshot()
    comm.barrier()
    starts, ends, probes, steps, ckpt_bytes, saves = [], [], [], 0, 0, []
    if rec is not None:
        install_spans(rec, comm)
    try:
        for _ in range(CYCLES):
            probes.append(probe_host())
            starts.append(now())
            span = rec.open("cycle") if rec is not None else None
            pipe.adapt(TARGET_ELEMENTS)
            steps += pipe.advance_time(T_SPAN, cfl=CFL)
            pipe.cycles_done += 1
            path = ckpt.save_pipeline(pipe) if ckpt.due(pipe.cycles_done) else None
            if span is not None:
                rec.close(span)
            ends.append(now())
            if path is not None:
                saves.append(path)
                if comm.rank == 0:
                    ckpt_bytes += sum(e.stat().st_size for e in os.scandir(path))
    finally:
        if rec is not None:
            rec.restore()
    out["rss"] = peak_rss_mb()
    stats = comm.stats.since(stats0)
    hist = pipe.adapt_history[n_hist:]
    out.update(
        starts=starts, ends=ends, probes=probes, saves=saves, sim_time=pipe.sim_time,
        counts={
            "elements": sum(h.n_after for h in hist),
            "balance_added": sum(h.n_balance_added for h in hist),
            "advection_steps": steps,
            "collectives": stats.total_collective_calls,
            "p2p_messages": stats.p2p_messages,
            "bytes": stats.total_bytes,
            "checkpoint_bytes": ckpt_bytes,
            "checkpoint_saves": len(saves),
        },
        state=live_state(pipe),
        spans=rec.spans if rec is not None else None,
    )
    return out


def restore_rank(comm, path):
    from repro.checkpoint import restore_pipeline

    return live_state(restore_pipeline(comm, path))


# -- checks made outside the program ------------------------------------------


def concat_state(states: list) -> dict:
    return {k: np.concatenate([s[k] for s in states]) for k in states[0]}


def morton_keys(x, y, z) -> np.ndarray:
    """Bit-interleaved keys (x lowest), written independently of the
    program's Morton code."""
    key = np.zeros(len(x), dtype=np.uint64)
    for b in range(21):
        for axis, c in enumerate((x, y, z)):
            bit = (c.astype(np.uint64) >> np.uint64(b)) & np.uint64(1)
            key |= bit << np.uint64(3 * b + axis)
    return key


def forest_problems(state: dict, max_level: int = MAX_LEVEL) -> list[str]:
    """Brute force on the finest grid: leaves in strictly increasing Morton
    order, covering every finest cell exactly once, with levels of any two
    face-, edge- or corner-adjacent cells differing by at most one."""
    x, y, z, lev = state["x"], state["y"], state["z"], state["level"].astype(np.int64)
    problems = []
    keys = morton_keys(x, y, z)
    if not np.all(keys[1:] > keys[:-1]):
        problems.append("leaves are not in strictly increasing Morton order")
    if lev.max() > max_level or lev.min() < 0:
        return problems + [f"leaf levels {lev.min()}..{lev.max()} outside 0..{max_level}"]
    g = 1 << max_level
    shift = 21 - max_level
    cover = np.zeros((g, g, g), dtype=np.int16)
    level = np.zeros((g, g, g), dtype=np.int8)
    for i, j, k, s, L in zip(x >> shift, y >> shift, z >> shift,
                             1 << (max_level - lev), lev):
        cover[i:i + s, j:j + s, k:k + s] += 1
        level[i:i + s, j:j + s, k:k + s] = L
    if not np.all(cover == 1):
        problems.append(f"{int((cover == 0).sum())} finest cells uncovered, "
                        f"{int((cover > 1).sum())} covered more than once")
        return problems
    full = slice(None)
    for d in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0), (1, 0, 1),
              (1, 0, -1), (0, 1, 1), (0, 1, -1), (1, 1, 1), (1, 1, -1),
              (1, -1, 1), (1, -1, -1)]:
        a = tuple(slice(0, g - 1) if s == 1 else slice(1, g) if s == -1 else full for s in d)
        b = tuple(slice(1, g) if s == 1 else slice(0, g - 1) if s == -1 else full for s in d)
        jump = int(np.abs(level[a].astype(np.int16) - level[b]).max())
        if jump > 1:
            problems.append(f"2:1 balance violated in direction {d} (level jump {jump})")
    return problems


def front_moments(state: dict) -> tuple[float, np.ndarray]:
    """Mass and centroid of the trilinear temperature field, by 2-point
    Gauss quadrature per axis (exact for x * T on each element)."""
    h = 2.0 ** -state["level"].astype(np.float64)
    anchor = np.stack([state["x"], state["y"], state["z"]], axis=1) / float(1 << 21)
    g = 0.5 + np.array([-0.5, 0.5]) / np.sqrt(3.0)
    pts = np.array([[g[i & 1], g[(i >> 1) & 1], g[(i >> 2) & 1]] for i in range(8)])
    corner = np.array([[(c & 1), (c >> 1) & 1, (c >> 2) & 1] for c in range(8)])
    # shape functions: N[p, c] = prod_a (xi if corner bit else 1 - xi)
    N = np.prod(np.where(corner[None, :, :] == 1, pts[:, None, :],
                         1.0 - pts[:, None, :]), axis=2)
    Tq = state["T"] @ N.T  # (ne, 8 points)
    w = (h ** 3 / 8.0)[:, None]
    mass = float((w * Tq).sum())
    xq = anchor[:, None, :] + h[:, None, None] * pts[None, :, :]
    centroid = (w[:, :, None] * Tq[:, :, None] * xq).sum(axis=(0, 1)) / mass
    return mass, centroid


def exact_mass() -> float:
    """Integral of the initial front over space (the front lies well
    inside the unit cube; the cut-off tail is below 1e-4 of the mass)."""
    r = np.linspace(0.0, FRONT_RADIUS + 12 * FRONT_WIDTH, 200001)
    T = 0.5 * (1.0 - np.tanh((r - FRONT_RADIUS) / FRONT_WIDTH))
    return float(np.trapezoid(4.0 * np.pi * r * r * T, r))


def rotated_center(params: dict, t: float) -> np.ndarray:
    c = np.asarray(params["center"], dtype=np.float64)
    a = OMEGA * t
    dx, dy = c[0] - 0.5, c[1] - 0.5
    return np.array([0.5 + np.cos(a) * dx - np.sin(a) * dy,
                     0.5 + np.sin(a) * dx + np.cos(a) * dy, c[2]])


def check_front(ops: Ops, state: dict, params: dict, t: float,
                max_level: int = MAX_LEVEL) -> dict:
    """Mass against the exact mass; centroid against the initial centre
    rotated rigidly by OMEGA * t."""
    mass, centroid = front_moments(state)
    m_exact = exact_mass()
    rel = abs(mass - m_exact) / m_exact
    ops.check("front_mass", rel <= MASS_REL_TOL, f"mass off by {rel:.2e}")
    off = float(np.linalg.norm(centroid - rotated_center(params, t)))
    cells = off * (1 << max_level)
    ops.check("front_centroid", cells <= CENTROID_CELLS,
              f"centroid {off:.4f} ({cells:.2f} finest cells) from the rotated centre")
    return {"mass_rel_err": rel, "centroid_cells": cells}


def restore_problems(path: str, live: dict) -> list[str]:
    """Restore ``path`` onto one rank; leaves and corner temperatures must
    equal the live state bit for bit."""
    from repro.checkpoint import CheckpointError
    from repro.parallel import run_spmd

    try:
        got = run_spmd(1, restore_rank, path, backend="thread")[0]
    except CheckpointError as exc:
        return [f"restore rejected the checkpoint: {exc}"]
    return [f"restored {k} differs from the live run" for k in live
            if got[k].shape != live[k].shape or not np.array_equal(got[k], live[k])]


# -- one pass -------------------------------------------------------------------


def run_pass(seed: int, rounds: int, trace: bool, work_dir: str, run_id: str) -> dict:
    """Run ``rounds`` rounds; checks follow the cycles of all rounds, so
    the parent's peak RSS is read before the restore check allocates."""
    from repro.parallel import run_spmd_with_comms
    from repro.parallel.procomm import shutdown_pools

    params = seeded_inputs(seed)
    ops = Ops()
    out = {"setup": [], "cycles": [], "rank_rss": [], "counts": {}, "ranks": [],
           "probe": [], "notes": {}}
    try:
        for rnd in range(rounds):
            ckpt_dir = os.path.join(work_dir, f"{run_id}-round{rnd}")
            shutil.rmtree(ckpt_dir, ignore_errors=True)
            shutdown_pools()  # rank start-up is part of set-up
            t0 = now()
            results, _ = run_spmd_with_comms(
                NRANKS, rank_main, params, trace, ckpt_dir, run_id,
                backend="process")
            out["setup"].append(max(r["t_setup"] for r in results) - t0)
            ops.record("setup", True)
            # a cycle runs from the later rank's start to the later rank's end
            starts = np.max([r["starts"] for r in results], axis=0)
            ends = np.max([r["ends"] for r in results], axis=0)
            out["cycles"].append(list(ends - starts))
            out["probe"] += [p for r in results for p in r["probes"]]
            out["rank_rss"].append(sum(r["rss"] for r in results))
            out["ranks"].append(results)
            for r in results:
                for k, v in r["counts"].items():
                    out["counts"][k] = out["counts"].get(k, 0) + v
            for _ in range(CYCLES):
                ops.record("cycle", True)
            for _ in range(CYCLES // CHECKPOINT_EVERY):
                ops.record("checkpoint_save", bool(results[0]["saves"]))
        shutdown_pools()
        out["rss"] = peak_rss_mb() + max(out["rank_rss"])

        for results in out["ranks"]:
            live = concat_state([r["state"] for r in results])
            bad = forest_problems(live)
            ops.check("forest", not bad, "; ".join(bad))
            out["notes"].update(check_front(ops, live, params, results[0]["sim_time"]))
            saves = results[0]["saves"]
            bad = restore_problems(saves[-1], live) if saves else ["no checkpoint"]
            ops.check("restore", not bad, "; ".join(bad))
    finally:
        shutdown_pools()
    out["ops"] = ops
    return out


def end_to_end(res: dict) -> dict:
    f = host_factor(res["probe"])
    return {**cycle_metrics(res["cycles"], f),
            "setup_s": median(res["setup"]) * f,
            "peak_rss_mb": res["rss"]}


def _rank_layers(spans: list) -> dict:
    """Per-layer seconds of one rank, plus busy seconds per cycle."""
    lt = layer_times(spans)
    cycle_of = []  # index of the enclosing cycle span
    for s in spans:
        p = s[3]
        cycle_of.append(len(cycle_of) if s[0] == "cycle" else cycle_of[p])
    comm = {}
    for i, s in enumerate(spans):
        if s[0].startswith("parallel."):
            comm[cycle_of[i]] = comm.get(cycle_of[i], 0.0) + s[2] - s[1]
    busy = [s[2] - s[1] - comm.get(i, 0.0) for i, s in enumerate(spans) if s[0] == "cycle"]
    slf = lt["self"]
    return {
        "amr.adapt_s": slf.get("amr.adapt", 0.0),
        "amr.advance_self_s": slf.get("amr.advance", 0.0),
        "amr.mark_s": slf.get("amr.mark", 0.0),
        "octree.coarsen_s": slf.get("octree.coarsen", 0.0),
        "octree.refine_s": slf.get("octree.refine", 0.0),
        "octree.balance_s": slf.get("octree.balance", 0.0),
        "octree.partition_s": slf.get("octree.partition", 0.0),
        "mesh.extract_s": slf.get("mesh.extract", 0.0),
        "mesh.interpolate_s": slf.get("mesh.interpolate", 0.0),
        "fem.advection_setup_s": slf.get("fem.advection_setup", 0.0),
        "fem.advection_s": slf.get("fem.advection", 0.0),
        "checkpoint.save_s": slf.get("checkpoint.save", 0.0),
        "parallel.comm_s": sum(comm.values()),
        "trace.uncovered_s": lt["uncovered"],
        "_busy": busy,
    }


def per_layer(res: dict) -> dict:
    """Per-layer metrics of a traced pass: seconds are those of the slower
    rank, summed over the rounds; counts are world totals."""
    by_rank = [[_rank_layers(results[r]["spans"]) for results in res["ranks"]]
               for r in range(NRANKS)]
    names = [k for k in by_rank[0][0] if k != "_busy"]
    m = {k: max(sum(lay[k] for lay in rank) for rank in by_rank) for k in names}
    busy = np.array([[b for lay in rank for b in lay["_busy"]] for rank in by_rank])
    c = res["counts"]
    m.update({
        "octree.balance_added": c["balance_added"] / NRANKS,
        "mesh.elements": c["elements"] / NRANKS,
        "fem.advection_steps": c["advection_steps"] / NRANKS,
        "parallel.collectives": c["collectives"],
        "parallel.p2p_messages": c["p2p_messages"],
        "parallel.bytes": c["bytes"],
        "parallel.rank_spread": median(busy.max(axis=0) / busy.min(axis=0)),
        "parallel.rank_rss_mb": max(r["rss"] for results in res["ranks"] for r in results),
        "checkpoint.bytes": c["checkpoint_bytes"],
    })
    return m


def run(workload: str, seed: int, rounds: int, trace: bool, work_dir: str,
        span_dir: str) -> dict:
    run_id = f"{workload}-seed{seed}-pid{os.getpid()}"
    res = run_pass(seed, rounds, False, work_dir, run_id)
    ops = res["ops"]
    notes = [f"  front mass error {res['notes']['mass_rel_err']:.2e}, centroid "
             f"{res['notes']['centroid_cells']:.2f} finest cells from the rotated centre",
             f"  work: {res['counts']['elements'] // NRANKS} elements over the cycles",
             f"  host speed factor {host_factor(res['probe']):.3f}; wall-clock time "
             f"to solution {cycle_metrics(res['cycles'], 1.0)['time_to_solution_s']:.4f} s"]
    if not trace:
        return {"ops": ops, "metrics": end_to_end(res), "notes": notes}

    traced = run_pass(seed, rounds, True, work_dir, run_id + "-traced")
    ops.merge(traced["ops"])
    a, b = res["counts"], traced["counts"]
    bad = [f"{k}: untraced {a.get(k)} traced {b.get(k)}"
           for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]
    ops.require("trace_counts_equal", not bad, "; ".join(bad))
    metrics = per_layer(traced)
    metrics["trace.overhead_s"] = (end_to_end(traced)["time_to_solution_s"]
                                   - end_to_end(res)["time_to_solution_s"])
    os.makedirs(span_dir, exist_ok=True)
    with open(os.path.join(span_dir, f"{workload}-seed{seed}.json"), "w",
              encoding="utf-8") as f:
        json.dump({"run_id": run_id + "-traced", "workload": workload, "seed": seed,
                   "fields": ["name", "start", "end", "parent"],
                   "ranks": [r["spans"] for results in traced["ranks"] for r in results]}, f)
    return {"ops": ops, "metrics": metrics, "notes": notes}
