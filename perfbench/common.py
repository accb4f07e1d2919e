"""Bookkeeping shared by the workloads: operation tallies and small helpers."""

from __future__ import annotations

import resource
import statistics
import time
from collections import Counter

import numpy as np

now = time.perf_counter


def peak_rss_mb() -> float:
    """Peak resident set size of the calling process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


#: fixed reference time of :func:`probe_host`; times are reported at the
#: host speed where the probe takes this long.  It lies near the probe's
#: median on the 2-core reference host, whose per-run medians ranged from
#: 7.6 to 12.2 ms
PROBE_REF_S = 0.0105

_PROBE_DATA = np.random.default_rng(0).standard_normal(100_000)


def probe_host() -> float:
    """Time a fixed kernel: an interpreter loop and a NumPy sort.

    On the reference host the speed of every kernel tried (interpreter
    loop, BLAS matmul, sort) moved together by up to 1.8x within a minute
    and drifted by 30% over twenty minutes, with no steal time visible to
    the guest.  Probing between cycles measures the host speed the cycles
    ran at.
    """
    t0 = now()
    s = 0
    for i in range(120_000):
        s += i * i
    np.sort(_PROBE_DATA)
    return now() - t0


def host_factor(samples: list) -> float:
    """Reference speed over the speed measured during the run."""
    return PROBE_REF_S / median(samples)


def cycle_metrics(rounds: list, factor: float) -> dict:
    """Time to solution and median cycle time from the cycle times of
    rounds that repeat the same work, at the reference host speed.

    Each cycle counts with the fastest of its repeats: the same cycle ran
    up to 12% slower in one round than in the next, and the fastest
    repeat is the least disturbed.
    """
    best = [min(ts) * factor for ts in zip(*rounds)]
    return {"time_to_solution_s": float(sum(best)), "cycle_p50_s": median(best)}


class Ops:
    """Operations attempted and failed, by kind.

    A failed check makes the run incorrect.  A failed operation of a kind
    listed in ``known_faults`` is a fault of the program that fails on
    every run; it is counted in ``failed`` and reported with its named
    fault, and leaves ``correct`` as it is.
    """

    def __init__(self):
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.problems: list[str] = []
        self.faults: dict[str, str] = {}
        self.unmet = False

    def record(self, kind: str, ok: bool, detail: str = "") -> bool:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        if not ok:
            self.failed[kind] = self.failed.get(kind, 0) + 1
            self.problems.append(f"{kind}: {detail}")
        return ok

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        return self.record("check", ok, f"{name}: {detail}")

    def known_fault(self, kind: str, ok: bool, fault: str, detail: str = "") -> bool:
        if not ok:
            self.faults[kind] = fault
        return self.record(kind, ok, detail)

    def require(self, name: str, ok: bool, detail: str = "") -> None:
        """A condition on the run as a whole, not an operation: a failure
        makes the run incorrect without changing the operation counts, so
        traced and untraced runs fail the same share of operations."""
        if not ok:
            self.problems.append(f"{name}: {detail}")
            self.unmet = True

    def merge(self, other: "Ops") -> None:
        for k, v in other.attempted.items():
            self.attempted[k] = self.attempted.get(k, 0) + v
        for k, v in other.failed.items():
            self.failed[k] = self.failed.get(k, 0) + v
        self.problems += other.problems
        self.faults.update(other.faults)
        self.unmet |= other.unmet

    @property
    def correct(self) -> bool:
        """True when every failure is a known fault and every run-wide
        condition holds."""
        return not self.unmet and all(k in self.faults for k in self.failed)

    def report_lines(self) -> list[str]:
        lines = [f"  {k:<16} attempted {self.attempted[k]:>4}  failed "
                 f"{self.failed.get(k, 0):>3}" for k in sorted(self.attempted)]
        lines += [f"  known fault in {k}: {v}" for k, v in sorted(self.faults.items())]
        lines += [f"  FAILED {p}" + (f" (x{n})" if n > 1 else "")
                  for p, n in Counter(self.problems).items()]
        return lines
