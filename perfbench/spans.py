"""In-memory span recorder that wraps the program's public entry points.

A span is ``(name, start, end, parent)`` with times from
``time.perf_counter`` (CLOCK_MONOTONIC, so spans of different rank
processes on one host share a time axis) and ``parent`` the index of the
enclosing span, or -1.  All spans of one traced pass share ``run_id``.
Nothing is written while a pass runs; :meth:`Recorder.dump` writes the
spans when the run ends.

Wrapping is done from the outside: :meth:`Recorder.patch` replaces an
attribute of a module or class with a recording wrapper and
:meth:`Recorder.restore` puts every original back, so the program's own
files stay untouched.  The program imports some functions by name into
its modules (``from ..solvers import minres``), so those are patched
where they are looked up, not where they are defined.
"""

from __future__ import annotations

import functools
import json
import time

__all__ = ["Recorder", "Probe", "layer_times"]

_now = time.perf_counter


class Probe:
    """Counting hooks that stay installed in untraced and traced passes.

    They add one Python call per wrapped call and take no timestamps, so
    the untraced pass can report exact counts (iterations, applies) and
    check every solver result; the traced pass must reproduce the counts.
    """

    def __init__(self):
        self.counts: dict[str, int] = {}
        self._patched: list = []

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def patch(self, owner, attr: str, make_wrapper) -> None:
        orig = owner.__dict__[attr] if attr in owner.__dict__ else None
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, make_wrapper(getattr(owner, attr)))

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)


class Recorder(Probe):
    """Span recorder; also a :class:`Probe` so it can restore its patches."""

    def __init__(self, run_id: str):
        super().__init__()
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, _now(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = _now()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, owner, attr: str, name: str, *, under: str | None = None,
             skip_inside: str | None = None) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr``.  ``under`` records only calls made directly inside
        a span of that name (``LinearOctree.coarsen`` is also called by
        the multigrid hierarchy builder); ``skip_inside`` records nothing
        while a span whose name starts with it is open (nested
        communicator calls)."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                cur = self.current()
                if (under is not None and cur != under) or (
                    skip_inside is not None and cur is not None
                    and cur.startswith(skip_inside)
                ):
                    return fn(*args, **kwargs)
                idx = self.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(idx)

            return wrapper

        self.patch(owner, attr, make)

    def dump(self, path: str, **meta) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"run_id": self.run_id, **meta,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, f)


def layer_times(spans: list, cycle_name: str = "cycle") -> dict:
    """Total and self seconds per span name, plus the uncovered seconds
    of the ``cycle_name`` spans (cycle time no named child span covers).

    Spans are properly nested within one process, so a span's self time
    is its duration minus the summed durations of its direct children.
    """
    dur = [s[2] - s[1] for s in spans]
    child_sum = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_sum[s[3]] += dur[i]
    total: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, s in enumerate(spans):
        name = s[0]
        total[name] = total.get(name, 0.0) + dur[i]
        self_t[name] = self_t.get(name, 0.0) + dur[i] - child_sum[i]
        calls[name] = calls.get(name, 0) + 1
    return {"total": total, "self": self_t, "calls": calls,
            "uncovered": self_t.get(cycle_name, 0.0)}
