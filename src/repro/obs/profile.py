"""Opt-in deep profiling hooks: cProfile hotspots / tracemalloc peaks.

Spans answer *where the wall time went between phases*; this module
answers *what a phase spent it on*.  It is off by default — profiling
is the one observability channel with a real runtime tax — and is
enabled per process by the CLI ``--profile cprofile|tracemalloc`` flag
(or ``profile_mode=`` on :func:`repro.bench.run_benches`).

Usage is one context manager around a phase::

    with profile.profiled("run_expectation"):
        ...

When disabled, ``profiled`` is a bare ``yield``.  When enabled, the
phase's top-N hotspots (cProfile, by cumulative time) or its memory
high-water mark plus top allocation sites (tracemalloc) are appended to
a process-local registry that ``snapshot()`` returns as a JSON-safe
document; ``stats --json`` folds it in under ``"profile"`` and
``repro bench`` folds it into its trajectory records.

Phases never nest: an inner ``profiled`` inside an active one is a
no-op, because neither cProfile nor tracemalloc tolerates reentrant
sessions (and a nested report would double-count anyway).

Profiling observes control flow, not simulation state — a profiled run
still produces a byte-identical dataset (regression-tested in
``tests/test_obs.py``).

Like the rest of :mod:`repro.obs`, this module imports nothing from the
wider :mod:`repro` tree.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

#: Supported modes, in the order the CLI advertises them.
MODES = ("cprofile", "tracemalloc")

#: Hotspots / allocation sites retained per phase.
TOP_N = 10


def resolve_mode(explicit: str | None = None) -> str | None:
    """Profiling mode: one of :data:`MODES`, else disabled.

    Unknown values degrade to disabled rather than killing a run.
    """
    candidate = (explicit or "").strip().lower()
    return candidate if candidate in MODES else None


class _ProfileState:
    """Process-local registry of profiled phases."""

    def __init__(self) -> None:
        self.mode: str | None = None
        self.phases: list[dict] = []
        self.active: bool = False


PROFILE = _ProfileState()


def configure(mode: str | None = None) -> str | None:
    """Resolve and install the process profiling mode; returns it."""
    PROFILE.mode = resolve_mode(mode)
    PROFILE.phases = []
    return PROFILE.mode


def enabled() -> bool:
    return PROFILE.mode is not None


def reset() -> None:
    PROFILE.phases = []
    PROFILE.active = False


def snapshot() -> dict | None:
    """The JSON-safe profile document, or None when profiling is off."""
    if PROFILE.mode is None:
        return None
    return {"mode": PROFILE.mode, "phases": [dict(p) for p in PROFILE.phases]}


def _cprofile_phase(name: str, top: int):
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative")
        hotspots = []
        for func in stats.fcn_list[:top]:  # (file, line, name), sorted
            cc, nc, tt, ct, _callers = stats.stats[func]
            filename, lineno, funcname = func
            hotspots.append(
                {
                    "func": f"{os.path.basename(filename)}:{lineno}({funcname})",
                    "calls": nc,
                    "tottime": round(tt, 6),
                    "cumtime": round(ct, 6),
                }
            )
        PROFILE.phases.append(
            {
                "name": name,
                "mode": "cprofile",
                "wall_seconds": time.perf_counter() - started,
                "top": hotspots,
            }
        )


def _tracemalloc_phase(name: str, top: int):
    import tracemalloc

    already_tracing = tracemalloc.is_tracing()
    if already_tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    started = time.perf_counter()
    try:
        yield
    finally:
        current, peak = tracemalloc.get_traced_memory()
        snapshot_ = tracemalloc.take_snapshot()
        if not already_tracing:
            tracemalloc.stop()
        sites = []
        for stat in snapshot_.statistics("lineno")[:top]:
            frame = stat.traceback[0]
            sites.append(
                {
                    "site": f"{os.path.basename(frame.filename)}:{frame.lineno}",
                    "size_bytes": stat.size,
                    "count": stat.count,
                }
            )
        PROFILE.phases.append(
            {
                "name": name,
                "mode": "tracemalloc",
                "wall_seconds": time.perf_counter() - started,
                "peak_bytes": peak,
                "current_bytes": current,
                "top": sites,
            }
        )


@contextmanager
def profiled(name: str, top: int = TOP_N):
    """Profile a phase under the configured mode (no-op when disabled
    or when another phase is already being profiled in this process)."""
    if PROFILE.mode is None or PROFILE.active:
        yield
        return
    PROFILE.active = True
    try:
        if PROFILE.mode == "cprofile":
            yield from _cprofile_phase(name, top)
        else:
            yield from _tracemalloc_phase(name, top)
    finally:
        PROFILE.active = False
