"""Deterministic, seedable fault injection for the run engine.

The engine's resilience paths (retry, timeout-and-reshard, inline
fallback, checkpoint resume, cache integrity) are only trustworthy if
they are exercised constantly, so faults are injectable at every layer
the engine touches:

* ``worker_crash`` — raise at worker chunk start (the whole chunk dies
  exactly as if the simulation code had thrown).
* ``chunk_hang`` — sleep ``hang_seconds`` at worker chunk start, so the
  parent's per-chunk timeout must fire and kill-and-reshard.
* ``month_crash`` — raise between months inside a chunk (partial work
  is lost; the retry must regenerate the full chunk).
* ``pack_corrupt`` — mutilate the packed partition a worker ships back
  (format skew, truncated column, or a dropped month); the parent's
  partition validation must reject it and retry the chunk.
* ``cache_read`` / ``cache_write`` — corrupt a cache blob as it is read
  or written; the integrity footer must detect it and degrade to a
  rebuild, never an error.

Faults are configured by a spec string — CLI ``--faults`` or the
``REPRO_FAULTS`` env var — of comma-separated ``kind:rate`` entries
plus the optional ``seed:N`` and ``hang_seconds:X`` knobs::

    REPRO_FAULTS=worker_crash:0.1,chunk_hang:0.05,seed:42,hang_seconds:5

Every draw is a pure function of ``(seed, kind, token)`` — no RNG
state, no wall clock — so a fault schedule is exactly reproducible
across processes and runs.  Injection sites build tokens that include
the attempt number, so a retried chunk draws fresh: a 100% crash rate
still terminates because the inline fallback runs under
:func:`suppressed`.

Like :mod:`repro.engine.perf`, this module imports only the bottom
layer (:mod:`repro.engine.perf`, :mod:`repro.obs`) so any layer can
call into it without cycles.  Every fired fault is logged and emitted
to the JSONL metrics sink, so a fault schedule leaves an auditable
trail even when the process it fired in dies.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import time
from dataclasses import dataclass, field

from repro.engine.perf import PERF
from repro.obs import emit_event, get_logger

_log = get_logger("repro.engine.faults")

#: Fault kinds with a rate; anything else in a spec is ignored (a
#: malformed env var must degrade, never kill a run).
KINDS = (
    "worker_crash",
    "chunk_hang",
    "month_crash",
    "pack_corrupt",
    "cache_read",
    "cache_write",
)

#: Spec knobs that are not rates.
_KNOBS = ("seed", "hang_seconds")


class InjectedFault(RuntimeError):
    """An injected failure — indistinguishable from a real crash to the
    recovery machinery, but recognizable in test assertions."""


@dataclass(frozen=True)
class FaultPlan:
    """A parsed fault schedule: per-kind rates plus the draw seed."""

    rates: dict[str, float] = field(default_factory=dict)
    seed: int = 0
    hang_seconds: float = 3600.0

    @classmethod
    def parse(cls, spec: str | None) -> "FaultPlan":
        """Parse a ``kind:rate,...`` spec; malformed entries are skipped."""
        rates: dict[str, float] = {}
        seed = 0
        hang_seconds = 3600.0
        for entry in (spec or "").split(","):
            entry = entry.strip()
            if not entry or ":" not in entry:
                continue
            name, _, raw = entry.partition(":")
            name = name.strip()
            try:
                if name == "seed":
                    seed = int(raw)
                elif name == "hang_seconds":
                    hang_seconds = max(0.0, float(raw))
                elif name in KINDS:
                    rates[name] = min(1.0, max(0.0, float(raw)))
            except ValueError:
                continue
        return cls(rates=rates, seed=seed, hang_seconds=hang_seconds)

    def active(self) -> bool:
        return any(rate > 0.0 for rate in self.rates.values())

    def fires(self, kind: str, token: str) -> bool:
        """Deterministic Bernoulli draw for one (kind, token) site."""
        rate = self.rates.get(kind, 0.0)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        digest = hashlib.sha256(
            f"{self.seed}|{kind}|{token}".encode("utf-8")
        ).digest()
        draw = int.from_bytes(digest[:8], "big") / 2**64
        return draw < rate


_NO_FAULTS = FaultPlan()

#: Explicit override (CLI ``--faults``); wins over the environment.
_CONFIGURED: FaultPlan | None = None
#: Cache of the last env parse, keyed by the raw spec string.
_ENV_CACHE: tuple[str, FaultPlan] | None = None
#: Suppression depth — the inline serial fallback must always succeed.
_SUPPRESS = 0


def configure(spec: str | FaultPlan | None) -> FaultPlan:
    """Install an explicit fault plan (``None`` clears the override)."""
    global _CONFIGURED
    if spec is None:
        _CONFIGURED = None
        return current()
    _CONFIGURED = spec if isinstance(spec, FaultPlan) else FaultPlan.parse(spec)
    return _CONFIGURED


def clear() -> None:
    """Drop the explicit override and the env parse cache (tests)."""
    global _CONFIGURED, _ENV_CACHE
    _CONFIGURED = None
    _ENV_CACHE = None


def current() -> FaultPlan:
    """The active plan: explicit override, else ``REPRO_FAULTS``."""
    if _CONFIGURED is not None:
        return _CONFIGURED
    spec = os.environ.get("REPRO_FAULTS", "").strip()
    if not spec:
        return _NO_FAULTS
    global _ENV_CACHE
    if _ENV_CACHE is None or _ENV_CACHE[0] != spec:
        _ENV_CACHE = (spec, FaultPlan.parse(spec))
    return _ENV_CACHE[1]


def shippable_plan() -> FaultPlan | None:
    """The active plan, for explicit delivery to pool workers.

    Fork workers inherit ``_CONFIGURED`` through process memory, but a
    spawned worker starts a fresh interpreter where only the
    environment survives — a plan installed via :func:`configure` (the
    CLI ``--faults`` flag, the test suites' programmatic specs) would
    silently stop firing.  The scheduler therefore ships this through
    the worker initializer on every backend; :class:`FaultPlan` is a
    frozen dataclass of primitives, so it pickles cleanly.  ``None``
    when no plan is active — workers then fall back to their own
    environment parse, same as today.
    """
    plan = current()
    return plan if plan.active() else None


@contextlib.contextmanager
def suppressed():
    """Disable every injection site inside the block.

    The engine's in-parent chunk runs (serial run, inline backend,
    last-resort chunk re-run) execute under this, which is what makes
    recovery terminate even at 100% fault rates.
    """
    global _SUPPRESS
    _SUPPRESS += 1
    try:
        yield
    finally:
        _SUPPRESS -= 1


def fires(kind: str, token: str) -> bool:
    """True when the active plan injects a fault at this site."""
    if _SUPPRESS > 0:
        return False
    if current().fires(kind, token):
        PERF.faults_injected += 1
        # Emit before the caller raises/hangs/corrupts: a crashed
        # worker's counters die with it, but this line survives.
        _log.debug("injected fault %s at %s", kind, token)
        emit_event("fault", kind=kind, token=token)
        return True
    return False


def crash_point(kind: str, token: str) -> None:
    """Raise :class:`InjectedFault` when the site draws a failure."""
    if fires(kind, token):
        raise InjectedFault(f"injected {kind} at {token}")


def hang_point(token: str) -> None:
    """Sleep past any reasonable chunk timeout when the site fires."""
    if fires("chunk_hang", token):
        time.sleep(current().hang_seconds)


def corrupt_partition(payload: dict, token: str) -> dict:
    """Mutilate a packed partition in one of three detectable ways.

    The style is drawn deterministically from the token so a fault
    schedule reproduces exactly: format skew, a truncated weight
    column, or a dropped month.
    """
    digest = hashlib.sha256(f"corrupt|{token}".encode("utf-8")).digest()
    style = digest[0] % 3
    if style == 0 or not payload.get("months"):
        payload["format"] = -1
    elif style == 1:
        columns = next(iter(payload["months"].values()))
        if len(columns["weights"]):
            columns["weights"].pop()
        else:
            payload["format"] = -1
    else:
        payload["months"].pop(next(iter(payload["months"])))
    return payload


def corrupt_blob(blob: bytes) -> bytes:
    """Truncate a cache blob body (its footer stays intact, so the
    integrity check — not the pickle parser — must catch it)."""
    return blob[: max(1, len(blob) // 2)]
