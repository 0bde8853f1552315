"""The run engine: parallel sharding, columnar aggregation, caching.

The expectation-mode dataset is the hot path of every figure and table:
it is recomputed constantly as calibration inputs change and new months
land.  This package makes that path fast three ways at once:

* :mod:`repro.engine.runner` — months are independent in expectation
  mode, so the full 2012–2018 run shards across ``multiprocessing``
  workers (``--workers``, default the CPU count; ``0`` forces the
  serial fallback).  Workers ship compact serialized month partitions back to
  the parent, which merges them into one :class:`~repro.notary.store.NotaryStore`.
* :mod:`repro.notary.store` + :mod:`repro.notary.query` — a per-month
  aggregate index answers the standard figure predicates from O(1)
  weight counters instead of re-scanning every record.
* :mod:`repro.engine.cache` — the finished store is persisted under
  ``~/.cache/repro`` (``REPRO_CACHE_DIR``) keyed by a content hash of
  the populations and date range, so repeat CLI invocations load
  instead of re-simulating.  Blobs carry an integrity footer (corrupt
  files are deleted, not retried forever), builds coordinate through an
  advisory lockfile, the population is LRU-evicted under a size cap,
  and finished months are checkpointed so killed runs resume.

The runner survives partial failure by design: failed chunks retry
with capped backoff, hung chunks are killed on a per-chunk timeout and
resharded, and a chunk out of attempts re-runs inline in the parent.
:mod:`repro.engine.faults` injects deterministic, seedable faults
(``REPRO_FAULTS`` / ``--faults``) at every one of those seams so the
recovery machinery is exercised constantly, not trusted.

Run configuration arrives as arguments (the CLI resolves its flags once
into :class:`repro.simulation.ecosystem.EcosystemModel`).  The engine
reads only four environment knobs, each in one function:
``REPRO_CACHE_DIR`` (:func:`repro.engine.cache.cache_dir`),
``REPRO_CACHE_MAX_BYTES`` (:func:`repro.engine.cache.max_cache_bytes`),
``REPRO_FAULTS`` (:func:`repro.engine.faults.current`) and
``REPRO_BACKEND`` (:func:`repro.engine.executors.resolve_backend`).

:mod:`repro.engine.perf` instruments all of it; ``python -m repro
stats`` renders the counters.

This module deliberately imports only :mod:`repro.engine.perf` so that
``repro.notary`` can increment counters without an import cycle; pull
the heavier pieces in explicitly (``from repro.engine import runner``).
"""

from repro.engine.perf import PERF, PerfCounters

__all__ = ["PERF", "PerfCounters"]
