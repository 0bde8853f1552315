"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figure fig1..fig10`` — print a paper figure's monthly series.
* ``table 1..6`` — print a paper table.
* ``scan chrome2015|ssl3|export`` — run a Censys-style scan schedule.
* ``pulse`` — run the SSL Pulse-style RC4 survey.
* ``fingerprint <family> <version>`` — fingerprint a known client release.
* ``timeline`` — print the attack/event timeline.
* ``stats`` — build/load the expectation dataset and print engine perf
  counters (negotiations, cache hits, chunk wall times, records/s, and
  the resilience counters: retries, timeouts, inline fallbacks, resumed
  months, cache evictions).  ``stats --json`` emits the same data — plus
  the run's trace spans and any profiling capture — as one
  machine-readable JSON document.
* ``run`` — execute one expectation run end-to-end (fresh by default),
  the producer half of ``repro run --metrics m.jsonl && repro trace
  m.jsonl``.
* ``trace <metrics.jsonl>`` — reconstruct the span tree from a metrics
  sink and report ``--summary`` / ``--critical-path`` /
  ``--utilization`` / ``--faults-report``, or export ``--chrome
  OUT.json`` for chrome://tracing / Perfetto.
* ``bench`` — run the benchmark harness (:mod:`repro.bench`), append a
  record to the dated ``BENCH_<YYYYMMDD>.json`` trajectory, and gate
  against ``benchmarks/baseline.json`` (exit 1 on regression).
* ``serve`` — resident query server (:mod:`repro.serve`): load the
  packed dataset once, then answer ``/figures/<name>``, ``/query``,
  ``/stats``, and ``/healthz`` as JSON — plus ``/metrics`` as
  Prometheus text exposition — until SIGINT/SIGTERM.  Binds port 0 by
  default and announces the chosen port on stdout (``serving on
  http://host:port``) — never hard-code a port.
* ``loadtest <url>`` — hammer a live server with a thread pool of
  keep-alive connections; report p50/p95/p99 latency, sustained RPS,
  and the server-side max-in-flight gauge (exit 1 on any error).
  ``--slo p99=50ms,error_rate=0.1%`` evaluates the report against SLO
  objectives with burn reporting (observed/target) next to the
  server's sliding-window view; a violated objective also exits 1.
* ``top <url>`` — live refreshing terminal dashboard over a running
  server's ``/metrics``: windowed RPS and error rate, per-route
  p50/p95/p99, in-flight gauges, query-tier mix, fault/retry counters.

Engine flags (global, before the command): ``--workers N`` shards the
expectation run across N processes (default: the CPU count; 0 = serial),
``--no-cache`` disables the persistent dataset cache, ``--rebuild``
ignores and overwrites any cached dataset, ``--resume`` picks a killed
run back up from its month checkpoints, ``--faults SPEC`` injects
deterministic faults (``worker_crash:0.1,chunk_hang:0.05,seed:42`` —
see :mod:`repro.engine.faults`) to exercise the recovery paths, and
``--scale N`` (an integer >= 1) multiplies per-month record counts by N
at ``weight/N`` — record volume scales, aggregates stay put, and the
streaming ingest path keeps resident memory bounded (``--scale 1`` is
the seed dataset exactly).  Note ``bench``'s own ``--scale`` (after the
subcommand) is the micro-bench *iteration* multiplier, a different
knob; ``bench`` rejects a global ``--scale`` other than 1.  ``--backend fork|inline|spawn`` (``REPRO_BACKEND``; flag wins)
selects the execution backend worker chunks run on — see
:mod:`repro.engine.executors`.

Observability (:mod:`repro.obs`): ``--verbose`` (or ``REPRO_LOG_LEVEL``)
turns on the ``repro.*`` diagnostic loggers on stderr; ``--metrics
PATH`` (or ``REPRO_METRICS_PATH``; the flag wins when both are set)
appends one JSON line per engine event to that file (the CLI rotates a
pre-existing file aside at startup — except under ``trace``, which only
*reads* sinks and must never rotate the file it is about to analyze);
``--profile cprofile|tracemalloc`` wraps the engine phases in opt-in
profiling whose hotspots surface in ``stats --json`` and bench records.

Every command resolves the simulation through one process-wide
:func:`repro.simulation.ecosystem.default_model`, so chaining commands
in a single process (``main([...]); main([...])``) simulates at most
once.  :func:`model_kwargs` is the one place the engine flags become
that model's fields; the environment is read only for the six knobs
``REPRO_CACHE_DIR``, ``REPRO_CACHE_MAX_BYTES``, ``REPRO_FAULTS``,
``REPRO_BACKEND``, ``REPRO_LOG_LEVEL`` and ``REPRO_METRICS_PATH``.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import os
import sys
import time


def model_kwargs(args: argparse.Namespace) -> dict:
    """The global engine flags as :class:`EcosystemModel` fields.

    The one place CLI flags become run configuration: the shared
    default model and ``serve --start/--end``'s own model both take it.
    """
    return {
        "workers": args.workers,
        "use_cache": not args.no_cache,
        "rebuild": args.rebuild,
        "faults": args.faults,
        "resume": args.resume,
        "scale": args.scale,
    }


def _model(args: argparse.Namespace):
    from repro.simulation.ecosystem import default_model

    return default_model(**model_kwargs(args))


def cmd_figure(args: argparse.Namespace) -> int:
    from repro.core import figures

    generator = figures.FIGURE_GENERATORS.get(args.name)
    if generator is None:
        print(
            f"unknown figure {args.name!r}; "
            f"choose from {sorted(figures.FIGURE_GENERATORS)}",
            file=sys.stderr,
        )
        return 2
    store = _model(args).passive_store()
    series = generator(store)
    months = None
    if not args.all_months:
        months = [_dt.date(year, 1, 1) for year in range(2012, 2019)]
        months += [_dt.date(2018, 4, 1)]
    print(figures.render_series(series, sample_months=months))
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    from repro.core import tables

    number = args.number
    if number == 1:
        for name, date in tables.table1_version_dates():
            print(f"{name:<8} {date}")
        return 0
    if number == 2:
        model = _model(args)
        records = [
            r for r in model.passive_store().records() if r.fingerprint is not None
        ]
        for category, count, coverage in tables.table2_fingerprint_summary(
            model.database(), records
        ):
            print(f"{category:<26} {count:>5} fps  {coverage:6.2f}%")
        return 0
    rows = {
        3: tables.table3_cbc_changes,
        4: tables.table4_rc4_changes,
        5: tables.table5_3des_changes,
        6: tables.table6_protocol_support,
    }.get(number)
    if rows is None:
        print("table number must be 1-6", file=sys.stderr)
        return 2
    for row in rows():
        print(row)
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    archive = _model(args).scan(args.probe, interval_days=args.interval)
    key = args.key
    for date, value in archive.series(args.probe, key):
        print(f"{date}  {value * 100:6.2f}%")
    return 0


def cmd_pulse(args: argparse.Namespace) -> int:
    for survey in _model(args).pulse().series(interval_days=args.interval):
        print(
            f"{survey.date}  rc4 supported {survey.rc4_supported * 100:5.1f}%"
            f"   rc4-only {survey.rc4_only * 100:6.3f}%"
        )
    return 0


def cmd_fingerprint(args: argparse.Namespace) -> int:
    import random

    from repro.core.fingerprint import extract

    model = _model(args)
    try:
        family = model.clients.family(args.family)
        release = family.release(args.version)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    hello = release.build_hello(rng=random.Random(0))
    fingerprint = extract(hello)
    print(f"client : {release.label}")
    print(f"digest : {fingerprint.digest}")
    print(f"fields : {fingerprint.canonical}")
    label = model.database().match(fingerprint)
    if label:
        print(f"label  : {label.software} {label.version_range} ({label.category})")
    else:
        print("label  : (not in database)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.core.report import build_report

    print(build_report(_model(args)), end="")
    return 0


def cmd_calibration(args: argparse.Namespace) -> int:
    from repro.simulation.calibration import render_sheet

    print(render_sheet(), end="")
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    from repro.simulation.timeline import ATTACK_TIMELINE, BROWSER_RC4_REMOVAL

    events = ATTACK_TIMELINE + (BROWSER_RC4_REMOVAL if args.browsers else ())
    for event in sorted(events, key=lambda e: e.date):
        print(f"{event.date}  [{event.kind:<9}] {event.name:<18} {event.description}")
    return 0


#: Version of the ``stats --json`` document layout; bump on any
#: backwards-incompatible key change (tests pin the schema).
#: History: 1 — initial (schema/dataset/counters/derived/trace);
#: 2 — added top-level ``profile`` (null unless ``--profile`` is
#: active) and span records gained ``id`` /
#: ``parent_id`` / ``pid``.
#: 3 — ``counters`` gained the shape-tier fields ``shape_evals`` /
#: ``shape_path_hits`` / ``scan_fallbacks``.
#: 4 — ``counters`` gained the vector-tier fields ``vector_path_hits``
#: / ``vector_compile_misses``.
#: 5 — ``counters`` gained the resident server's request and error
#: counts and its per-route latency ledger.
#: 6 — live-telemetry layer: top-level ``histograms`` (named duration
#: histograms as mergeable snapshots — bounds/counts/count/sum/max/min/
#: exemplars) and ``window`` (the sliding-window section; null in batch
#: documents, populated by the resident server's ``/stats``); the
#: route-ledger entries swapped their unbounded ``samples`` list for a
#: bounded ``histogram`` snapshot; ``counters`` gained
#: ``duration_histograms``.
#: 7 — ``counters`` lost schema 5's three serve fields: a served
#: request is recorded only in its server's live telemetry, which the
#: resident server's ``/stats`` renders as ``server.requests`` /
#: ``server.errors`` / ``server.routes`` (same entry keys as before).
STATS_SCHEMA = 7


def _stats_payload(model, store, wall: float) -> dict:
    """The machine-readable ``stats --json`` document."""
    from repro import obs
    from repro.engine.perf import PERF

    return {
        "schema": STATS_SCHEMA,
        "dataset": {
            "start": model.start.isoformat(),
            "end": model.end.isoformat(),
            "months": len(store.months()),
            "records": len(store),
            "wall_seconds": wall,
        },
        "counters": PERF.snapshot(),
        "derived": {"records_per_second": PERF.records_per_second()},
        # Schema 6: named duration histograms (per-month simulation,
        # per-chunk wall) as mergeable snapshots, and the sliding-window
        # section — always null in batch documents; the resident
        # server's /stats fills it from live telemetry.
        "histograms": {
            name: hist.snapshot()
            for name, hist in sorted(PERF.duration_histograms.items())
        },
        "window": None,
        "trace": {
            "trace_id": obs.trace_id(),
            "spans": obs.snapshot_spans(),
            "dropped_spans": obs.TRACE.dropped,
        },
        "profile": obs.profile.snapshot(),
    }


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.engine.perf import PERF

    model = _model(args)
    started = time.perf_counter()
    store = model.passive_store()
    wall = time.perf_counter() - started
    if getattr(args, "json", False):
        import json

        print(json.dumps(_stats_payload(model, store, wall), indent=2, default=str))
        return 0
    months = store.months()
    print("DATASET")
    print("-------")
    print(f"window              : {model.start} .. {model.end}")
    print(f"months              : {len(months)}")
    print(f"records             : {len(store)}")
    print(f"dataset wall seconds: {wall:.3f}")
    print()
    print(PERF.render())
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """One expectation run end-to-end, fresh by default.

    The producer half of the worked pair ``repro run --metrics m.jsonl
    && repro trace m.jsonl`` — without ``--rebuild``-by-default a warm
    cache would short-circuit the engine and leave nothing to trace.
    """
    from repro import obs

    if not args.cached:
        args.rebuild = True
    model = _model(args)
    started = time.perf_counter()
    store = model.passive_store()
    wall = time.perf_counter() - started
    print(
        f"run complete: {len(store.months())} month(s), "
        f"{len(store)} records in {wall:.3f}s"
    )
    sink = obs.metrics_path()
    if sink:
        print(f"metrics sink: {sink}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import analyze

    try:
        events = analyze.load_events(args.metrics_file)
        analysis = analyze.analyze(events, args.trace_id)
    except analyze.TraceError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 2
    sections = []
    if args.summary:
        sections.append(analyze.render_summary(analysis))
    if args.critical_path:
        sections.append(analyze.render_critical_path(analysis))
    if args.utilization:
        sections.append(analyze.render_utilization(analysis))
    if args.faults_report:
        sections.append(analyze.render_faults(analysis))
    if not sections and not args.chrome:
        sections.append(analyze.render_summary(analysis))
    if sections:
        print("\n\n".join(sections))
    if args.chrome:
        path = analyze.write_chrome_trace(analysis, args.chrome)
        print(
            f"chrome trace written: {path} "
            "(load in ui.perfetto.dev or chrome://tracing)"
        )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro import bench

    try:
        run = bench.run_benches(
            args.benches or None,
            quick=args.quick,
            scale=args.bench_scale,
            profile_mode=getattr(args, "profile", None),
        )
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    trajectory = bench.write_trajectory(run, args.out_dir)
    baseline_arg = args.baseline or bench.DEFAULT_BASELINE
    if args.update_baseline:
        baseline_path = Path(baseline_arg)
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(
            json.dumps(bench.make_baseline(run), indent=2), encoding="utf-8"
        )
        print(bench.render_run(run))
        print(f"\ntrajectory: {trajectory}")
        print(f"baseline updated: {baseline_path}")
        return 0
    baseline = bench.load_baseline(baseline_arg)
    if baseline is None:
        print(bench.render_run(run))
        print(f"\ntrajectory: {trajectory}")
        print(f"bench: no baseline at {baseline_arg}; gate skipped", file=sys.stderr)
        return 0
    failures = bench.diff_baseline(run, baseline)
    print(bench.render_run(run, failures))
    print(f"\ntrajectory: {trajectory}")
    return 1 if failures else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the resident query server until SIGINT/SIGTERM.

    The socket binds and the port is announced *before* the dataset
    loads (``/healthz`` answers 503 meanwhile), so orchestrators can
    poll readiness instead of retrying connection failures.  The
    chosen port is printed as ``serving on http://host:port`` — with
    the default ``--port 0`` the kernel picks a free one, which is
    what keeps parallel CI jobs collision-free.
    """
    import signal

    from repro.serve.server import announce_line, start_server

    def load_store():
        if args.start is not None or args.end is not None:
            from repro.simulation.ecosystem import (
                STUDY_END,
                STUDY_START,
                EcosystemModel,
            )

            model = EcosystemModel(
                start=args.start or STUDY_START,
                end=args.end or STUDY_END,
                **model_kwargs(args),
            )
        else:
            model = _model(args)
        return model.passive_store()

    handle = start_server(
        loader=load_store,
        host=args.host,
        port=args.port,
        query_workers=getattr(args, "query_workers", 0),
    )
    print(announce_line(args.host, handle.port), flush=True)

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        while handle.thread.is_alive():
            handle.thread.join(timeout=0.5)
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        handle.close()
    print("shutdown: clean", flush=True)
    return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.serve.loadtest import parse_slo, render_report, run_loadtest

    slo = None
    if getattr(args, "slo", None):
        try:
            slo = parse_slo(args.slo)
        except ValueError as exc:
            print(f"loadtest: {exc}", file=sys.stderr)
            return 2
    report = run_loadtest(
        args.url,
        requests=args.requests,
        concurrency=args.concurrency,
        timeout=args.timeout,
        slo=slo,
    )
    if args.json:
        import json

        print(json.dumps(report, indent=2))
    else:
        print(render_report(report))
    slo_failed = slo is not None and not report["slo"]["ok"]
    return 1 if (report["errors"] or slo_failed) else 0


def cmd_top(args: argparse.Namespace) -> int:
    from repro.serve.top import run_top

    return run_top(
        args.url,
        interval=args.interval,
        iterations=args.count,
        timeout=args.timeout,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Coming of Age: A Longitudinal Study of TLS Deployment' (IMC 2018)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for the expectation run "
             "(default: CPU count; 0 = serial)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent dataset cache (REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--rebuild", action="store_true",
        help="ignore any cached dataset and overwrite it with a fresh run",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume a killed run from its month checkpoints",
    )
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject deterministic faults, e.g. "
             "'worker_crash:0.1,chunk_hang:0.05,seed:42' (REPRO_FAULTS)",
    )
    parser.add_argument(
        "--scale", type=int, default=1, metavar="N",
        help="dataset scale: emit every expectation record N times at "
             "weight/N — record counts multiply, aggregates stay put "
             "(default 1 = the seed dataset exactly); applies to the "
             "commands that build the dataset, and bench rejects it",
    )
    parser.add_argument(
        "--backend", default=None, choices=["fork", "inline", "spawn"],
        help="execution backend for worker chunks: fork pool (platform "
             "default), inline in-process, or spawned interpreters "
             "(REPRO_BACKEND; the flag wins when both are set)",
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true",
        help="DEBUG-level repro.* diagnostics on stderr "
             "(default level: REPRO_LOG_LEVEL or WARNING)",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="append one JSON line per engine event to PATH "
             "(alias for REPRO_METRICS_PATH; the flag wins when both "
             "are set)",
    )
    parser.add_argument(
        "--profile", default=None, choices=["cprofile", "tracemalloc"],
        help="profile the engine phases and surface hotspots in "
             "stats --json / bench records",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The observability flags also parse *after* the subcommand
    # (``repro run --metrics m.jsonl``).  SUPPRESS keeps an absent
    # subcommand-position flag from clobbering a value the global
    # position already parsed.
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--metrics", default=argparse.SUPPRESS, metavar="PATH",
        help=argparse.SUPPRESS,
    )
    obs_flags.add_argument(
        "--profile", default=argparse.SUPPRESS,
        choices=["cprofile", "tracemalloc"], help=argparse.SUPPRESS,
    )

    p_figure = sub.add_parser("figure", help="print a paper figure's series")
    p_figure.add_argument("name", help="fig1 .. fig10")
    p_figure.add_argument("--all-months", action="store_true")
    p_figure.set_defaults(func=cmd_figure)

    p_table = sub.add_parser("table", help="print a paper table")
    p_table.add_argument("number", type=int, help="1 .. 6")
    p_table.set_defaults(func=cmd_table)

    p_scan = sub.add_parser("scan", help="run a Censys-style scan schedule")
    p_scan.add_argument("probe", choices=["chrome2015", "ssl3", "export"])
    p_scan.add_argument("--key", default="handshake",
                        help="handshake | rc4 | cbc | 3des | aead | fs | heartbeat | heartbleed")
    p_scan.add_argument("--interval", type=int, default=56)
    p_scan.set_defaults(func=cmd_scan)

    p_pulse = sub.add_parser("pulse", help="run the SSL Pulse RC4 survey")
    p_pulse.add_argument("--interval", type=int, default=56)
    p_pulse.set_defaults(func=cmd_pulse)

    p_fp = sub.add_parser("fingerprint", help="fingerprint a known client release")
    p_fp.add_argument("family", help='e.g. "Chrome"')
    p_fp.add_argument("version", help='e.g. "49"')
    p_fp.set_defaults(func=cmd_fingerprint)

    p_report = sub.add_parser("report", help="print the full study summary")
    p_report.set_defaults(func=cmd_report)

    p_cal = sub.add_parser("calibration", help="print the calibration sheet")
    p_cal.set_defaults(func=cmd_calibration)

    p_tl = sub.add_parser("timeline", help="print the attack timeline")
    p_tl.add_argument("--browsers", action="store_true",
                      help="include browser RC4-removal milestones")
    p_tl.set_defaults(func=cmd_timeline)

    p_stats = sub.add_parser(
        "stats", parents=[obs_flags],
        help="build/load the dataset and print engine perf counters",
    )
    p_stats.add_argument(
        "--json", action="store_true",
        help="emit the dataset summary, every perf counter, and the "
             "run's trace spans as one JSON document",
    )
    p_stats.set_defaults(func=cmd_stats)

    p_run = sub.add_parser(
        "run", parents=[obs_flags],
        help="execute one expectation run end-to-end (fresh by default)",
    )
    p_run.add_argument(
        "--cached", action="store_true",
        help="allow the persistent dataset cache to satisfy the run "
             "(default rebuilds so the engine actually executes)",
    )
    p_run.set_defaults(func=cmd_run)

    p_trace = sub.add_parser(
        "trace", help="analyze a metrics JSONL sink (span tree, critical "
                      "path, utilization, Chrome trace export)"
    )
    p_trace.add_argument("metrics_file", help="path to a metrics .jsonl sink")
    p_trace.add_argument(
        "--trace-id", default=None,
        help="analyze this trace (default: the sink's last run)",
    )
    p_trace.add_argument(
        "--summary", action="store_true",
        help="span-tree summary (default when no mode is given)",
    )
    p_trace.add_argument(
        "--critical-path", action="store_true",
        help="the chain of spans that bounded the run's wall clock",
    )
    p_trace.add_argument(
        "--utilization", action="store_true",
        help="per-worker busy/idle/retry timeline and straggler",
    )
    p_trace.add_argument(
        "--faults-report", action="store_true",
        help="retry/timeout/fault attribution per month and chunk",
    )
    p_trace.add_argument(
        "--chrome", default=None, metavar="OUT.json",
        help="export Chrome-trace JSON (chrome://tracing, Perfetto)",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_bench = sub.add_parser(
        "bench", parents=[obs_flags],
        help="run the benchmark harness; append to the dated "
             "trajectory and gate against benchmarks/baseline.json",
    )
    p_bench.add_argument(
        "benches", nargs="*",
        help="bench names to run (default: all; see repro.bench.BENCHES)",
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="the CI subset: micro-benches, serial engine, anchors",
    )
    p_bench.add_argument(
        "--scale", dest="bench_scale", type=float, default=1.0, metavar="X",
        help="multiply micro-bench iteration counts by X (default 1.0; "
             "distinct from the global --scale dataset knob)",
    )
    p_bench.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline to gate against (default benchmarks/baseline.json)",
    )
    p_bench.add_argument(
        "--update-baseline", action="store_true",
        help="pin this run's numbers as the new baseline instead of gating",
    )
    p_bench.add_argument(
        "--out-dir", default=".", metavar="DIR",
        help="directory for BENCH_<YYYYMMDD>.json (default: cwd)",
    )
    p_bench.set_defaults(func=cmd_bench)

    p_serve = sub.add_parser(
        "serve", parents=[obs_flags],
        help="resident query server: figures/queries/stats as a JSON "
             "API over one shared packed store (binds port 0 and "
             "announces the chosen port)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="bind port; 0 (the default) lets the kernel pick a free "
             "one, announced as 'serving on http://host:port'",
    )
    p_serve.add_argument(
        "--start", type=_dt.date.fromisoformat, default=None,
        metavar="YYYY-MM-DD",
        help="serve a sub-window starting here (default: full study)",
    )
    p_serve.add_argument(
        "--end", type=_dt.date.fromisoformat, default=None,
        metavar="YYYY-MM-DD",
        help="serve a sub-window ending here (default: full study)",
    )
    p_serve.add_argument(
        "--query-workers", type=int, default=0, metavar="N",
        help="dispatch /query and /figures evaluation to N pre-warmed "
             "store replica processes (default 0 = the threaded path; "
             "needs the fork start method)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_load = sub.add_parser(
        "loadtest", parents=[obs_flags],
        help="drive concurrent requests at a live server; report "
             "p50/p95/p99 latency and sustained RPS (exit 1 on errors)",
    )
    p_load.add_argument("url", help="server base URL, e.g. http://127.0.0.1:8321")
    p_load.add_argument(
        "--requests", type=int, default=2000,
        help="total request budget across all threads (default 2000)",
    )
    p_load.add_argument(
        "--concurrency", type=int, default=32,
        help="client threads, one keep-alive connection each (default 32)",
    )
    p_load.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request socket timeout in seconds (default 30)",
    )
    p_load.add_argument(
        "--json", action="store_true",
        help="emit the report as JSON instead of the human summary",
    )
    p_load.add_argument(
        "--slo", default=None, metavar="SPEC",
        help="evaluate the report against SLO objectives, e.g. "
             "'p99=50ms,error_rate=0.1%%' (p50/p95/p99/max in ms or s, "
             "error_rate as %% or fraction); a violation exits 1",
    )
    p_load.set_defaults(func=cmd_loadtest)

    p_top = sub.add_parser(
        "top",
        help="live terminal dashboard over a running server's /metrics "
             "(windowed RPS, per-route p50/p95/p99, tier mix, faults)",
    )
    p_top.add_argument(
        "url", help="server base URL, e.g. http://127.0.0.1:8321"
    )
    p_top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh interval (default 2.0)",
    )
    p_top.add_argument(
        "--count", type=int, default=0, metavar="N",
        help="render N frames then exit (default 0 = until interrupted)",
    )
    p_top.add_argument(
        "--timeout", type=float, default=10.0,
        help="per-poll socket timeout in seconds (default 10)",
    )
    p_top.set_defaults(func=cmd_top)

    return parser


def main(argv: list[str] | None = None) -> int:
    from repro import obs

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.scale < 1:
        parser.error(f"argument --scale: must be >= 1, got {args.scale}")
    if args.scale != 1 and getattr(args, "func", None) is cmd_bench:
        parser.error(
            "argument --scale: bench runs its windows at scale 1; its own "
            "--scale (after the subcommand) multiplies iteration counts"
        )
    obs.configure_logging("DEBUG" if getattr(args, "verbose", False) else None)
    # --metrics is a first-class alias for REPRO_METRICS_PATH; the flag
    # wins over an ambient variable (explicit beats environment, same
    # precedence every other knob uses).  Installing it into the env
    # keeps worker processes and in-process chained commands consistent.
    if getattr(args, "metrics", None):
        os.environ["REPRO_METRICS_PATH"] = args.metrics
    # And for the execution backend — every run_expectation call in
    # this process (and any child it spawns) sees the selection.  The
    # flag is validated eagerly so a typo fails at the CLI boundary.
    if getattr(args, "backend", None) is not None:
        from repro.engine import executors

        os.environ["REPRO_BACKEND"] = executors.resolve_backend(args.backend)
    # Each CLI invocation's metrics history starts clean (first call in
    # a process rotates any pre-existing sink file; chained in-process
    # commands keep appending to the fresh one).  ``trace`` is a pure
    # reader: rotating there would move aside the very file the user
    # asked it to analyze.
    if args.command != "trace":
        obs.rotate_existing()
    obs.profile.configure(getattr(args, "profile", None))
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
