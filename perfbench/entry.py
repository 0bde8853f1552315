"""Benchmark-owned entry point: ``python perfbench/entry.py [opts] -- <repro args>``.

Installs the layer-tracing wrappers (``--trace-dir DIR``) and/or one
injected regression (``--inject NAME``), then runs ``repro.cli.main``
with the remaining arguments, exactly as ``python -m repro`` would.
The untraced, uninjected benchmark never uses this file: it launches
the real CLI.

Injections exist so the self-tests can show that every end-to-end
metric is able to fail:

* ``sleep``   — the server sleeps 10 ms in every request (``p50_ms``, ``rps``);
* ``corrupt`` — the server serves fig2 with one value changed (``failed``);
* ``records`` — the build drops one record per month (wrong record count);
* ``memory``  — the process holds 64 MiB more (``build_rss_mb``, ``serve_rss_mb``);
* ``stall``   — the dataset cache's ``save_store`` and ``load_store`` first
  sleep as long as the process has run so far (``build_s``, ``setup_s``).
"""

from __future__ import annotations

import functools
import os
import sys
import time

INJECTIONS = ("sleep", "corrupt", "records", "memory", "stall")

#: When this process started running Python code, for ``stall``.
_STARTED = time.perf_counter()

_BALLAST: list = []


def inject(name: str) -> None:
    if name == "sleep":
        from repro.serve import server

        original_handle = server.ReproRequestHandler._handle

        @functools.wraps(original_handle)
        def handle(self, method):
            time.sleep(0.010)
            return original_handle(self, method)

        server.ReproRequestHandler._handle = handle
    elif name == "corrupt":
        from repro.core import figures

        original = figures.FIGURE_GENERATORS["fig2"]

        @functools.wraps(original)
        def fig2(store):
            series = original(store)
            label = sorted(series)[0]
            points = list(series[label])
            month, value = points[-1]
            points[-1] = (month, value + 1e-6)
            return {**series, label: points}

        figures.FIGURE_GENERATORS["fig2"] = fig2
    elif name == "records":
        from repro.notary import generator

        original_stream = generator.TrafficGenerator.stream_expectation_month

        @functools.wraps(original_stream)
        def stream_expectation_month(self, month):
            records = original_stream(self, month)
            # Drop the month's first record.
            next(records, None)
            return records

        generator.TrafficGenerator.stream_expectation_month = stream_expectation_month
    elif name == "memory":
        ballast = bytearray(64 << 20)
        for offset in range(0, len(ballast), 4096):
            ballast[offset] = 1
        _BALLAST.append(ballast)
    elif name == "stall":
        from repro.engine import cache

        def stalled(original):
            @functools.wraps(original)
            def call(*args, **kwargs):
                # Sized to the process's own pace: the build saves at its
                # end and the server loads right after start-up, so each
                # wall grows by about as much as came before the call.
                time.sleep(time.perf_counter() - _STARTED)
                return original(*args, **kwargs)

            return call

        cache.save_store = stalled(cache.save_store)
        cache.load_store = stalled(cache.load_store)
    else:
        raise SystemExit(f"entry: unknown injection {name!r}; choose from {INJECTIONS}")


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: entry.py [--trace-dir DIR] [--inject NAME] -- <repro args>",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    opts, repro_argv = argv[:split], argv[split + 1:]
    trace_dir = None
    injections = []
    while opts:
        flag = opts.pop(0)
        if flag == "--trace-dir" and opts:
            trace_dir = opts.pop(0)
        elif flag == "--inject" and opts:
            injections.append(opts.pop(0))
        else:
            print(f"entry: unknown option {flag!r}", file=sys.stderr)
            return 2

    from repro import cli
    from repro.obs import configure_logging

    configure_logging()
    for name in injections:
        inject(name)
    if trace_dir is None:
        return cli.main(repro_argv)

    import tracing

    tracing.install(trace_dir)
    tracer = tracing.TRACER
    # A server process is idle between requests: its traced time is its
    # requests and its loader thread, not its lifetime.
    frame = None if "serve" in repro_argv else tracer.begin(tracing.UNATTRIBUTED)
    try:
        return cli.main(repro_argv)
    finally:
        if frame is not None:
            tracer.end(frame)
        from repro.engine.perf import PERF

        tracer.dump(
            os.path.join(trace_dir, f"proc-{os.getpid()}.jsonl"),
            {
                "perf": PERF.snapshot_ints(),
                "run_seconds": PERF.run_seconds,
                "chunks": PERF.chunk_attribution,
            },
        )


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
