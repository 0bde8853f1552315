"""End-to-end benchmark of the TLS-deployment reproduction's CLI.

    python3 perfbench/run.py --workload figures|queries|all \\
        --seed N --seconds S --trace 0|1

Every run is one user session driven from this process, with the
program always in child processes of its own:

1. **build** — a fresh ``repro --workers 2 run`` of the full 76-month
   study into an empty dataset cache, including the cache save
   (``build_s``, ``build_rss_mb``).
2. **set-up** — ``repro serve`` launched on that cache and timed from
   launch to the first 200 from ``/healthz`` (``setup_s``).
3. **traffic** — one more server, also a set-up sample, driven by this
   process's own client: a closed loop on two keep-alive connections
   (``rps``), then an open loop at the workload's fixed offered rate on
   a seeded stratified schedule, each request timed from when it was due
   (``p50_ms``; ``p95_ms`` is printed but not gated), and the server's
   peak RSS (``serve_rss_mb``).  ``figures`` fetches fig1..fig10 in
   order, over and over; ``queries`` sends distinct composite
   ``POST /query`` documents.
Steps 1-3 run as two blocks, so each metric pools samples taken
across the whole run (``build_s`` and ``setup_s`` are medians of two
and four).

4. **check** — a helper process loads the same cache and computes every
   answer through ``FIGURE_GENERATORS`` / ``wire.execute_query``; each
   response must equal it after the JSON round trip.  Every build must
   report 76 months and 373,217 records.

``--trace 1`` runs the same session through ``perfbench/entry.py``,
which wraps each layer's public functions (see ``tracing.py``), and
prints a per-layer self-time table plus the tracing overhead (an
untraced build and closed loop are measured alongside for that).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

import client  # noqa: E402
import workloads  # noqa: E402

STUDY_MONTHS = 76
STUDY_RECORDS = 373_217
#: ``repro --workers``: this box's CPU count and the CLI default here.
BUILD_WORKERS = 2
#: The open loop is invalid when the generator itself ran this late at
#: p99; twice the worst lateness seen here while the box was slowest.
LAG_LIMIT_MS = 20.0
#: The tail percentile reported, and the fewest open-loop requests a
#: run sends: enough for at least ten samples beyond the tail.
TAIL = 95
MIN_SAMPLES = 220
#: Blocks of build -> launch -> traffic per run.  Two builds of one run
#: differ by up to a quarter on this shared box.
BUILDS = 2
#: Shares of ``--seconds`` given to the closed and the open loop; the
#: open loop runs longer when ``MIN_SAMPLES`` needs it.
CLOSED_SHARE, OPEN_SHARE = 0.4, 0.6


@dataclass(frozen=True)
class Workload:
    why: str
    #: Offered open-loop rate, req/s, fixed: a faster server shows up as
    #: lower latency at the same load.
    rate: float


WORKLOADS = {
    # Every request repeats; fig4 (~250 ms through shape templates) and
    # fig5 (~27 ms) dominate the server, the query engine idles.  A
    # quarter of the closed-loop rps of about 34: fig4 slows the requests
    # that arrive while it runs, and at 12 req/s those plus fig4 and fig5
    # are half of each cycle of ten, so the median fell between the
    # "alone" and "overlapped" modes of the GIL-bound server.
    "figures": Workload(
        "every request repeats; figure generation and encoding dominate", 8.0,
    ),
    # Distinct documents, each paying decode, vector compile, fold and
    # encode.  A sixth of the closed-loop rps of about 290: at 100 req/s
    # a slow spell of the shared box (half the usual speed for minutes)
    # pushes the server into queueing and p95 from 8 ms to 50 ms.
    "queries": Workload(
        "distinct cheap queries; fixed per-request costs dominate", 50.0,
    ),
}

#: The metrics of the result line, as listed in ``BENCHMARK.json``.
END_TO_END_UNITS = {
    "build_s": "s",
    "setup_s": "s",
    "rps": "req/s",
    "p50_ms": "ms",
    "build_rss_mb": "MiB",
    "serve_rss_mb": "MiB",
}
#: Printed with the others but not gated: the ``queries`` p95 (about
#: 8 ms) moved by half from run to run with the box's slow spells.
REPORTED_UNITS = {**END_TO_END_UNITS, f"p{TAIL}_ms": "ms"}

#: Layers whose self times, with ``unattributed``, sum to the traced wall.
SELF_LAYERS = (
    "generator.busy", "partition.pack", "runner.run", "runner.adopt",
    "store.index_build", "cache.spill", "cache.save", "cache.load",
    "server.http", "server.wait", "figures.fig4", "figures.fig5",
    "figures.other", "store.shape_templates", "store.query",
    "wire.decode", "wire.encode", "obs.observe", "unattributed",
)


class BenchError(RuntimeError):
    """The session could not run at all (no result is printed)."""


# ---- child processes ---------------------------------------------------------


class Session:
    """One run's scratch directory and every child process it started."""

    def __init__(self, seed: int, trace: bool, inject: str | None) -> None:
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        self.seed = seed
        self.trace = trace
        self.inject = inject
        self.children: list[subprocess.Popen] = []
        self.log = open(self.dir / "children.log", "ab")

    def env(self, cache: Path) -> dict:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_CACHE_DIR"] = str(cache)
        # The engine spills to anonymous temp files: keep them in the run.
        env["TMPDIR"] = str(self.dir)
        return env

    def command(self, argv: list[str], trace_dir: Path | None) -> list[str]:
        if trace_dir is None and self.inject is None:
            return [sys.executable, "-m", "repro", *argv]
        opts = []
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            opts += ["--trace-dir", str(trace_dir)]
        if self.inject is not None:
            opts += ["--inject", self.inject]
        return [sys.executable, str(HERE / "entry.py"), *opts, "--", *argv]

    def spawn(self, argv: list[str], cache: Path, trace_dir: Path | None = None,
              stdout=subprocess.DEVNULL) -> subprocess.Popen:
        proc = subprocess.Popen(
            self.command(argv, trace_dir), cwd=ROOT, env=self.env(cache),
            stdout=stdout, stderr=self.log, stdin=subprocess.DEVNULL,
        )
        self.children.append(proc)
        return proc

    def close(self) -> None:
        for proc in self.children:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self.log.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def build(session: Session, cache: Path, trace_dir: Path | None = None) -> dict:
    """One cold ``repro run`` into ``cache``: wall, peak RSS, counts."""
    argv = ["--workers", str(BUILD_WORKERS), "run"]
    started = time.perf_counter()
    proc = session.spawn(argv, cache, trace_dir, stdout=subprocess.PIPE)
    deadline = started + 150.0
    while True:
        # Reaping with wait4 gives the peak RSS of the child and of the
        # pool workers it reaped itself.
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = proc.stdout.read().decode(errors="replace")
    proc.stdout.close()
    months = records = None
    for line in out.splitlines():
        if line.startswith("run complete:"):
            words = line.split()
            months, records = int(words[2]), int(words[4])
    problem = None
    if proc.returncode != 0:
        problem = f"repro run exited {proc.returncode}"
    elif (months, records) != (STUDY_MONTHS, STUDY_RECORDS):
        problem = f"repro run built {months} months / {records} records"
    return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0, "problem": problem}


def _get(port: int, path: str, timeout: float = 5.0) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def launch_server(session: Session, cache: Path, trace_dir: Path | None = None):
    """Start ``repro serve``; return (process, port, seconds to ready)."""
    started = time.perf_counter()
    proc = session.spawn(["serve"], cache, trace_dir, stdout=subprocess.PIPE)
    deadline = started + 60.0
    line = b""
    while not line.endswith(b"\n"):
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
        if not ready:
            raise BenchError("repro serve never announced its port")
        chunk = os.read(proc.stdout.fileno(), 4096)
        if not chunk:
            raise BenchError("repro serve exited before announcing its port")
        line += chunk
    port = int(line.decode().strip().rsplit(":", 1)[1])
    while True:
        try:
            status, _ = _get(port, "/healthz")
        except OSError:
            status = None
        if status == 200:
            return proc, port, time.perf_counter() - started
        if proc.poll() is not None or time.perf_counter() > deadline:
            raise BenchError(f"repro serve never became ready (last /healthz {status})")
        time.sleep(0.002)


def vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc status")


def stop_server(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


# ---- traffic -----------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]


# ---- answers -----------------------------------------------------------------


def check_answers(session: Session, cache: Path, outcomes: list, queries) -> None:
    """Compare every response with the helper's answer; a wrong answer
    is a failed request."""
    keys = {key for outcome in outcomes for key, _ in outcome.bodies}
    sent = sorted(k for k in keys if isinstance(k, int))
    wanted = {
        "figures": sorted(k for k in keys if isinstance(k, str)),
        "queries": [queries.docs[k] for k in sent],
    }
    source, target = session.dir / "wanted.json", session.dir / "answers.json"
    source.write_text(json.dumps(wanted))
    helper = subprocess.Popen(
        [sys.executable, str(HERE / "expect.py"), str(source), str(target)],
        cwd=ROOT, env=session.env(cache), stdout=subprocess.DEVNULL,
        stderr=session.log, stdin=subprocess.DEVNULL,
    )
    session.children.append(helper)
    if helper.wait(timeout=150) != 0:
        raise BenchError("the expected-answer helper failed")
    answers = json.loads(target.read_text())
    if not answers["cache_hit"]:
        raise BenchError("the helper did not find the built cache")
    answers["queries"] = dict(zip(sent, answers["queries"]))
    for outcome in outcomes:
        for (key, body), count in outcome.bodies.items():
            got = json.loads(body)
            got.pop("api", None)
            expected = (
                answers["figures"][key] if isinstance(key, str)
                else answers["queries"][key]
            )
            if got != expected:
                outcome.fail(f"wrong answer for {key!r}", count)


# ---- one session -------------------------------------------------------------


def _collect_trace(directory: Path) -> dict:
    """Sum the dumps of every traced process at or below ``directory``.

    Only the build's CLI process dumps chunks and counters, so those
    come from it wherever the sum starts.
    """
    merged = {"self_s": {}, "totals": {}, "root_s": 0.0,
              "spans": 0, "perf": {}, "chunks": [], "run_seconds": 0.0}
    for path in sorted(directory.rglob("*.jsonl")):
        for line in path.read_text().splitlines():
            doc = json.loads(line)
            for section in ("self_s", "totals"):
                for key, value in doc[section].items():
                    merged[section][key] = merged[section].get(key, 0) + value
            merged["root_s"] += doc["root_s"]
            merged["spans"] += len(doc["spans"])
            if doc.get("chunks"):
                merged["perf"] = doc["perf"]
                merged["chunks"] = doc["chunks"]
                merged["run_seconds"] = doc["run_seconds"]
    return merged


def _inputs_digest(outcomes: list, queries) -> str:
    """A digest of the inputs answered: figure names or query documents."""
    keys = sorted({key for outcome in outcomes for key, _ in outcome.bodies}, key=str)
    digest = hashlib.sha1()
    for key in keys:
        doc = key if isinstance(key, str) else queries.docs[key]
        digest.update(json.dumps(doc, sort_keys=True).encode())
    return digest.hexdigest()[:12]


def run_session(name: str, seed: int, seconds: float, trace: bool,
                inject: str | None = None) -> dict:
    session = Session(seed, trace, inject)
    try:
        return _session(session, WORKLOADS[name], seconds)
    finally:
        session.close()


def _combine(outcomes: list) -> client.Outcome:
    """One outcome for the same loop run in several blocks."""
    total = client.Outcome()
    for outcome in outcomes:
        total.attempted += outcome.attempted
        total.failed += outcome.failed
        total.wall += outcome.wall
        total.errors.extend(outcome.errors[: 5 - len(total.errors)])
        for entry, count in outcome.bodies.items():
            total.bodies[entry] = total.bodies.get(entry, 0) + count
        total.latencies.extend(outcome.latencies)
        total.services.extend(outcome.services)
        total.lags.extend(outcome.lags)
    return total


def _session(session: Session, spec: Workload, seconds: float) -> dict:
    """Build, set up and serve in blocks, then check every answer.

    A timed session runs ``BUILDS`` blocks of build -> launch -> traffic
    and pools their samples, so the serve metrics sample the whole run
    rather than one stretch of a shared machine.  A traced session runs
    one block through the traced entry point, plus an untraced build and
    closed loop as the overhead baseline.
    """
    tdir = (lambda phase: session.dir / "trace" / phase) if session.trace else (lambda phase: None)
    blocks = 1 if session.trace else BUILDS
    queries = workloads.QueryStream(session.seed) if spec is WORKLOADS["queries"] else None
    closed_s = seconds * CLOSED_SHARE / blocks
    count = -(-max(MIN_SAMPLES, round(spec.rate * seconds * OPEN_SHARE)) // blocks)
    sent = [0]

    def closed_streams():
        if queries is None:
            return [workloads.figure_cycles(5 * i) for i in range(client.CONNECTIONS)]
        # Enough distinct documents for any closed-loop rate this box
        # reaches; a pool that runs dry only ends the loop early.
        pool = iter([[request] for request in queries.take(int(closed_s * 1000))])
        return [pool] * client.CONNECTIONS

    def open_requests():
        if queries is not None:
            return queries.take(count)
        start, sent[0] = sent[0], sent[0] + count
        return [workloads.figure_request(workloads.FIGURES[i % 10]) for i in range(start, start + count)]

    builds, setups, serve_rss, problems = [], [], [], []
    closed, opened = [], []
    traced = {}
    phase_s = {"build": 0.0, "serve": 0.0, "check": 0.0}
    cache = None
    for block in range(blocks):
        started = time.perf_counter()
        if cache is not None:
            shutil.rmtree(cache, ignore_errors=True)
        cache = session.dir / f"cache-{block}"
        builds.append(build(session, cache))
        if session.trace:
            shutil.rmtree(cache, ignore_errors=True)
            cache = session.dir / "cache-traced"
            traced["build"] = build(session, cache, tdir("build"))
            builds.append(traced["build"])
        fresh = builds[-2:] if session.trace else builds[-1:]
        problems.extend(b["problem"] for b in fresh if b["problem"])
        if not any(cache.glob("*.bin")):
            raise BenchError(f"no dataset cache was built ({problems})")
        served = time.perf_counter()
        phase_s["build"] += served - started

        proc, _, ready = launch_server(session, cache, tdir("setup"))
        setups.append(ready)
        stop_server(proc)
        if session.trace:
            proc, port, _ = launch_server(session, cache)
            traced["baseline"] = client.closed_loop(port, closed_streams(), closed_s)
            stop_server(proc)
        proc, port, ready = launch_server(session, cache, tdir("serve"))
        setups.append(ready)
        health = json.loads(_get(port, "/healthz")[1])
        if (health.get("months"), health.get("records")) != (STUDY_MONTHS, STUDY_RECORDS):
            problems.append(
                f"server holds {health.get('months')} months / {health.get('records')} records"
            )
        closed.append(client.closed_loop(port, closed_streams(), closed_s))
        offsets = workloads.arrival_offsets(session.seed * 1000 + block, spec.rate, count)
        opened.append(client.open_loop(port, open_requests(), offsets))
        if session.trace:
            traced["counters"] = json.loads(_get(port, "/stats")[1])["counters"]
        serve_rss.append(vm_hwm_mb(proc.pid))
        stop_server(proc)
        phase_s["serve"] += time.perf_counter() - served

    closed, opened = _combine(closed), _combine(opened)
    outcomes = [closed, opened] + ([traced["baseline"]] if session.trace else [])
    started = time.perf_counter()
    check_answers(session, cache, outcomes, queries)
    phase_s["check"] = time.perf_counter() - started

    attempted = len(builds) + len(setups) + sum(o.attempted for o in outcomes)
    failed = sum(1 for b in builds if b["problem"]) + sum(o.failed for o in outcomes)
    for outcome in outcomes:
        problems.extend(outcome.errors)
    latencies = opened.latencies
    lag_p99_ms = _percentile(opened.lags, 99) * 1000 if opened.lags else 0.0
    if lag_p99_ms > LAG_LIMIT_MS:
        problems.append(
            f"invalid run: the load generator ran {lag_p99_ms:.1f} ms late at p99"
        )
    answered = sum(n for o in outcomes for n in o.bodies.values())
    distinct = len({key for o in outcomes for key, _ in o.bodies})
    tail_ms = _percentile(latencies, TAIL) * 1000 if latencies else float("nan")
    timed_builds = [b for b in builds if b is not traced.get("build")]
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {
            "build_s": statistics.median([b["wall"] for b in timed_builds]),
            "setup_s": statistics.median(setups),
            "rps": (closed.attempted - closed.failed) / closed.wall,
            "p50_ms": _percentile(latencies, 50) * 1000 if latencies else float("nan"),
            f"p{TAIL}_ms": tail_ms,
            "build_rss_mb": statistics.median([b["rss_mb"] for b in timed_builds]),
            "serve_rss_mb": statistics.median(serve_rss),
        },
        "info": {
            "builds": len(timed_builds),
            "build_walls": [round(b["wall"], 3) for b in timed_builds],
            "launches": len(setups),
            "closed_requests": closed.attempted,
            "open_rate": spec.rate,
            "samples": len(latencies),
            "beyond_tail": sum(1 for v in latencies if v * 1000 > tail_ms),
            "error_rate": failed / attempted,
            "lag_p99_ms": lag_p99_ms,
            "repeat_share": (answered - distinct) / answered if answered else 0.0,
            "inputs": _inputs_digest(outcomes, queries),
            "phase_s": phase_s,
        },
    }
    if session.trace:
        result["layers"] = _layer_metrics(
            session.dir / "trace", cache, builds[0], traced, closed, opened,
            result["info"],
        )
    return result


def _layer_metrics(trace_root: Path, cache: Path, untraced_build: dict, traced: dict,
                   closed, opened, info: dict) -> dict:
    total = _collect_trace(trace_root)
    self_s = total["self_s"]
    build_trace = _collect_trace(trace_root / "build")
    perf = build_trace["perf"]
    chunks = [c for c in build_trace["chunks"] if not c.get("inline")]
    walls = [c["wall"] for c in chunks]
    busy: dict = {}
    for chunk in chunks:
        busy[chunk["pid"]] = busy.get(chunk["pid"], 0.0) + chunk["wall"]
    idle = sum(max(0.0, build_trace["run_seconds"] - b) for b in busy.values())
    counters = traced["counters"]
    negotiations = perf.get("negotiations", 0)
    hits = perf.get("handshake_cache_hits", 0)
    request_s = _collect_trace(trace_root / "serve")["totals"].get("server.request_s", 0.0)
    client_s = sum(closed.services) + sum(opened.services)
    layers = {f"{layer}_s": self_s.get(layer, 0.0) for layer in SELF_LAYERS}
    layers.update({
        "traced_wall_s": total["root_s"],
        "generator.negotiations": negotiations,
        "generator.hello_builds": perf.get("hello_builds", 0),
        "generator.handshake_hit_ratio": hits / (hits + negotiations) if hits + negotiations else 0.0,
        "runner.chunks": len(chunks),
        "runner.chunk_p50_s": statistics.median(walls) if walls else 0.0,
        "runner.chunk_max_s": max(walls) if walls else 0.0,
        "runner.worker_idle_s": idle,
        "runner.retries": perf.get("chunk_retries", 0),
        "cache.bytes": sum(p.stat().st_size for p in cache.glob("*.bin")),
        "store.vector_hits": counters["vector_path_hits"],
        "store.shape_hits": counters["shape_path_hits"],
        "store.scan_fallbacks": counters["scan_fallbacks"],
        "store.vector_compile_misses": counters["vector_compile_misses"],
        "server.request_s": request_s,
        "client.outside_s": client_s - request_s,
        "client.lag_p99_ms": info["lag_p99_ms"],
        "repeat_share": info["repeat_share"],
        "trace.build_overhead_s": traced["build"]["wall"] - untraced_build["wall"],
        "trace.request_overhead_ms": (
            statistics.fmean(closed.services) - statistics.fmean(traced["baseline"].services)
        ) * 1000,
        "trace.spans": total["spans"],
    })
    return layers


# ---- reporting ---------------------------------------------------------------

PER_LAYER_UNITS = {
    "traced_wall_s": "s", "generator.negotiations": "count",
    "generator.hello_builds": "count", "generator.handshake_hit_ratio": "ratio",
    "runner.chunks": "count", "runner.chunk_p50_s": "s", "runner.chunk_max_s": "s",
    "runner.worker_idle_s": "s", "runner.retries": "count", "cache.bytes": "bytes",
    "store.vector_hits": "count", "store.shape_hits": "count",
    "store.scan_fallbacks": "count", "store.vector_compile_misses": "count",
    "server.request_s": "s", "client.outside_s": "s", "client.lag_p99_ms": "ms",
    "repeat_share": "ratio", "trace.build_overhead_s": "s",
    "trace.request_overhead_ms": "ms", "trace.spans": "count",
    **{f"{layer}_s": "s" for layer in SELF_LAYERS},
}


def render(name: str, seed: int, seconds: float, result: dict) -> str:
    spec = WORKLOADS[name]
    info, metrics = result["info"], result["metrics"]
    notes = {
        "build_s": f"median of {info['builds']} cold `repro --workers {BUILD_WORKERS} run` {info['build_walls']}",
        "setup_s": f"median of {info['launches']} serve launches to /healthz 200",
        "rps": f"closed loop, {client.CONNECTIONS} connections, {info['closed_requests']} requests",
        "p50_ms": f"open loop at {info['open_rate']:g} req/s, {info['samples']} samples",
        f"p{TAIL}_ms": f"{info['samples']} samples, {info['beyond_tail']} beyond (not gated)",
        "build_rss_mb": "peak RSS of repro run and its reaped workers",
        "serve_rss_mb": "server VmHWM at the end of the traffic",
    }
    lines = [f"== {name} (seed {seed}, {seconds:g} s): {spec.why}"]
    for metric, unit in REPORTED_UNITS.items():
        lines.append(f"  {metric:<14} {metrics[metric]:>12.4f} {unit:<6} {notes[metric]}")
    lines.append(
        f"  {'error_rate':<14} {info['error_rate']:>12.4f} {'':<6} "
        f"{result['failed']} failed of {result['attempted']} attempted"
    )
    lines.append(f"  {'repeat_share':<14} {info['repeat_share']:>12.4f}")
    lines.append(f"  {'client.lag_p99_ms':<14} {info['lag_p99_ms']:>9.4f} ms    load generator lateness (limit {LAG_LIMIT_MS:g} ms)")
    lines.append(f"  inputs digest  {info['inputs']}")
    lines.append("  phase seconds  " + ", ".join(
        f"{phase} {value:.1f}" for phase, value in info["phase_s"].items()
    ))
    for problem in result["problems"][:10]:
        lines.append(f"  PROBLEM: {problem}")
    layers = result.get("layers")
    if layers:
        lines.append("  -- traced run: layer self times (sum = traced wall)")
        wall = layers["traced_wall_s"]
        total = 0.0
        for layer in SELF_LAYERS:
            value = layers[f"{layer}_s"]
            total += value
            lines.append(f"  {layer + '_s':<26} {value:>10.4f} s {100 * value / wall if wall else 0:6.2f}%")
        lines.append(f"  {'sum of self times':<26} {total:>10.4f} s")
        lines.append(f"  {'traced wall (root spans)':<26} {wall:>10.4f} s")
        lines.append(
            f"  tracing overhead: build {layers['trace.build_overhead_s']:+.3f} s, "
            f"request {layers['trace.request_overhead_ms']:+.3f} ms"
        )
        lines.append("  -- other per-layer metrics")
        for key, value in layers.items():
            if key.endswith("_s") and key[:-2] in SELF_LAYERS or key == "traced_wall_s":
                continue
            lines.append(f"  {key:<30} {value:>14.4f} {PER_LAYER_UNITS[key]}")
    return "\n".join(lines)


def contract_line(result: dict, trace: bool) -> str:
    if trace:
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in result["layers"].items()}
    else:
        metrics = {k: {"value": result["metrics"][k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still stops and reaps its children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            result = run_session(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        print(render(name, args.seed, args.seconds, result), flush=True)
        results.append(result)
    if args.workload == "all":
        return 0 if all(r["failed"] == 0 and not r["problems"] for r in results) else 1
    print(contract_line(results[0], bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
