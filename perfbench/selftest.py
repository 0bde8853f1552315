"""Self-tests of the benchmark: every end-to-end metric is able to fail.

    python3 perfbench/selftest.py [--seconds S] [--seed N]

Each check runs one session with a regression injected into the
program's child processes (see ``entry.py``) and asserts that the
benchmark reports it: a timing or memory metric moves beyond its bound
in ``BENCHMARK.json`` against a clean session with the same seed and
length, or a wrong answer or wrong record count is counted as failed.
A last check runs ``queries`` on a second seed: it must be correct,
send different documents, and repeat none of them.  Exit 0 when every
check passes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _bounds() -> dict:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m for m in json.load(handle)["end_to_end"]}


def _moved(metric: dict, clean: float, injected: float) -> bool:
    """Whether ``injected`` is worse than ``clean`` by more than the bound."""
    if metric["better"] == "lower":
        return injected > clean * (1 + metric["bound"])
    return injected < clean * (1 - metric["bound"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = _bounds()
    checks: list[tuple[str, bool, str]] = []

    def session(workload: str, inject: str | None = None, seed: int | None = None) -> dict:
        result = run.run_session(
            workload, args.seed if seed is None else seed, args.seconds, False, inject
        )
        label = f"{workload}{' +' + inject if inject else ''} seed {seed or args.seed}"
        print(f"-- {label}: " + ", ".join(
            f"{k} {v:.4g}" for k, v in result["metrics"].items()
        ) + f", failed {result['failed']}/{result['attempted']}", flush=True)
        return result

    def metric_check(name: str, clean: dict, injected: dict, what: str) -> None:
        before, after = clean["metrics"][name], injected["metrics"][name]
        moved = _moved(bounds[name], before, after)
        checks.append((
            f"{what} moves {name}",
            moved,
            f"{before:.4g} -> {after:.4g} (bound {bounds[name]['bound']:.0%})",
        ))

    clean = session("queries")
    checks.append(("clean queries run is correct",
                   clean["failed"] == 0 and not clean["problems"],
                   f"{clean['failed']} failed, problems {clean['problems'][:2]}"))

    slow = session("queries", "sleep")
    metric_check("p50_ms", clean, slow, "10 ms server sleep per request")
    metric_check("rps", clean, slow, "10 ms server sleep per request")

    stalled = session("queries", "stall")
    metric_check("build_s", clean, stalled, "a cache save and load as slow as the run before")
    metric_check("setup_s", clean, stalled, "a cache save and load as slow as the run before")

    fat = session("queries", "memory")
    metric_check("build_rss_mb", clean, fat, "64 MiB allocated in every child")
    metric_check("serve_rss_mb", clean, fat, "64 MiB allocated in every child")

    corrupt = session("figures", "corrupt")
    error_rate = corrupt["failed"] / corrupt["attempted"]
    checks.append(("one corrupted figure value raises error_rate",
                   corrupt["failed"] > 0 and error_rate > 0,
                   f"error_rate {error_rate:.4f} ({corrupt['failed']} wrong answers)"))

    short = session("queries", "records")
    flagged = any("records" in problem for problem in short["problems"])
    checks.append(("a build with a wrong record count is flagged",
                   short["failed"] > 0 and flagged,
                   "; ".join(short["problems"][:2])))

    other = session("queries", seed=args.seed + 1)
    checks.append((
        "queries on a second seed: correct, different documents, none repeated",
        other["failed"] == 0 and not other["problems"]
        and other["info"]["inputs"] != clean["info"]["inputs"]
        and other["info"]["repeat_share"] == 0.0 == clean["info"]["repeat_share"],
        f"digests {clean['info']['inputs']} / {other['info']['inputs']}, "
        f"repeat_share {other['info']['repeat_share']}",
    ))

    print()
    for label, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    return 0 if all(ok for _, ok, _ in checks) else 1


if __name__ == "__main__":
    raise SystemExit(main())
