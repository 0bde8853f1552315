#!/usr/bin/env python3
"""Run a command under a hard address-space ceiling.

The CI ``scale`` job's enforcement half: ``repro --scale 50 run`` must
complete inside a fixed memory budget, proving the streaming ingest
path really is out-of-core — a regression that materializes a scaled
month's record objects blows the ceiling and the child dies with
``MemoryError`` instead of quietly eating the runner.

Usage::

    python scripts/check_rss.py --limit-mb 1024 -- python -m repro --scale 50 run

The limit is applied with ``resource.setrlimit`` in the child via
``preexec_fn``.  ``RLIMIT_AS`` (total address space) is used rather
than ``RLIMIT_RSS`` because Linux has not enforced the latter for two
decades; address space over-counts RSS (maps, guard pages, the
interpreter image), so pick the ceiling with ~2x headroom over the
intended resident budget.

On success the child's peak RSS (``ru_maxrss`` of reaped children) is
printed, so CI logs double as a coarse memory trajectory.
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="run a command under an RLIMIT_AS ceiling"
    )
    parser.add_argument(
        "--limit-mb", type=int, required=True, metavar="MB",
        help="address-space ceiling for the child, in MiB",
    )
    parser.add_argument(
        "command", nargs=argparse.REMAINDER,
        help="command to run (prefix with -- to separate)",
    )
    args = parser.parse_args(argv)
    command = args.command
    if command and command[0] == "--":
        command = command[1:]
    if not command:
        parser.error("no command given; usage: check_rss.py --limit-mb N -- cmd ...")
    limit = args.limit_mb * 1024 * 1024

    def _apply_limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(command, preexec_fn=_apply_limit)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(
        f"check_rss: exit {proc.returncode}, ceiling {args.limit_mb} MiB, "
        f"child peak RSS {peak_kb / 1024:.1f} MiB",
        file=sys.stderr,
    )
    return proc.returncode


if __name__ == "__main__":
    raise SystemExit(main())
