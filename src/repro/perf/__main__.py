"""Perf command line: ``python -m repro.perf``.

``show PATH ...`` pretty-prints ``*.perf.json`` sampled phase profiles
written by the profiler (``REPRO_PERF=1`` / ``--perf``).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.perf.profiler import render_profile

__all__ = ["main"]


def _show_profile(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"{path}: unreadable ({exc})", file=sys.stderr)
        return 1
    print(f"{path}: {render_profile(doc)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Simulator-performance tooling.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    show = subparsers.add_parser(
        "show", help="pretty-print *.perf.json profile artifacts"
    )
    show.add_argument("paths", nargs="+", help="profile artifact files")
    args = parser.parse_args(argv)
    failures = 0
    for path in args.paths:
        failures += _show_profile(path)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
