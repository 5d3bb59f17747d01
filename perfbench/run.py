#!/usr/bin/env python3
"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload search_cold --seed 1 --seconds 12 --trace 0

Prints a human-readable report, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 2
without a result when the program's source (``src/repro``) is absent.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("search_cold", "search_hot", "ingest_live")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The package is imported from the checkout root, never from the
    # script's own directory.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench

    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
