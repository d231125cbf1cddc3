#!/usr/bin/env python
"""Profile the event-driven schedule engine under a large serve trace.

Drives :class:`repro.serve.ClusterSimulator` (one warm instance, no
key movement) over a heavy Poisson stream (thousands of requests, each
expanding to a multi-task operator program) under ``cProfile``, then
prints the hottest engine functions by cumulative and total time.
This is the harness the engine hot-path work is measured with — run it
before and after a scheduler change:

    make profile
    # or directly:
    PYTHONPATH=src python benchmarks/profile_engine.py --requests 3000

The default trace is sized so the engine loop dominates (hundreds of
thousands of heap events) while a full profile still completes in tens
of seconds. ``--raw`` additionally times an un-profiled run, since the
profiler's per-call hook inflates cheap functions; use the raw number
for before/after wall-clock comparisons and the profile for *where*.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def _build_run(requests: int, rate: float, seed: int):
    from repro.serve import (
        ClusterPolicy,
        ClusterSimulator,
        PoissonArrivals,
    )

    sim = ClusterSimulator(
        policy=ClusterPolicy(instances=1, key_upload_bytes=0)
    )
    arrivals = PoissonArrivals(rate=rate, count=requests, seed=seed)

    def run():
        return sim.run("keyswitch,streaming", arrivals, seed=seed)

    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--requests", type=int, default=3000,
        help="arrival count for the serve trace (default: 3000)",
    )
    parser.add_argument(
        "--rate", type=float, default=8000.0,
        help="Poisson arrival rate per simulated second (default: 8000)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--sort", choices=("cumulative", "tottime"), default="tottime",
        help="pstats sort key for the printed table",
    )
    parser.add_argument(
        "--limit", type=int, default=25,
        help="rows of the profile table to print (default: 25)",
    )
    parser.add_argument(
        "--raw", action="store_true",
        help="also time an un-profiled run for wall-clock comparison",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="optional path to dump the raw pstats file",
    )
    args = parser.parse_args(argv)

    run = _build_run(args.requests, args.rate, args.seed)

    if args.raw:
        t0 = time.perf_counter()
        result = run()
        raw_seconds = time.perf_counter() - t0
        print(
            f"raw run: {raw_seconds:.3f}s wall, "
            f"{result.completed} completed, "
            f"makespan {result.makespan_seconds:.6f}s simulated"
        )

    profiler = cProfile.Profile()
    profiler.enable()
    result = run()
    profiler.disable()
    print(
        f"profiled run: {result.completed} completed, "
        f"makespan {result.makespan_seconds:.6f}s simulated"
    )

    stats = pstats.Stats(profiler, stream=sys.stdout)
    if args.output is not None:
        stats.dump_stats(args.output)
        print(f"pstats dumped to {args.output}")
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
