#!/usr/bin/env python
"""Open-system load sweep: the throughput-vs-p99 knee curve.

Sweeps offered load (Poisson arrival rate) across the saturation point
of the keyswitch request mix for two batching policies (batch=1, the
serial batch server, and batch=8, the pipelined dynamic batcher) and
reports, per point: delivered throughput, p50/p99 latency, and max
queue depth. Everything is simulated time with seeded arrivals, so the
whole curve is deterministic.

The script is also a regression gate on the *shape* of the curve:

- a knee must exist — p99 at the highest offered load must blow up
  against p99 at the lowest (queueing delay dominates past saturation);
- batching must pay — past saturation, batch=8 must deliver strictly
  more throughput than batch=1 with no worse p99 (that is the paper's
  cross-request operator-reuse argument, measured);
- under light load the two policies must agree (work conservation).

``benchmarks/regress.py`` additionally gates the saturation point
itself (as seconds-per-request, so its 10% threshold applies) against
the checked-in baseline.

Usage::

    python benchmarks/bench_serving_sweep.py            # full sweep
    python benchmarks/bench_serving_sweep.py --smoke    # CI subset
    python benchmarks/bench_serving_sweep.py -o sweep.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.serve import (  # noqa: E402  (path bootstrap must come first)
    BatchPolicy,
    ClusterPolicy,
    ClusterSimulator,
    PoissonArrivals,
)

WORKLOAD = "keyswitch"
SEED = 0

#: Offered loads (req/s) spanning the keyswitch mix's saturation point
#: (~330 req/s serial, ~385 req/s batched on the default config).
RATES_FULL = (100.0, 200.0, 300.0, 450.0, 600.0, 900.0, 1200.0)
RATES_SMOKE = (100.0, 600.0, 1200.0)
COUNT_FULL = 96
COUNT_SMOKE = 40

BATCH_SIZES = (1, 8)


def sweep_point(rate: float, max_batch: int, count: int) -> dict:
    sim = ClusterSimulator(
        policy=ClusterPolicy(instances=1, key_upload_bytes=0),
        batch_policy=BatchPolicy(max_batch_size=max_batch),
    )
    result = sim.run(
        WORKLOAD,
        PoissonArrivals(rate=rate, count=count, seed=SEED),
        seed=SEED,
    )
    result.validate()
    s = result.summary()
    return {
        "offered_rps": rate,
        "max_batch": max_batch,
        "throughput_rps": s["throughput_rps"],
        "p50_ms": s["latency_p50_seconds"] * 1e3,
        "p99_ms": s["latency_p99_seconds"] * 1e3,
        "max_queue_depth": s["max_queue_depth"],
    }


def run_sweep(smoke: bool) -> list[dict]:
    rates = RATES_SMOKE if smoke else RATES_FULL
    count = COUNT_SMOKE if smoke else COUNT_FULL
    points = []
    print(f"{'offered':>9} {'batch':>5} {'delivered':>10} "
          f"{'p50':>9} {'p99':>9} {'maxQ':>5}")
    for max_batch in BATCH_SIZES:
        for rate in rates:
            p = sweep_point(rate, max_batch, count)
            points.append(p)
            print(f"{p['offered_rps']:7.0f}/s {p['max_batch']:5d} "
                  f"{p['throughput_rps']:8.1f}/s "
                  f"{p['p50_ms']:7.2f}ms {p['p99_ms']:7.2f}ms "
                  f"{p['max_queue_depth']:5d}")
    return points


def check_curve(points: list[dict]) -> list[str]:
    """The structural assertions; returns a list of failures."""
    failures = []
    by_batch = {
        b: sorted(
            (p for p in points if p["max_batch"] == b),
            key=lambda p: p["offered_rps"],
        )
        for b in BATCH_SIZES
    }
    serial, batched = by_batch[1], by_batch[8]

    # 1. The knee exists: p99 diverges as offered load crosses
    #    saturation (queueing delay, not service time, dominates).
    for curve, label in ((serial, "batch=1"), (batched, "batch=8")):
        low, high = curve[0], curve[-1]
        if high["p99_ms"] < 3.0 * low["p99_ms"]:
            failures.append(
                f"no knee on {label}: p99 {low['p99_ms']:.2f} ms at "
                f"{low['offered_rps']:.0f}/s vs {high['p99_ms']:.2f} ms "
                f"at {high['offered_rps']:.0f}/s (expected >=3x)"
            )

    # 2. Batching pays past saturation: strictly more throughput, no
    #    worse p99, at the highest offered load.
    s_hi, b_hi = serial[-1], batched[-1]
    if not b_hi["throughput_rps"] > s_hi["throughput_rps"]:
        failures.append(
            "batch=8 does not beat batch=1 at "
            f"{s_hi['offered_rps']:.0f}/s offered: "
            f"{b_hi['throughput_rps']:.1f} vs "
            f"{s_hi['throughput_rps']:.1f} req/s"
        )
    if b_hi["p99_ms"] > s_hi["p99_ms"]:
        failures.append(
            f"batch=8 p99 ({b_hi['p99_ms']:.2f} ms) worse than "
            f"batch=1 ({s_hi['p99_ms']:.2f} ms) past saturation"
        )

    # 3. Work conservation: far below saturation the batch bound is
    #    irrelevant (within 5%).
    s_lo, b_lo = serial[0], batched[0]
    if abs(s_lo["throughput_rps"] - b_lo["throughput_rps"]) > (
        0.05 * s_lo["throughput_rps"]
    ):
        failures.append(
            "light-load throughput differs across batch sizes: "
            f"{s_lo['throughput_rps']:.1f} vs "
            f"{b_lo['throughput_rps']:.1f} req/s at "
            f"{s_lo['offered_rps']:.0f}/s offered"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Serving load sweep: throughput-vs-p99 knee curve.",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-fast subset (3 rates, 40 requests per point)",
    )
    parser.add_argument(
        "-o", "--output", type=Path, default=None,
        help="write the sweep points as JSON",
    )
    args = parser.parse_args(argv)

    label = "smoke" if args.smoke else "full"
    print(f"serving load sweep ({label}): {WORKLOAD} mix, seed {SEED}")
    points = run_sweep(args.smoke)

    if args.output is not None:
        doc = {
            "schema": 1,
            "workload": WORKLOAD,
            "seed": SEED,
            "points": points,
        }
        args.output.write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.output}")

    failures = check_curve(points)
    if failures:
        print(f"\nFAIL: {len(failures)} curve check(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    sat_1 = max(
        p["throughput_rps"] for p in points if p["max_batch"] == 1
    )
    sat_8 = max(
        p["throughput_rps"] for p in points if p["max_batch"] == 8
    )
    print(
        f"OK: knee present; saturation {sat_1:.1f} req/s (batch=1) -> "
        f"{sat_8:.1f} req/s (batch=8, +{100 * (sat_8 / sat_1 - 1):.0f}%)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
