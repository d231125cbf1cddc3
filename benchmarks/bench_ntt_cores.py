#!/usr/bin/env python
"""NTT core cross-design comparison: Fig. 10 beyond the paper.

The paper sweeps one knob of one microarchitecture (the fusion radix k
of its own fused core, Fig. 10). This bench sweeps *microarchitectures*:
every registered :mod:`repro.sim.ntt_cores` variant is priced on

- an **analytic grid** — NTT cycles over (N, L, lanes) straight from
  the cycle model, producing a winner map of which design is fastest
  where;
- **closed-system** Table VI workloads — full-benchmark makespans per
  variant at the paper's HBM bandwidth and a half-bandwidth point;
- **open-system** serving load — the keyswitch request mix through
  :class:`repro.serve.ClusterSimulator` (one instance) per variant.

Gates (exit non-zero on any failure):

- **byte determinism** — the default ``poseidon`` variant must
  reproduce the checked-in ``baseline.json`` simulated seconds for
  Fig. 10 k=3 and Table VI LR *exactly* (the registry refactor may not
  move a single bit), and re-running a point must be byte-identical.
- **validity** — every variant's closed-system schedule passes every
  engine invariant (``repro.sim.validate``), and every variant's
  served schedule passes ``ClusterResult.validate``.
- **registry** — at least four variants registered, default is
  ``poseidon``.
- **winner map** — ``poseidon`` wins the paper's own operating point
  (N=65536, L=44, 512 lanes), and the map has at least two distinct
  winners (the variants genuinely trade off; nothing dominates).

Usage::

    python benchmarks/bench_ntt_cores.py            # full sweep
    python benchmarks/bench_ntt_cores.py --smoke    # CI subset
    python benchmarks/bench_ntt_cores.py -o cores.json --plot cores.svg
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

from repro.compiler.program import compile_trace  # noqa: E402
from repro.serve import (  # noqa: E402
    BatchPolicy,
    ClusterPolicy,
    ClusterSimulator,
    PoissonArrivals,
)
from repro.sim.config import HardwareConfig  # noqa: E402
from repro.sim.cores import CoreModel  # noqa: E402
from repro.sim.engine import PoseidonSimulator  # noqa: E402
from repro.sim.ntt_cores import (  # noqa: E402
    DEFAULT_NTT_CORE,
    NTT_CORE_REGISTRY,
    available_ntt_cores,
)
from repro.sim.resources import ResourceModel  # noqa: E402
from repro.sim.tasks import OperatorKind, OperatorTask  # noqa: E402
from repro.sim.validate import validate_schedule  # noqa: E402
from repro.workloads import PAPER_BENCHMARKS  # noqa: E402

BASELINE_PATH = REPO_ROOT / "benchmarks" / "baseline.json"

#: Analytic winner-map grid. The paper's operating point is
#: N=65536, L=44, 512 lanes (Table VI parameters).
GRID_N_FULL = (1024, 4096, 16384, 65536)
GRID_N_SMOKE = (1024, 65536)
GRID_L_FULL = (1, 8, 24, 44)
GRID_L_SMOKE = (1, 44)
GRID_LANES_FULL = (64, 128, 256, 512)
GRID_LANES_SMOKE = (64, 512)
PAPER_POINT = (65536, 44, 512)

#: Closed-system workloads and HBM bandwidth points (the paper's two
#: HBM stacks = 460 GB/s; the half point models a one-stack build).
TABLE6_FULL = ("LR", "LSTM", "ResNet-20", "Packed Bootstrapping")
TABLE6_SMOKE = ("LR",)
BANDWIDTHS_FULL = (230e9, 460e9)
BANDWIDTHS_SMOKE = (460e9,)

#: Open-system serving load (the regress.py makespan scenario).
SERVE_SEED = 0
SERVE_RATE = 300.0
SERVE_BATCH = 8
SERVE_COUNT_FULL = 64
SERVE_COUNT_SMOKE = 24

#: U280 budget for the resource report (same as the design explorer).
U280 = {"lut": 1_200_000, "ff": 2_400_000, "dsp": 9_024, "bram": 1_800}


def _ntt_task(n: int, limbs: int) -> OperatorTask:
    return OperatorTask(
        kind=OperatorKind.NTT,
        elements=n * limbs,
        degree=n,
        limbs=limbs,
        hbm_read_bytes=n * limbs * 4,
        hbm_write_bytes=n * limbs * 4,
        op_label="NTT",
    )


def analytic_sweep(smoke: bool) -> list[dict]:
    """NTT cycles per variant over the (N, L, lanes) grid."""
    grid_n = GRID_N_SMOKE if smoke else GRID_N_FULL
    grid_l = GRID_L_SMOKE if smoke else GRID_L_FULL
    grid_lanes = GRID_LANES_SMOKE if smoke else GRID_LANES_FULL
    points = []
    for lanes in grid_lanes:
        configs = {
            v: HardwareConfig().with_lanes(lanes).with_ntt_core(v)
            for v in available_ntt_cores()
        }
        models = {v: CoreModel(configs[v]) for v in configs}
        for n in grid_n:
            for limbs in grid_l:
                task = _ntt_task(n, limbs)
                cycles = {
                    v: models[v].ntt_cycles(task) for v in models
                }
                winner = min(cycles, key=lambda v: (cycles[v], v))
                points.append({
                    "n": n,
                    "limbs": limbs,
                    "lanes": lanes,
                    "cycles": cycles,
                    "winner": winner,
                })
    return points


def resource_report() -> list[dict]:
    """Per-variant NTT-array and whole-accelerator resources."""
    rows = []
    for v in available_ntt_cores():
        config = HardwareConfig().with_ntt_core(v)
        model = ResourceModel(config)
        core = model.ntt_core()
        total = model.total(include_scratchpad=False)
        fits = (
            total.lut <= U280["lut"]
            and total.ff <= U280["ff"]
            and total.dsp <= U280["dsp"]
            and total.bram <= U280["bram"]
        )
        rows.append({
            "variant": v,
            "ntt_lut": core.lut,
            "ntt_dsp": core.dsp,
            "ntt_bram": core.bram,
            "total_lut": total.lut,
            "total_dsp": total.dsp,
            "fits_u280": fits,
        })
    return rows


def closed_system_sweep(smoke: bool) -> list[dict]:
    """Table VI makespans per variant x HBM bandwidth."""
    benches = TABLE6_SMOKE if smoke else TABLE6_FULL
    bandwidths = BANDWIDTHS_SMOKE if smoke else BANDWIDTHS_FULL
    programs = {b: compile_trace(PAPER_BENCHMARKS[b]()) for b in benches}
    points = []
    for bench in benches:
        for bw in bandwidths:
            for v in available_ntt_cores():
                config = HardwareConfig(hbm_bandwidth=bw).with_ntt_core(v)
                result = PoseidonSimulator(config).run(programs[bench])
                validate_schedule(
                    result, program=programs[bench], config=config
                )
                points.append({
                    "bench": bench,
                    "hbm_gbps": bw / 1e9,
                    "variant": v,
                    "seconds": result.total_seconds,
                })
    return points


def open_system_sweep(smoke: bool) -> list[dict]:
    """Served keyswitch mix per variant: makespan + p95 latency."""
    count = SERVE_COUNT_SMOKE if smoke else SERVE_COUNT_FULL
    points = []
    for v in available_ntt_cores():
        sim = ClusterSimulator(
            config=HardwareConfig().with_ntt_core(v),
            policy=ClusterPolicy(instances=1, key_upload_bytes=0),
            batch_policy=BatchPolicy(max_batch_size=SERVE_BATCH),
        )
        result = sim.run(
            "keyswitch",
            PoissonArrivals(rate=SERVE_RATE, count=count, seed=SERVE_SEED),
            seed=SERVE_SEED,
        )
        result.validate()
        s = result.summary()
        points.append({
            "variant": v,
            "makespan_seconds": result.makespan_seconds,
            "throughput_rps": s["throughput_rps"],
            "p95_ms": s["latency_p95_seconds"] * 1e3,
        })
    return points


def _fig10_k3_seconds() -> float:
    """The regress.py fig10/k=3 measurement, replicated exactly."""
    task = _ntt_task(65536, 44)
    sim = PoseidonSimulator(HardwareConfig().with_radix(3))
    return max(
        sim.cores.task_seconds(task),
        sim.memory.task_timing(task).hbm_seconds,
    )


def _table6_lr_seconds() -> float:
    """The regress.py table6/LR measurement, replicated exactly."""
    program = compile_trace(PAPER_BENCHMARKS["LR"]())
    return PoseidonSimulator(HardwareConfig()).run(program).total_seconds


def check_gates(analytic: list[dict]) -> list[str]:
    """The acceptance gates; returns a list of failures."""
    failures = []

    # 1. Registry shape.
    if len(NTT_CORE_REGISTRY) < 4:
        failures.append(
            f"registry has {len(NTT_CORE_REGISTRY)} variants, need >= 4"
        )
    if DEFAULT_NTT_CORE != "poseidon":
        failures.append(f"default variant is {DEFAULT_NTT_CORE!r}")
    if HardwareConfig().ntt_core != DEFAULT_NTT_CORE:
        failures.append("HardwareConfig default is not the default variant")

    # 2. Byte determinism of the default variant vs baseline.json.
    baseline = json.loads(BASELINE_PATH.read_text())["workloads"]
    for name, measure in (
        ("fig10/k=3", _fig10_k3_seconds),
        ("table6/LR", _table6_lr_seconds),
    ):
        want = baseline[name]["simulated_seconds"]
        got = measure()
        if got != want:
            failures.append(
                f"poseidon drifted from baseline {name}: "
                f"got {got!r}, baseline {want!r}"
            )
        if measure() != got:
            failures.append(f"{name} not deterministic across reruns")

    # 3. Winner map: paper point goes to poseidon; the map is not a
    #    single-design sweep (>= 2 distinct winners).
    by_point = {(p["n"], p["limbs"], p["lanes"]): p for p in analytic}
    paper = by_point.get(PAPER_POINT)
    if paper is None:
        failures.append(f"analytic grid is missing {PAPER_POINT}")
    elif paper["winner"] != "poseidon":
        failures.append(
            f"poseidon does not win the paper point {PAPER_POINT}: "
            f"{paper['winner']} does ({paper['cycles']})"
        )
    winners = {p["winner"] for p in analytic}
    if len(winners) < 2:
        failures.append(
            f"winner map is degenerate: only {sorted(winners)} win"
        )

    # 4. Every variant fits the U280 (the formulas are structural
    #    estimates; a variant that cannot be built is a modelling bug).
    for row in resource_report():
        if not row["fits_u280"]:
            failures.append(
                f"variant {row['variant']} exceeds the U280 budget: "
                f"{row['total_lut']} LUT / {row['total_dsp']} DSP"
            )
    return failures


def render_plot(analytic: list[dict]) -> str:
    """Hand-rolled SVG: NTT cycles vs N per variant at the paper's
    L=44, 512 lanes column (deterministic output)."""
    import math

    width, height, margin = 560, 360, 56
    variants = sorted(available_ntt_cores())
    rows = sorted(
        (p for p in analytic if p["limbs"] == 44 and p["lanes"] == 512),
        key=lambda p: p["n"],
    )
    if not rows:  # smoke grids always include (n, 44, 512) points
        rows = sorted(analytic, key=lambda p: p["n"])
    ns = [p["n"] for p in rows]
    all_cycles = [p["cycles"][v] for p in rows for v in variants]
    lo = math.log10(min(all_cycles))
    hi = math.log10(max(all_cycles)) or 1.0

    def sx(n: float) -> float:
        span = math.log2(max(ns)) - math.log2(min(ns)) or 1.0
        return margin + (width - 2 * margin) * (
            (math.log2(n) - math.log2(min(ns))) / span
        )

    def sy(c: float) -> float:
        frac = (math.log10(c) - lo) / ((hi - lo) or 1.0)
        return height - margin - (height - 2 * margin) * frac

    colors = {
        "poseidon": "#cc5544",
        "hermes": "#5588cc",
        "hf-ntt": "#55aa77",
        "digit-serial": "#aa77cc",
    }
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}"'
        f' y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" '
        'text-anchor="middle" font-size="13">ring degree N '
        "(L=44, 512 lanes)</text>",
        f'<text x="14" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 14 {height / 2:.1f})">'
        "NTT cycles (log)</text>",
    ]
    for n in ns:
        parts.append(
            f'<text x="{sx(n):.1f}" y="{height - margin + 18}" '
            f'text-anchor="middle" font-size="12">{n}</text>'
        )
    for i, v in enumerate(variants):
        color = colors.get(v, "#333333")
        path = " ".join(
            f"{sx(p['n']):.1f},{sy(p['cycles'][v]):.1f}" for p in rows
        )
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" '
            'stroke-width="2"/>'
        )
        for p in rows:
            parts.append(
                f'<circle cx="{sx(p["n"]):.1f}" '
                f'cy="{sy(p["cycles"][v]):.1f}" r="3.5" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * i + 4}" '
            f'font-size="11" fill="{color}" text-anchor="end">{v}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="NTT core cross-design comparison "
                    "(variant x N x L x lanes x bandwidth).",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-fast subset (small grid, LR only, one bandwidth)",
    )
    parser.add_argument(
        "-o", "--output", type=Path, default=None,
        help="write the sweep points as JSON",
    )
    parser.add_argument(
        "--plot", type=Path, default=None,
        help="write a cycles-vs-N SVG plot",
    )
    args = parser.parse_args(argv)

    label = "smoke" if args.smoke else "full"
    variants = available_ntt_cores()
    print(f"NTT core cross-design sweep ({label}): "
          f"{', '.join(variants)}")

    analytic = analytic_sweep(args.smoke)
    print(f"\nwinner map ({len(analytic)} grid points):")
    print(f"{'N':>6} {'L':>3} {'lanes':>5}  {'winner':<12} "
          f"{'cycles':>12}")
    for p in analytic:
        print(f"{p['n']:6d} {p['limbs']:3d} {p['lanes']:5d}  "
              f"{p['winner']:<12} {p['cycles'][p['winner']]:12.1f}")

    resources = resource_report()
    print("\nresources (512 lanes):")
    print(f"{'variant':<12} {'ntt_lut':>8} {'ntt_dsp':>8} "
          f"{'total_dsp':>9} {'fits':>5}")
    for r in resources:
        print(f"{r['variant']:<12} {r['ntt_lut']:8d} {r['ntt_dsp']:8d} "
              f"{r['total_dsp']:9d} {'yes' if r['fits_u280'] else 'NO':>5}")

    closed = closed_system_sweep(args.smoke)
    print("\nclosed-system (Table VI):")
    print(f"{'bench':<22} {'GB/s':>5} {'variant':<12} {'seconds':>10}")
    for p in closed:
        print(f"{p['bench']:<22} {p['hbm_gbps']:5.0f} "
              f"{p['variant']:<12} {p['seconds']:10.4f}")

    served = open_system_sweep(args.smoke)
    print("\nopen-system (keyswitch mix, "
          f"rate {SERVE_RATE:.0f}/s, batch<={SERVE_BATCH}):")
    print(f"{'variant':<12} {'makespan':>10} {'rps':>8} {'p95':>9}")
    for p in served:
        print(f"{p['variant']:<12} {p['makespan_seconds']:9.4f}s "
              f"{p['throughput_rps']:8.1f} {p['p95_ms']:7.2f}ms")

    failures = check_gates(analytic)

    if args.output is not None:
        doc = {
            "schema": 1,
            "label": label,
            "variants": list(variants),
            "analytic": analytic,
            "resources": resources,
            "closed_system": closed,
            "open_system": served,
        }
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"\nwrote {args.output}")
    if args.plot is not None:
        args.plot.parent.mkdir(parents=True, exist_ok=True)
        args.plot.write_text(render_plot(analytic), encoding="utf-8")
        print(f"wrote {args.plot}")

    if failures:
        print("\nFAILED gates:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nall gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
