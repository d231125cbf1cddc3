"""Post-simulation analysis: operator-core time breakdowns.

These helpers turn :class:`~repro.sim.engine.SimulationResult` objects
into the time shares the paper reports:

- Fig. 7: operator-core time share per basic operation;
- Fig. 9: key-operator time share per benchmark.

Fig. 8 (basic-operation share) is :meth:`SimulationResult.op_share`, and
Table VII (HBM bandwidth) reads ``bandwidth_utilization`` /
``delivered_bandwidth_fraction`` off the result directly.
"""

from __future__ import annotations

from repro.sim.engine import SimulationResult


def operator_core_shares(result: SimulationResult) -> dict[str, dict[str, float]]:
    """Fig. 7: per basic operation, the share of time in each core.

    Returns ``{op_label: {core: share}}`` with shares summing to 1 per
    operation.
    """
    out: dict[str, dict[str, float]] = {}
    for label, cores in result.operator_seconds.items():
        total = sum(cores.values())
        if total <= 0:
            continue
        out[label] = {core: t / total for core, t in cores.items()}
    return out


def benchmark_operator_shares(result: SimulationResult) -> dict[str, float]:
    """Fig. 9: share of total busy time per operator core array."""
    totals: dict[str, float] = {}
    for cores in result.operator_seconds.values():
        for core, t in cores.items():
            totals[core] = totals.get(core, 0.0) + t
    grand = sum(totals.values())
    if grand <= 0:
        return {}
    return {core: t / grand for core, t in totals.items()}
