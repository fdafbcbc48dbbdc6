"""Fig 12: collective scalability of all five implementations.

Weak scaling 8-256 DPUs with 32 KB per-DPU messages; each point is the
*speedup over the baseline at the same DPU count* (the paper's
normalization).  NDPBridge appears only in the All-to-All panel (no
AllReduce support).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..collectives.backend import registry
from ..collectives.patterns import Collective, CollectiveRequest
from ..config.presets import MachineConfig
from ..runner.registry import register_experiment
from ..runner.spec import SweepPoint
from .common import (
    ExperimentTable,
    SCALING_DPU_COUNTS,
    panel_tables,
    panels,
    scaled_machine,
    table_formatter,
)

PANEL_PATTERNS = (Collective.ALL_REDUCE, Collective.ALL_TO_ALL)
DEFAULT_PAYLOAD_BYTES = 32 * 1024


def _backends_for(pattern: Collective) -> list[str]:
    backends = ["S", "D", "P"]
    if pattern is Collective.ALL_TO_ALL:
        backends.insert(1, "N")
    return backends


@dataclass(frozen=True)
class CollectiveScalingResult:
    pattern: Collective
    dpu_counts: tuple[int, ...]
    payload_bytes: int
    #: speedups[backend][i] = time_B / time_backend at dpu_counts[i]
    speedups: dict[str, tuple[float, ...]]


def _points(
    machine: MachineConfig,
    patterns: tuple[Collective, ...] = PANEL_PATTERNS,
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
) -> tuple[SweepPoint, ...]:
    grid = [(pattern, n) for pattern in patterns for n in SCALING_DPU_COUNTS]
    return tuple(
        SweepPoint(
            i,
            {
                "pattern": pattern.value,
                "num_dpus": n,
                "payload_bytes": payload_bytes,
                "backends": _backends_for(pattern),
            },
        )
        for i, (pattern, n) in enumerate(grid)
    )


def _point(
    machine: MachineConfig,
    pattern: str,
    num_dpus: int,
    payload_bytes: int,
    backends: list[str],
) -> dict[str, float]:
    """Speedup over the baseline per backend at one (pattern, scale)."""
    m = scaled_machine(machine, num_dpus)
    request = CollectiveRequest(
        Collective(pattern), payload_bytes, dtype=np.dtype(np.int64)
    )
    base = registry.create("B", m).timing(request).total_s
    return {
        key: base / registry.create(key, m).timing(request).total_s
        for key in backends
    }


def _result(
    machine: MachineConfig,
    params: tuple[dict, ...],
    values: tuple[dict[str, float], ...],
) -> tuple[CollectiveScalingResult, ...]:
    """One :class:`CollectiveScalingResult` per swept pattern."""
    return tuple(
        CollectiveScalingResult(
            pattern=Collective(pattern),
            dpu_counts=tuple(p["num_dpus"] for p in panel_params),
            payload_bytes=panel_params[0]["payload_bytes"],
            speedups={
                key: tuple(at_n[key] for at_n in panel_values)
                for key in panel_params[0]["backends"]
            },
        )
        for pattern, panel_params, panel_values in panels(params, values)
    )


def run(
    pattern: Collective = Collective.ALL_REDUCE,
    machine: MachineConfig | None = None,
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
) -> CollectiveScalingResult:
    (result,) = SPEC.evaluate(
        machine, patterns=(pattern,), payload_bytes=payload_bytes
    )
    return result


def run_both(
    machine: MachineConfig | None = None,
) -> tuple[CollectiveScalingResult, CollectiveScalingResult]:
    return SPEC.evaluate(machine)


def build_tables(
    result: CollectiveScalingResult,
) -> tuple[ExperimentTable, ...]:
    rows = []
    for i, n in enumerate(result.dpu_counts):
        rows.append(
            (n,)
            + tuple(f"{result.speedups[k][i]:.2f}" for k in result.speedups)
        )
    panel = "a" if result.pattern is Collective.ALL_REDUCE else "b"
    return (
        ExperimentTable(
            f"Fig 12{panel}",
            f"{result.pattern.value} speedup over Baseline at each DPU count",
            ("DPUs",) + tuple(result.speedups),
            tuple(rows),
            notes=f"weak scaling, {result.payload_bytes // 1024} KB per DPU",
        ),
    )


format_table = table_formatter(build_tables)

SPEC = register_experiment(
    experiment_id="fig12",
    title="Fig 12: collective scalability of all implementations",
    points=_points,
    point_fn=_point,
    result=_result,
    build_tables=panel_tables(build_tables),
)
