"""Fig 3: collective-communication scalability of PIM implementations.

Weak scaling: the per-DPU message stays at 32 KB while the system grows
from 8 to 256 DPUs; performance is relative *throughput* (total payload
over time) normalized to the baseline system at 8 DPUs, matching the
figure's normalization.
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

BACKENDS = ("B", "S", "P")
PANEL_PATTERNS = (Collective.ALL_REDUCE, Collective.ALL_TO_ALL)
DEFAULT_PAYLOAD_BYTES = 32 * 1024


@dataclass(frozen=True)
class ScalabilityResult:
    pattern: Collective
    dpu_counts: tuple[int, ...]
    payload_bytes: int
    #: times_s[backend][i] = collective time at dpu_counts[i]
    times_s: dict[str, tuple[float, ...]]

    def normalized_throughput(self) -> dict[str, tuple[float, ...]]:
        """Relative throughput, normalized to baseline at 8 DPUs."""
        base = self.times_s["B"][0] / self.dpu_counts[0]
        out: dict[str, tuple[float, ...]] = {}
        for key, times in self.times_s.items():
            out[key] = tuple(
                (n / t) * base
                for n, t in zip(self.dpu_counts, times)
            )
        return out


def _points(
    machine: MachineConfig,
    patterns: tuple[Collective, ...] = PANEL_PATTERNS,
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
    backends: tuple[str, ...] = BACKENDS,
) -> tuple[SweepPoint, ...]:
    grid = [(pattern, n) for pattern in patterns for n in SCALING_DPU_COUNTS]
    return tuple(
        SweepPoint(
            i,
            {
                "pattern": pattern.value,
                "num_dpus": n,
                "payload_bytes": payload_bytes,
                "backends": list(backends),
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
    """Collective time per backend at one (pattern, scale) sweep point."""
    m = scaled_machine(machine, num_dpus)
    request = CollectiveRequest(
        Collective(pattern), payload_bytes, dtype=np.dtype(np.int64)
    )
    return {
        key: registry.create(key, m).timing(request).total_s
        for key in backends
    }


def _result(
    machine: MachineConfig,
    params: tuple[dict, ...],
    values: tuple[dict[str, float], ...],
) -> tuple[ScalabilityResult, ...]:
    """One :class:`ScalabilityResult` per swept pattern."""
    return tuple(
        ScalabilityResult(
            pattern=Collective(pattern),
            dpu_counts=tuple(p["num_dpus"] for p in panel_params),
            payload_bytes=panel_params[0]["payload_bytes"],
            times_s={
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
    backends: tuple[str, ...] = BACKENDS,
) -> ScalabilityResult:
    (result,) = SPEC.evaluate(
        machine,
        patterns=(pattern,),
        payload_bytes=payload_bytes,
        backends=backends,
    )
    return result


def run_both(
    machine: MachineConfig | None = None,
) -> tuple[ScalabilityResult, ScalabilityResult]:
    """(AllReduce, All-to-All) sweeps — the two panels of Fig 3."""
    return SPEC.evaluate(machine)


def build_tables(result: ScalabilityResult) -> tuple[ExperimentTable, ...]:
    rel = result.normalized_throughput()
    rows = []
    for i, n in enumerate(result.dpu_counts):
        rows.append(
            (n,)
            + tuple(f"{rel[k][i]:.2f}" for k in result.times_s)
        )
    panel = "a" if result.pattern is Collective.ALL_REDUCE else "b"
    return (
        ExperimentTable(
            f"Fig 3{panel}",
            f"{result.pattern.value} weak-scaling throughput "
            "(normalized to Baseline @ 8 DPUs)",
            ("DPUs",) + tuple(result.times_s),
            tuple(rows),
            notes=f"per-DPU payload {result.payload_bytes // 1024} KB",
        ),
    )


format_table = table_formatter(build_tables)

SPEC = register_experiment(
    experiment_id="fig03",
    title="Fig 3: collective scalability motivation",
    points=_points,
    point_fn=_point,
    result=_result,
    build_tables=panel_tables(build_tables),
)
