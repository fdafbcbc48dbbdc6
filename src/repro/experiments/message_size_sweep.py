"""Message-size sensitivity sweep (supplementary experiment).

Sweeps per-DPU payloads from 256 B to 1 MB for AllReduce and All-to-All
across all backends, reporting where PIMnet's advantage comes from at
each size: at tiny messages the baseline's fixed host overheads dominate
(PIMnet wins on latency); at large messages bandwidth dominates (PIMnet
wins on the fabric's aggregate rate); in between lies the ideal
software's best operating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..collectives.backend import registry
from ..collectives.patterns import Collective, CollectiveRequest
from ..config.presets import MachineConfig
from ..runner.registry import register_experiment
from ..runner.spec import SweepPoint
from .common import ExperimentTable, panel_tables, panels, table_formatter

PAYLOADS = tuple(256 * (4 ** e) for e in range(7))  # 256 B .. 1 MiB
BACKENDS = ("B", "S", "D", "P")
PANEL_PATTERNS = (Collective.ALL_REDUCE, Collective.ALL_TO_ALL)


@dataclass(frozen=True)
class SizeSweepResult:
    pattern: Collective
    payloads: tuple[int, ...]
    #: times_s[backend][i]
    times_s: dict[str, tuple[float, ...]]

    def speedup_series(self, over: str = "B") -> dict[str, tuple[float, ...]]:
        base = self.times_s[over]
        return {
            key: tuple(b / t for b, t in zip(base, times))
            for key, times in self.times_s.items()
        }

    def pimnet_speedup_peak(self) -> tuple[int, float]:
        """(payload, speedup) where PIMnet's gain over B peaks."""
        series = self.speedup_series()["P"]
        index = max(range(len(series)), key=lambda i: series[i])
        return self.payloads[index], series[index]


def _points(
    machine: MachineConfig,
    patterns: tuple[Collective, ...] = PANEL_PATTERNS,
) -> tuple[SweepPoint, ...]:
    grid = [(pattern, payload) for pattern in patterns for payload in PAYLOADS]
    return tuple(
        SweepPoint(i, {"pattern": pattern.value, "payload_bytes": payload})
        for i, (pattern, payload) in enumerate(grid)
    )


def _point(
    machine: MachineConfig, pattern: str, payload_bytes: int
) -> dict[str, float]:
    """Collective time per backend for one (pattern, payload) cell."""
    request = CollectiveRequest(
        Collective(pattern), payload_bytes, dtype=np.dtype(np.int64)
    )
    return {
        key: registry.create(key, machine).timing(request).total_s
        for key in BACKENDS
    }


def _result(
    machine: MachineConfig,
    params: tuple[dict, ...],
    values: tuple[dict[str, float], ...],
) -> tuple[SizeSweepResult, ...]:
    """One :class:`SizeSweepResult` per swept pattern."""
    return tuple(
        SizeSweepResult(
            pattern=Collective(pattern),
            payloads=tuple(p["payload_bytes"] for p in panel_params),
            times_s={
                key: tuple(at_p[key] for at_p in panel_values)
                for key in BACKENDS
            },
        )
        for pattern, panel_params, panel_values in panels(params, values)
    )


def run(
    pattern: Collective = Collective.ALL_REDUCE,
    machine: MachineConfig | None = None,
) -> SizeSweepResult:
    (result,) = SPEC.evaluate(machine, patterns=(pattern,))
    return result


def run_both(
    machine: MachineConfig | None = None,
) -> tuple[SizeSweepResult, SizeSweepResult]:
    return SPEC.evaluate(machine)


def build_tables(result: SizeSweepResult) -> tuple[ExperimentTable, ...]:
    speedups = result.speedup_series()
    rows = []
    for i, payload in enumerate(result.payloads):
        label = (
            f"{payload // 1024} KiB" if payload >= 1024 else f"{payload} B"
        )
        rows.append(
            (label,)
            + tuple(
                f"{result.times_s[k][i] * 1e6:.1f}" for k in BACKENDS
            )
            + tuple(f"{speedups[k][i]:.1f}x" for k in ("S", "P"))
        )
    peak_payload, peak = result.pimnet_speedup_peak()
    return (
        ExperimentTable(
            f"Size sweep ({result.pattern.value})",
            "Collective time (us) vs per-DPU payload, 256 DPUs",
            ("payload",)
            + tuple(f"{k} us" for k in BACKENDS)
            + ("S speedup", "P speedup"),
            tuple(rows),
            notes=(
                f"PIMnet gain peaks at {peak_payload} B/DPU: {peak:.1f}x "
                "over baseline"
            ),
        ),
    )


format_table = table_formatter(build_tables)

SPEC = register_experiment(
    experiment_id="size_sweep",
    title="Size sweep: message-size sensitivity",
    points=_points,
    point_fn=_point,
    result=_result,
    build_tables=panel_tables(build_tables),
)
