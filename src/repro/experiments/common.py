"""Shared plumbing for the per-figure experiment drivers."""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Coroutine, Iterable

from ..config.presets import MachineConfig, pimnet_sim_system
from ..errors import ReproError


@dataclass(frozen=True)
class ExperimentTable:
    """A paper-shaped results table: header row plus data rows."""

    experiment_id: str
    title: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    notes: str = ""

    def __post_init__(self) -> None:
        # Validate eagerly: a malformed table should fail where it is
        # built, not later when (if ever) someone formats it.
        for i, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise ReproError(
                    f"{self.experiment_id}: row {i} width {len(row)} != "
                    f"header width {len(self.columns)}"
                )

    def format(self) -> str:
        widths = [
            max(
                len(str(col)),
                max((len(_cell(r[i])) for r in self.rows), default=0),
            )
            for i, col in enumerate(self.columns)
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append(
            "  ".join(
                str(c).ljust(widths[i]) for i, c in enumerate(self.columns)
            )
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(
                "  ".join(
                    _cell(v).ljust(widths[i]) for i, v in enumerate(row)
                )
            )
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def format_tables(tables: Iterable[ExperimentTable]) -> str:
    """Tables as text, separated by blank lines."""
    return "\n\n".join(table.format() for table in tables)


def table_formatter(
    build_tables: Callable[[Any], tuple[ExperimentTable, ...]],
) -> Callable[[Any], str]:
    """A module's ``format_table(result)``: its tables, as text."""

    def format_table(result: Any) -> str:
        return format_tables(build_tables(result))

    return format_table


def panel_tables(
    build_tables: Callable[[Any], tuple[ExperimentTable, ...]],
) -> Callable[[Any], tuple[ExperimentTable, ...]]:
    """``build_tables`` over a tuple of per-panel results, in order."""

    def tables(results: Any) -> tuple[ExperimentTable, ...]:
        return tuple(t for result in results for t in build_tables(result))

    return tables


def panels(
    params: tuple[dict, ...], values: tuple, key: str = "pattern"
) -> list[tuple[Any, list[dict], list]]:
    """Split a sweep into ``(params[key], params, values)`` panels.

    Panels come out in first-seen order, each keeping index order.
    """
    groups: dict[Any, tuple[list[dict], list]] = {}
    for point_params, value in zip(params, values):
        panel_params, panel_values = groups.setdefault(
            point_params[key], ([], [])
        )
        panel_params.append(point_params)
        panel_values.append(value)
    return [(k, ps, vs) for k, (ps, vs) in groups.items()]


def _cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def scaled_machine(machine: MachineConfig, num_dpus: int) -> MachineConfig:
    """A copy of ``machine`` resized to ``num_dpus`` on one channel."""
    from dataclasses import replace

    return replace(
        machine, system=machine.system.scaled_to_dpus(num_dpus)
    )


def default_machine() -> MachineConfig:
    return pimnet_sim_system()


#: DPU counts for the weak-scaling sweeps of Figs 3 and 12.
SCALING_DPU_COUNTS = (8, 16, 32, 64, 128, 256)


def run_bounded(
    coroutine: Coroutine[Any, Any, Any],
    timeout_s: float | None,
    error: type[ReproError],
    label: str,
) -> Any:
    """``asyncio.run(coroutine)``, bounded by ``timeout_s`` of wall clock.

    The serving experiments run on a simulated clock, so the bound only
    catches a stalled event loop: it fails loudly with ``error`` instead
    of hanging.  ``None`` means no bound.
    """
    if timeout_s is None:
        return asyncio.run(coroutine)

    async def bounded() -> Any:
        return await asyncio.wait_for(coroutine, timeout_s)

    try:
        return asyncio.run(bounded())
    except asyncio.TimeoutError:
        raise error(
            f"{label} did not finish within {timeout_s:g}s of wall clock "
            "— the event loop is likely deadlocked"
        ) from None
