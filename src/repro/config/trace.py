"""Tracing/metrics configuration for instrumented simulator runs.

A :class:`TraceConfig` is plain data — which instrumentation to enable
and where the dumps go.  :func:`repro.observability.build_instrumentation`
turns it into live tracer/registry objects; keeping the dataclass here
(with the other configuration) means experiment drivers and the CLI can
thread it around without importing the observability machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from .schema import Validated, flag, member, text

#: Valid values for :attr:`TraceConfig.clock`.
TRACE_CLOCKS = ("auto", "sim", "wall")


@dataclass(frozen=True)
class TraceConfig(Validated):
    """What to record during a run, and where to write it.

    ``enabled`` turns span tracing on; ``metrics`` turns the metrics
    registry on (independently — metrics without spans is a valid,
    cheaper mode).  ``clock`` selects the Chrome-trace time axis:
    ``"sim"`` (simulated seconds), ``"wall"`` (host-side elapsed time),
    or ``"auto"`` (simulated where a span has a window, wall otherwise).
    """

    enabled: bool = flag(False)
    metrics: bool = flag(False)
    clock: str = member(TRACE_CLOCKS, "trace clock", "auto")
    trace_path: str | None = text(None, optional=True)
    metrics_path: str | None = text(None, optional=True)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.trace_path is not None and not self.enabled:
            raise ConfigurationError(
                "trace_path set but tracing is disabled"
            )
        if self.metrics_path is not None and not self.metrics:
            raise ConfigurationError(
                "metrics_path set but metrics are disabled"
            )

    @property
    def active(self) -> bool:
        """Whether any instrumentation is requested at all."""
        return self.enabled or self.metrics
