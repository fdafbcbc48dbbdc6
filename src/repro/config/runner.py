"""Execution policy for the parallel experiment runner.

Like :class:`TraceConfig`, this is plain data kept with the rest of the
configuration so the CLI and library callers can thread it around
without importing the runner machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from .schema import Validated, flag, integer, real, text

#: Default on-disk cache location (kept in sync with repro.runner.cache).
DEFAULT_CACHE_DIR = ".repro-cache"


@dataclass(frozen=True)
class RunnerConfig(Validated):
    """How to execute an experiment's sweep points.

    ``jobs`` is the process fan-out (1 = in-process serial execution);
    ``point_timeout_s`` bounds the wait for any single point when
    running in parallel (``None`` = no bound; ignored on the serial
    path, which cannot preempt a running point).
    """

    jobs: int = integer(1, ge=1)
    cache_enabled: bool = flag(True)
    cache_dir: str = text(DEFAULT_CACHE_DIR, nonempty=True)
    point_timeout_s: float | None = real(None, gt=0, optional=True)
