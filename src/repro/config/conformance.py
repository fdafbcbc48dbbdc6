"""Configuration of the cross-model conformance matrix.

Like :class:`RunnerConfig` and :class:`FaultCampaignConfig`, this is
plain eagerly-validated data: the CLI and tests thread it into
:mod:`repro.conformance` without importing the engine machinery.

The matrix is the cartesian product ``collectives x shapes x
payload_bytes``.  Default shapes keep ``ranks <= 2`` on purpose: the
analytic rank-tier model counts a broadcast's bus payload once (the bus
is physically broadcast-capable) while the flit simulator models it as
per-destination unicasts, so shapes with more than two ranks diverge by
construction, not by bug.  See ``docs/CONFORMANCE.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConformanceError
from .schema import JsonConfig, integer, member, real, tuple_of
from .service import KNOWN_PATTERNS

#: Collective patterns checked by the default matrix (the five Table V
#: patterns with non-trivial multi-tier schedules).
DEFAULT_COLLECTIVES = (
    "all_reduce",
    "reduce_scatter",
    "all_gather",
    "all_to_all",
    "broadcast",
)

#: Machine shapes as (banks, chips, ranks).  All have ``ranks <= 2``
#: (see the module docstring) and every nested ring segment divides.
DEFAULT_SHAPES = ((2, 2, 1), (2, 2, 2), (4, 2, 2))

#: Per-DPU payload sizes in bytes (int64 elements: 32, 128, 512).
DEFAULT_PAYLOADS = (256, 1024, 4096)


@dataclass(frozen=True)
class ConformanceConfig(JsonConfig):
    """One conformance run: the matrix plus agreement tolerances.

    The latency check asserts, per point::

        min_ratio * analytic - slack <= noc <= (1 + rel_tol) * analytic + slack

    (all in cycles).  The analytic model is a contention-free lower
    bound; the flit simulator adds per-hop pipelining, flit
    quantization, and arbitration, empirically 1.0x-1.9x on the default
    matrix — hence ``rel_tol`` of 1.0 with a small absolute slack for
    near-zero points.  ``seed`` feeds the per-point payload RNG (and the
    mutation RNG), so a run is reproducible from this config alone.
    """

    collectives: tuple[str, ...] = tuple_of(
        member(KNOWN_PATTERNS, "collective"), DEFAULT_COLLECTIVES, nonempty=True
    )
    shapes: tuple[tuple[int, int, int], ...] = tuple_of(
        tuple_of(
            integer(ge=1),
            length=3,
            what="three positive ints (banks, chips, ranks)",
        ),
        DEFAULT_SHAPES,
        nonempty=True,
    )
    payload_bytes: tuple[int, ...] = tuple_of(
        integer(ge=1), DEFAULT_PAYLOADS, nonempty=True
    )
    latency_rel_tol: float = real(1.0, ge=0)
    latency_min_ratio: float = real(0.9, ge=0, le=1)
    latency_abs_slack_cycles: float = real(200.0, ge=0)
    itemsize: int = integer(8, ge=1)
    seed: int = integer(0, ge=0)

    _error = ConformanceError
    _label = "conformance config"

    def __post_init__(self) -> None:
        super().__post_init__()
        for payload in self.payload_bytes:
            if payload % self.itemsize:
                raise ConformanceError(
                    f"payload {payload} is not a multiple of the "
                    f"{self.itemsize}-byte element size"
                )

    @property
    def num_points(self) -> int:
        return (
            len(self.collectives)
            * len(self.shapes)
            * len(self.payload_bytes)
        )
