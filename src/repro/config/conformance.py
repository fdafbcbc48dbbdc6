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

from dataclasses import dataclass, fields

from ..errors import ConformanceError
from .units import is_finite_number

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
class ConformanceConfig:
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

    collectives: tuple[str, ...] = DEFAULT_COLLECTIVES
    shapes: tuple[tuple[int, int, int], ...] = DEFAULT_SHAPES
    payload_bytes: tuple[int, ...] = DEFAULT_PAYLOADS
    latency_rel_tol: float = 1.0
    latency_min_ratio: float = 0.9
    latency_abs_slack_cycles: float = 200.0
    itemsize: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.collectives:
            raise ConformanceError("need at least one collective")
        from ..collectives.patterns import Collective

        known = {p.value for p in Collective}
        for name in self.collectives:
            if name not in known:
                raise ConformanceError(
                    f"unknown collective {name!r} "
                    f"(known: {', '.join(sorted(known))})"
                )
        if not self.shapes:
            raise ConformanceError("need at least one machine shape")
        for shape in self.shapes:
            if len(shape) != 3 or any(
                not isinstance(d, int) or d < 1 for d in shape
            ):
                raise ConformanceError(
                    f"shape {shape!r} must be three positive ints "
                    "(banks, chips, ranks)"
                )
        if not self.payload_bytes:
            raise ConformanceError("need at least one payload size")
        if not isinstance(self.itemsize, int) or self.itemsize < 1:
            raise ConformanceError(
                f"itemsize must be a positive int, got {self.itemsize!r}"
            )
        for payload in self.payload_bytes:
            if not isinstance(payload, int) or payload < 1:
                raise ConformanceError(
                    f"payload {payload!r} must be a positive int"
                )
            if payload % self.itemsize:
                raise ConformanceError(
                    f"payload {payload} is not a multiple of the "
                    f"{self.itemsize}-byte element size"
                )
        if (
            not is_finite_number(self.latency_rel_tol)
            or self.latency_rel_tol < 0
        ):
            raise ConformanceError(
                f"latency_rel_tol must be finite and >= 0, "
                f"got {self.latency_rel_tol}"
            )
        if (
            not is_finite_number(self.latency_min_ratio)
            or not 0 <= self.latency_min_ratio <= 1
        ):
            raise ConformanceError(
                f"latency_min_ratio must be in [0, 1], "
                f"got {self.latency_min_ratio}"
            )
        if (
            not is_finite_number(self.latency_abs_slack_cycles)
            or self.latency_abs_slack_cycles < 0
        ):
            raise ConformanceError(
                f"latency_abs_slack_cycles must be finite and >= 0, "
                f"got {self.latency_abs_slack_cycles}"
            )
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConformanceError(f"seed must be >= 0, got {self.seed!r}")

    @property
    def num_points(self) -> int:
        return (
            len(self.collectives)
            * len(self.shapes)
            * len(self.payload_bytes)
        )

    def as_dict(self) -> dict:
        """JSON form (tuples become lists), inverse of :meth:`from_dict`."""
        return {
            "collectives": list(self.collectives),
            "shapes": [list(s) for s in self.shapes],
            "payload_bytes": list(self.payload_bytes),
            "latency_rel_tol": self.latency_rel_tol,
            "latency_min_ratio": self.latency_min_ratio,
            "latency_abs_slack_cycles": self.latency_abs_slack_cycles,
            "itemsize": self.itemsize,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ConformanceConfig":
        if not isinstance(data, dict):
            raise ConformanceError("conformance config must be an object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConformanceError(
                f"unknown conformance config field(s): {', '.join(unknown)}"
            )
        payload = dict(data)
        if "collectives" in payload:
            payload["collectives"] = tuple(payload["collectives"])
        if "shapes" in payload:
            try:
                payload["shapes"] = tuple(
                    tuple(int(d) for d in s) for s in payload["shapes"]
                )
            except (TypeError, ValueError) as exc:
                raise ConformanceError(
                    f"invalid shapes in conformance config: {exc}"
                ) from exc
        if "payload_bytes" in payload:
            payload["payload_bytes"] = tuple(payload["payload_bytes"])
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConformanceError(
                f"invalid conformance config: {exc}"
            ) from exc
