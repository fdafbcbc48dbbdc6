"""The three pinned benchmark workloads and their correctness gates.

Every workload is spelled out here rather than taken from program
defaults, so a change to a default in ``repro`` cannot silently change
what the benchmark measures.  Each workload has the same life cycle:

* ``build(seed)`` - import ``repro`` and build the machine, network,
  service or fleet objects and empty caches (timed as ``setup_s``);
* ``generate()`` - make the seeded inputs (untimed);
* ``fresh()`` - a fresh schedule cache, an empty result-cache directory
  and new fleet objects before every repetition (untimed);
* ``cold(clock)`` / ``warm(clock)`` - the timed passes (``wall_s`` /
  ``cached_wall_s``).  Each returns its output and marks the end of
  each part of the pass on the :class:`hostclock.PassClock`, in a fixed
  order: conformance points, experiments, or blocks of fleet
  completions;
* ``check()`` - the correctness gate over one repetition's outputs;
* ``counts()`` - exact work counters read from the program's public
  outputs, which must repeat exactly between repetitions.

This module imports only the standard library at import time: ``repro``
is imported inside ``build`` so that its import cost lands in
``setup_s``.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from hostclock import PassClock

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "goldens"
#: Scratch space for result caches; inside the checkout, removed on exit.
WORK_DIR = ROOT / ".perfbench-work"

#: The benchmark seed under which every program default applies, so the
#: golden fixtures apply to seeded experiments too.
DEFAULT_SEED = 0

#: The conformance matrix: 5 collectives x 3 shapes x 3 payloads.
CONFORMANCE_MATRIX: dict[str, Any] = {
    "collectives": (
        "all_reduce",
        "reduce_scatter",
        "all_gather",
        "all_to_all",
        "broadcast",
    ),
    "shapes": ((2, 2, 1), (2, 2, 2), (4, 2, 2)),
    "payload_bytes": (256, 1024, 4096),
    "latency_rel_tol": 1.0,
    "latency_min_ratio": 0.9,
    "latency_abs_slack_cycles": 200.0,
    "itemsize": 8,
}

#: Registered experiments that drive neither the NoC nor the fleet.
SWEEP_IDS = (
    "ablations",
    "characterization",
    "fault_sweep",
    "fig02",
    "fig03",
    "fig10",
    "fig11",
    "fig12",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "hw_overhead",
    "prim_suite",
    "size_sweep",
    "straggler_tail",
    "table04",
    "table05",
)

#: The fleet closed loop: 8 tenants x 2048 requests over 4 shards.
FLEET: dict[str, int] = {
    "shards": 4,
    "tenants": 8,
    "requests_per_tenant": 2048,
    #: Requests each tenant keeps outstanding after its opening burst.
    "concurrency": 8,
    #: Requests each tenant fires at once first, past its quota.
    "burst": 24,
    "max_reroutes": 1,
}

#: Payload multipliers of the machine's alignment quantum (fig17 mix).
_CC_MULTIPLIERS = (6, 12, 24, 48)
_EMB_MULTIPLIERS = (4, 8, 16, 32)


@dataclass
class Verdict:
    """One repetition's correctness gate: operations checked and failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(problem)


def _fresh_dir(previous: Path | None) -> Path:
    if previous is not None:
        shutil.rmtree(previous, ignore_errors=True)
    WORK_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR))


def _schedcache_counts(cache: Any) -> dict[str, int]:
    return {f"schedcache.{k}": v for k, v in cache.counters.as_dict().items()}


class Workload:
    """Common shape of a workload (see the module docstring)."""

    name = ""
    #: Warm passes per repetition; each is one sample for ``cached_wall_s``.
    warm_passes = 1

    def build(self, seed: int) -> None:
        raise NotImplementedError

    def generate(self) -> None:
        """Make the seeded inputs; untimed."""

    def fresh(self) -> None:
        raise NotImplementedError

    def cold(self, clock: PassClock) -> Any:
        raise NotImplementedError

    def warm(self, clock: PassClock) -> Any:
        raise NotImplementedError

    def requests(self, cold: Any) -> int:
        """Operations one cold pass resolves (for ``req_per_s``)."""
        raise NotImplementedError

    def check(self, cold: Any, warms: list[Any]) -> Verdict:
        raise NotImplementedError

    def counts(self, cold: Any, warms: list[Any]) -> dict[str, int]:
        raise NotImplementedError

    def values(self, cold: Any) -> dict[str, float]:
        """Simulated-time and ratio per-layer metrics of one cold pass."""
        return {}

    def close(self) -> None:
        shutil.rmtree(WORK_DIR, ignore_errors=True)


# --------------------------------------------------------------------------
# conformance
# --------------------------------------------------------------------------


class Conformance(Workload):
    """A cold run of the pinned conformance matrix, then warm reruns."""

    name = "conformance"
    #: A warm pass takes about 10 ms; many give its median more samples.
    warm_passes = 20

    def build(self, seed: int) -> None:
        from repro.config.conformance import ConformanceConfig
        from repro.config.network import PimnetNetworkConfig
        from repro.conformance import run_matrix  # noqa: F401
        from repro.runner import code_fingerprint

        self.config = ConformanceConfig(**CONFORMANCE_MATRIX, seed=seed)
        self.network = PimnetNetworkConfig()
        # Hashed lazily on the first cache key; set-up, not timed work.
        code_fingerprint()
        self.cache_dir: Path | None = None
        self.fresh()

    def fresh(self) -> None:
        from repro.schedcache import ScheduleCache

        self.schedcache = ScheduleCache()
        self.cache_dir = _fresh_dir(self.cache_dir)

    def _run(self, clock: PassClock) -> Any:
        import repro.conformance.engine as engine
        from repro.schedcache import use_schedule_cache

        run_point = engine.run_point

        def marked_point(*args: Any, **kwargs: Any) -> dict:
            try:
                return run_point(*args, **kwargs)
            finally:
                clock.mark()

        engine.run_point = marked_point
        try:
            with use_schedule_cache(self.schedcache):
                report = engine.run_matrix(
                    self.config,
                    self.network,
                    cache_enabled=True,
                    cache_dir=str(self.cache_dir),
                )
        finally:
            engine.run_point = run_point
        return report

    cold = _run
    warm = _run

    def requests(self, cold: Any) -> int:
        return len(cold.reports)

    def check(self, cold: Any, warms: list[Any]) -> Verdict:
        verdict = Verdict()
        expected = self.config.num_points
        verdict.attempted = expected * (1 + len(warms))
        if len(cold.reports) != expected or cold.cache_misses != expected:
            verdict.fail(
                f"cold pass ran {cold.cache_misses} of {expected} points "
                f"({len(cold.reports)} reports)",
                expected,
            )
        for report in cold.reports:
            label = _point_label(report)
            conservation = report["checks"]["conservation"]
            if not report["ok"]:
                failed = [n for n, c in report["checks"].items() if not c["ok"]]
                verdict.fail(f"{label}: failed {', '.join(failed)}")
            elif (
                conservation["delivered_flits"]
                != conservation["expected_flits"]
                or conservation["delivered_messages"]
                != conservation["expected_messages"]
                or conservation["expected_flits"] <= 0
            ):
                verdict.fail(f"{label}: flits or messages not conserved")
        for warm in warms:
            if warm.cache_hits != expected:
                verdict.fail(
                    f"warm pass served {warm.cache_hits} of {expected} "
                    "points from the cache",
                    expected,
                )
            for ours, theirs in zip(cold.reports, warm.reports):
                if ours != theirs:
                    verdict.fail(f"{_point_label(ours)}: warm != cold")
        return verdict

    def counts(self, cold: Any, warms: list[Any]) -> dict[str, int]:
        conservation = [r["checks"]["conservation"] for r in cold.reports]
        return {
            "runner.points": len(cold.reports) * (1 + len(warms)),
            "runner.cache_hits": cold.cache_hits
            + sum(w.cache_hits for w in warms),
            "runner.cache_misses": cold.cache_misses
            + sum(w.cache_misses for w in warms),
            "conformance.flits": sum(c["delivered_flits"] for c in conservation),
            "conformance.messages": sum(
                c["delivered_messages"] for c in conservation
            ),
            "conformance.noc_cycles": sum(
                r["checks"]["latency"]["noc_cycles"] for r in cold.reports
            ),
            **_schedcache_counts(self.schedcache),
        }


def _point_label(report: dict) -> str:
    p = report["point"]
    return (
        f"{p['collective']}@{p['banks']}x{p['chips']}x{p['ranks']}"
        f"/{p['payload_bytes']}B"
    )


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------


class Sweep(Workload):
    """The 18 experiments, serially, against an empty then a full cache."""

    name = "sweep"
    warm_passes = 3

    def build(self, seed: int) -> None:
        from repro.config import pimnet_sim_system
        from repro.runner import code_fingerprint, ensure_experiments_loaded

        ensure_experiments_loaded()
        self.machine = pimnet_sim_system()
        self.seed = seed
        code_fingerprint()
        self.cache_dir: Path | None = None
        self.fresh()

    def generate(self) -> None:
        from repro.runner import REGISTRY

        self.goldens = {}
        for experiment_id in SWEEP_IDS:
            points = REGISTRY.get(experiment_id).points(self.machine)
            seeded = any("seed" in p.params for p in points)
            # Goldens were recorded under the registered seeds.
            if not seeded or self.seed == DEFAULT_SEED:
                path = GOLDEN_DIR / f"{experiment_id}.json"
                self.goldens[experiment_id] = json.loads(path.read_text())

    def fresh(self) -> None:
        from repro.config import RunnerConfig
        from repro.schedcache import ScheduleCache

        self.schedcache = ScheduleCache()
        self.cache_dir = _fresh_dir(self.cache_dir)
        self.runner = RunnerConfig(
            jobs=1, cache_enabled=True, cache_dir=str(self.cache_dir)
        )

    def _run(self, clock: PassClock) -> tuple:
        from repro.runner import run_experiment
        from repro.schedcache import use_schedule_cache

        seed = None if self.seed == DEFAULT_SEED else self.seed
        runs = []
        with use_schedule_cache(self.schedcache):
            for experiment_id in SWEEP_IDS:
                runs.append(
                    run_experiment(
                        experiment_id, self.machine, self.runner, seed
                    )
                )
                clock.mark()
        return tuple(runs)

    cold = _run
    warm = _run

    def requests(self, cold: tuple) -> int:
        return sum(run.points for run in cold)

    def check(self, cold: tuple, warms: list[tuple]) -> Verdict:
        from repro.runner import tables_to_jsonable

        verdict = Verdict()
        verdict.attempted = len(SWEEP_IDS) * (1 + len(warms))
        snapshots = {}
        for run in cold:
            snapshot = {
                "tables": tables_to_jsonable(run.tables),
                "formatted": run.format(),
            }
            snapshots[run.experiment_id] = snapshot
            golden = self.goldens.get(run.experiment_id)
            if run.cache_misses != run.points:
                verdict.fail(f"{run.experiment_id}: cold pass hit the cache")
            elif golden is not None and (
                snapshot["formatted"] != golden["formatted"]
                or snapshot["tables"] != golden["tables"]
            ):
                verdict.fail(f"{run.experiment_id}: output != golden")
        for warm in warms:
            for run in warm:
                snapshot = {
                    "tables": tables_to_jsonable(run.tables),
                    "formatted": run.format(),
                }
                if run.cache_hits != run.points:
                    verdict.fail(f"{run.experiment_id}: warm pass missed")
                elif snapshot != snapshots[run.experiment_id]:
                    verdict.fail(f"{run.experiment_id}: warm != cold")
        return verdict

    def counts(self, cold: tuple, warms: list[tuple]) -> dict[str, int]:
        runs = list(cold) + [run for warm in warms for run in warm]
        return {
            "runner.points": sum(run.points for run in runs),
            "runner.cache_hits": sum(run.cache_hits for run in runs),
            "runner.cache_misses": sum(run.cache_misses for run in runs),
            **_schedcache_counts(self.schedcache),
        }


# --------------------------------------------------------------------------
# fleet_serve
# --------------------------------------------------------------------------


def _fleet_service_config() -> Any:
    """Two 500 us slots (AllReduce, Reduce-Scatter) per shard."""
    from repro.config.service import (
        ServiceConfig,
        TenantQuotaConfig,
        TimeSlotConfig,
    )

    return ServiceConfig(
        slots=(
            TimeSlotConfig(
                "all_reduce",
                ("all_reduce",),
                time_window_s=500e-6,
                max_multiplexing=2,
            ),
            TimeSlotConfig(
                "reduce_scatter",
                ("reduce_scatter",),
                time_window_s=500e-6,
                max_multiplexing=2,
            ),
        ),
        switch_time_s=20e-6,
        queue_limit=64,
        default_quota=TenantQuotaConfig(max_queued=8, max_per_slot=4),
    )


@dataclass
class Drive:
    """One closed-loop drive: fleet stats, responses and shard counters."""

    stats: dict
    responses: list
    service_counters: dict[str, int]
    peak_queue_depth: int


class FleetServe(Workload):
    """A closed loop through a 4-shard fleet with a mid-run shard kill."""

    name = "fleet_serve"
    #: A repetition takes 6-8 s on two shared cores, so a run has only 3-4;
    #: two warm drives give ``cached_wall_s`` twice the samples.
    warm_passes = 2

    def build(self, seed: int) -> None:
        from repro.config import pimnet_sim_system
        from repro.config.fleet import FleetConfig, kill_shard_outage
        from repro.fleet import fleet_assignment

        self.machine = pimnet_sim_system()
        self.seed = seed
        self.tenant_names = tuple(
            f"cc-{i}" if i % 2 == 0 else f"emb-{i}"
            for i in range(FLEET["tenants"])
        )
        total = FLEET["tenants"] * FLEET["requests_per_tenant"]
        loads = [0] * FLEET["shards"]
        for home in fleet_assignment(self.tenant_names, FLEET["shards"]).values():
            loads[home] += 1
        self.killed = max(range(len(loads)), key=lambda i: (loads[i], -i))
        self.config = FleetConfig(
            shards=FLEET["shards"],
            service=_fleet_service_config(),
            max_reroutes=FLEET["max_reroutes"],
            outages=(
                kill_shard_outage(
                    self.killed, total // 3, total // 3, seed=seed
                ),
            ),
        )
        self.fresh()

    def generate(self) -> None:
        import numpy as np

        from repro.collectives.patterns import (
            Collective,
            CollectiveRequest,
            ReduceOp,
        )
        from repro.core.schedule import (
            Shape,
            build_schedule,
            schedule_timing,
        )

        system = self.machine.system
        shape = Shape(
            banks=system.banks_per_chip,
            chips=system.chips_per_rank,
            ranks=system.ranks_per_channel,
        )
        self.streams = []
        for index, name in enumerate(self.tenant_names):
            if index % 2 == 0:
                pattern, dtype, op = (
                    Collective.ALL_REDUCE, np.dtype(np.int64), ReduceOp.MIN
                )
                multipliers = _CC_MULTIPLIERS
            else:
                pattern, dtype, op = (
                    Collective.REDUCE_SCATTER, np.dtype(np.int32), ReduceOp.SUM
                )
                multipliers = _EMB_MULTIPLIERS
            quantum = shape.num_dpus * dtype.itemsize
            rng = random.Random(self.seed * 7919 + index)
            self.streams.append(
                (
                    name,
                    tuple(
                        CollectiveRequest(
                            pattern=pattern,
                            payload_bytes=quantum * rng.choice(multipliers),
                            dtype=dtype,
                            op=op,
                        )
                        for _ in range(FLEET["requests_per_tenant"])
                    ),
                )
            )
        # The oracle for every admitted service time: a fresh compile and
        # the slow-path link-load timing, with no schedule cache in use.
        # Each stream pins dtype, op and root per pattern, so (pattern,
        # payload bytes) identifies what the service prices.
        self.expected_service_s = {}
        for _, requests in self.streams:
            for request in requests:
                key = (request.pattern.value, request.payload_bytes)
                if key not in self.expected_service_s:
                    schedule = build_schedule(
                        request.pattern, shape, request.num_elements,
                        request.root,
                    )
                    self.expected_service_s[key] = sum(
                        schedule_timing(
                            schedule,
                            self.machine.pimnet,
                            itemsize=request.dtype.itemsize,
                        ).values()
                    )

    def fresh(self) -> None:
        from repro.fleet import FleetRouter
        from repro.observability import MetricsRegistry
        from repro.schedcache import ScheduleCache

        self.schedcache = ScheduleCache()
        self.routers = [
            FleetRouter(self.config, self.machine)
            for _ in range(1 + self.warm_passes)
        ]
        self.registries = [
            MetricsRegistry() for _ in range(1 + self.warm_passes)
        ]

    def _run(self, clock: PassClock) -> Drive:
        from repro.observability import use_metrics
        from repro.schedcache import use_schedule_cache

        router = self.routers.pop(0)
        registry = self.registries.pop(0)
        with use_schedule_cache(self.schedcache), use_metrics(registry):
            stats, responses = asyncio.run(
                _drive(router, self.streams, clock)
            )
            peak = max(
                shard.service.stats()["peak_queue_depth"]
                for shard in router.shards
            )
        counters = {
            name: int(registry.counter(name).value)
            for name in (
                "service.submitted",
                "service.admitted",
                "service.rejected",
                "service.occurrences",
            )
        }
        return Drive(stats, responses, counters, peak)

    cold = _run
    warm = _run

    def requests(self, cold: Drive) -> int:
        return len(cold.responses)

    def check(self, cold: Drive, warms: list[Drive]) -> Verdict:
        verdict = Verdict()
        total = FLEET["tenants"] * FLEET["requests_per_tenant"]
        for drive in [cold, *warms]:
            verdict.attempted += total
            self._check_drive(drive, total, verdict)
        reference = _outcome_log(cold)
        for warm in warms:
            if _outcome_log(warm) != reference:
                verdict.fail("warm drive outcomes != cold drive outcomes")
        return verdict

    def _check_drive(self, drive: Drive, total: int, verdict: Verdict) -> None:
        stats = drive.stats
        resolved = sum(
            stats[k] for k in ("admitted", "rerouted", "rejected", "failed")
        )
        if stats["submitted"] != total or resolved != stats["submitted"]:
            verdict.fail(
                f"submitted={stats['submitted']} resolved={resolved} "
                f"for {total} requests",
                abs(total - resolved) or 1,
            )
        sequences = sorted(r.sequence for r in drive.responses)
        if sequences != list(range(total)):
            verdict.fail(
                f"{len(drive.responses)} responses for {total} requests, "
                f"{len(set(sequences))} distinct",
                abs(total - len(set(sequences))) or 1,
            )
        mispriced = unresolved = 0
        for response in drive.responses:
            if response.outcome.value == "failed":
                unresolved += 1
            elif response.admitted:
                served = response.response
                expected = self.expected_service_s.get(
                    (served.pattern, served.payload_bytes)
                )
                if not served.replayed or served.service_s != expected:
                    mispriced += 1
        if unresolved:
            verdict.fail(f"{unresolved} request(s) FAILED", unresolved)
        if mispriced:
            verdict.fail(
                f"{mispriced} admitted request(s) priced differently from "
                "a fresh compile",
                mispriced,
            )

    def counts(self, cold: Drive, warms: list[Drive]) -> dict[str, int]:
        out: dict[str, int] = {}
        for drive in [cold, *warms]:
            for name in ("submitted", "admitted", "rerouted", "rejected",
                         "failed", "reroutes"):
                key = f"fleet.{name}"
                out[key] = out.get(key, 0) + drive.stats[name]
            for name, value in drive.service_counters.items():
                out[name] = out.get(name, 0) + value
        out["service.peak_queue_depth"] = max(
            d.peak_queue_depth for d in [cold, *warms]
        )
        out.update(_schedcache_counts(self.schedcache))
        return out

    def values(self, cold: Drive) -> dict[str, float]:
        latencies = [r.latency_s for r in cold.responses if r.admitted]
        submitted = cold.stats["submitted"]
        return {
            "service.sim_p50_s": nearest_rank(latencies, 50.0),
            "service.sim_p99_s": nearest_rank(latencies, 99.0),
            "reject_frac": cold.stats["rejected"] / submitted,
            "fleet.reroute_ratio": cold.stats["rerouted"] / submitted,
        }


def _outcome_log(drive: Drive) -> list[tuple]:
    return sorted(
        (
            r.sequence,
            r.tenant,
            r.outcome.value,
            r.shard,
            r.attempts,
            r.latency_s,
        )
        for r in drive.responses
    )


#: Completions per timed part of a fleet drive.
_BLOCK = 512


async def _drive(
    router: Any, streams: list, clock: PassClock
) -> tuple[dict, list]:
    """Each tenant bursts past its quota, then keeps a fixed number of
    requests outstanding until its stream is exhausted.  ``clock`` gets
    a mark at every ``_BLOCK``-th completion; the completion order is
    deterministic, so block ``i`` is the same work every drive."""
    responses: list = []

    def resolved(response: Any) -> None:
        responses.append(response)
        if len(responses) % _BLOCK == 0:
            clock.mark()

    async def submit(name: str, request: Any) -> None:
        resolved(await router.submit(name, request))

    async def tenant(name: str, requests: tuple) -> None:
        burst = requests[: FLEET["burst"]]
        await asyncio.gather(*(submit(name, r) for r in burst))
        pending = iter(requests[FLEET["burst"]:])

        async def client() -> None:
            for request in pending:
                await submit(name, request)

        await asyncio.gather(*(client() for _ in range(FLEET["concurrency"])))

    async with router:
        await asyncio.gather(*(tenant(n, reqs) for n, reqs in streams))
        await router.drain()
        stats = router.stats()
    return stats, responses


def nearest_rank(values: list[float], q: float) -> float:
    """Exact nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Conformance, FleetServe, Sweep)
}
