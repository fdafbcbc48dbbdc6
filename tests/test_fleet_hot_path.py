"""The fleet's per-request hot path: constant work, safe memos, rebinding.

Rankings, route orders, metric instruments, slot acceptance and each
queued entry's structure key and price are resolved once and reused.
These tests pin that the reuse is real (registry lookups and rendezvous
scores do not grow with the request count), that it changes nothing
(outcomes and merged metrics equal a run with every memo bypassed), and
that each memo is dropped exactly when what it depends on changes.
"""

import asyncio
from collections import Counter

import pytest

from repro.collectives.patterns import Collective, CollectiveRequest
from repro.config import small_test_system
from repro.config.faults import FaultModelConfig
from repro.config.fleet import (
    FleetConfig,
    ShardOutageConfig,
    kill_shard_outage,
)
from repro.config.service import (
    ServiceConfig,
    TenantQuotaConfig,
    TimeSlotConfig,
)
from repro.fleet import (
    FleetOutcome,
    FleetRouter,
    ShardHealth,
    home_shard,
    shard_ranking,
)
from repro.fleet import router as router_module
from repro.observability import MetricsRegistry, use_metrics
from repro.schedcache import ScheduleCache, use_schedule_cache
from repro.service import AdmissionQueue, CollectiveService, SlotCycle

pytestmark = pytest.mark.fleet

TINY = small_test_system()  # 2x2x2 = 8 DPUs
TENANTS = ("a", "b", "c", "d")
SHARDS = 3
#: Tenant "a"'s home shard is killed after 6 submissions and revived 6
#: later, so every drive reroutes and serves on a revived service.
OUTAGE = kill_shard_outage(home_shard("a", SHARDS), 6, 6)


def ar(elements_per_dpu: int) -> CollectiveRequest:
    return CollectiveRequest(
        Collective.ALL_REDUCE, payload_bytes=8 * 8 * elements_per_dpu
    )


def rs(elements_per_dpu: int) -> CollectiveRequest:
    return CollectiveRequest(
        Collective.REDUCE_SCATTER, payload_bytes=8 * 8 * elements_per_dpu
    )


def fleet_config(max_reroutes: int = 1, outages=(OUTAGE,)) -> FleetConfig:
    window = dict(time_window_s=300e-6, max_multiplexing=2)
    return FleetConfig(
        shards=SHARDS,
        service=ServiceConfig(
            slots=(
                TimeSlotConfig("all_reduce", ("all_reduce",), **window),
                TimeSlotConfig(
                    "reduce_scatter", ("reduce_scatter",), **window
                ),
            ),
            switch_time_s=20e-6,
            queue_limit=64,
            default_quota=TenantQuotaConfig(max_queued=8, max_per_slot=2),
        ),
        max_reroutes=max_reroutes,
        outages=outages,
    )


def drive(requests: int, lookups: Counter | None = None):
    """Submit ``requests`` in rounds of one per tenant, concurrently.

    Returns every response's dict, the merged fleet registry and the
    lookup tally frozen before the merge (which makes lookups of its
    own).  A fresh schedule cache keeps its per-compile counters equal
    from drive to drive.
    """

    async def go():
        async with FleetRouter(fleet_config(), TINY) as fleet:
            responses = []
            for start in range(0, requests, len(TENANTS)):
                responses += await asyncio.gather(*(
                    fleet.submit(
                        TENANTS[i % len(TENANTS)],
                        (ar if i % 2 else rs)(1 + i % 3),
                    )
                    for i in range(start, min(start + len(TENANTS), requests))
                ))
            await fleet.drain()
            frozen = Counter(lookups) if lookups is not None else None
            return [r.to_dict() for r in responses], fleet, frozen

    with use_schedule_cache(ScheduleCache()), use_metrics(MetricsRegistry()):
        responses, fleet, frozen = asyncio.run(go())
    fleet.check_conservation()
    return responses, fleet.merged_metrics().to_dict(), frozen


@pytest.fixture
def lookups(monkeypatch):
    """Count counter/histogram lookups on every registry in the process."""
    calls: Counter = Counter()
    for kind in ("counter", "histogram"):
        original = getattr(MetricsRegistry, kind)

        def counted(self, name, labels=None, _original=original, _kind=kind):
            calls[_kind] += 1
            return _original(self, name, labels)

        monkeypatch.setattr(MetricsRegistry, kind, counted)
    return calls


@pytest.fixture
def scores(monkeypatch):
    """Count rendezvous scores, starting from an empty ranking memo."""
    calls = Counter()
    original = router_module._score

    def counted(tenant, key, shard):
        calls["score"] += 1
        return original(tenant, key, shard)

    monkeypatch.setattr(router_module, "_score", counted)
    router_module._ranking.cache_clear()
    yield calls
    router_module._ranking.cache_clear()


def bypass_memos(monkeypatch) -> None:
    """Bypass every hot-path memo, redoing all work on every request."""
    monkeypatch.setattr(
        router_module, "_ranking", router_module._ranking.__wrapped__
    )
    route_order = FleetRouter._route_order

    def fresh_route_order(self, ranking):
        self._orders_states = None
        return route_order(self, ranking)

    monkeypatch.setattr(FleetRouter, "_route_order", fresh_route_order)
    select = AdmissionQueue.select

    def rekeying_select(self, slot, structure_key, service_time_s):
        for entry in self._entries:
            entry.structure = entry.service_s = None
        return select(self, slot, structure_key, service_time_s)

    monkeypatch.setattr(AdmissionQueue, "select", rekeying_select)
    instruments = CollectiveService._metrics

    def unbound_instruments(self):
        self._bound = None
        return instruments(self)

    monkeypatch.setattr(CollectiveService, "_metrics", unbound_instruments)
    monkeypatch.setattr(
        SlotCycle,
        "accepts",
        lambda self, pattern: any(s.accepts(pattern) for s in self.slots),
    )


class TestWorkPerRequest:
    def test_lookups_and_scores_do_not_grow_with_requests(
        self, lookups, scores
    ):
        work = []
        for requests in (48, 96):
            lookups.clear()
            scores.clear()
            router_module._ranking.cache_clear()
            responses, _, frozen = drive(requests, lookups)
            assert len(responses) == requests
            assert any(r["outcome"] == "rerouted" for r in responses)
            work.append((frozen, scores["score"]))
        assert work[0] == work[1]
        frozen, score_calls = work[0]
        assert frozen["counter"] > 0 and frozen["histogram"] > 0
        assert 0 < score_calls <= len(TENANTS) * SHARDS

    def test_memos_change_no_outcome_and_no_metric(self, monkeypatch):
        memoized = drive(60)
        with monkeypatch.context() as patch:
            bypass_memos(patch)
            bypassed = drive(60)
        assert memoized[0] == bypassed[0]
        assert memoized[1] == bypassed[1]


class TestInvalidation:
    def test_shard_counters_stay_cumulative_across_kill_and_revive(self):
        home = home_shard("a", SHARDS)

        async def go():
            config = fleet_config(outages=())
            async with FleetRouter(config, TINY) as fleet:
                for _ in range(2):
                    await fleet.submit("a", ar(1))
                await fleet.inject_outage(kill_shard_outage(home, 0))
                away = await fleet.submit("a", ar(1))
                await fleet.revive_shard(home)
                for _ in range(2):
                    await fleet.submit("a", ar(1))
                await fleet.drain()
                return away, fleet.shards[home], fleet.merged_metrics()

        away, shard, merged = asyncio.run(go())
        assert away.outcome is FleetOutcome.REROUTED
        assert shard.generation == 1
        stats = shard.stats()
        assert stats["submitted"] == stats["admitted"] == 4
        labels = {"shard": shard.name}
        assert merged.counter("fleet.shard.admitted", labels).value == 4
        latency = merged.histogram(
            "fleet.request_latency_s", {"tenant": "a", "shard": shard.name}
        )
        assert latency.count == 4

    def test_health_transitions_reorder_the_very_next_submission(self):
        ranking = shard_ranking("a", SHARDS)
        first, second, third = ranking
        degrade = ShardOutageConfig(
            shard=second,
            after_submissions=0,
            model=FaultModelConfig(
                bank_straggler_rate=1.0, straggler_severity=2.0
            ),
        )

        async def go():
            config = fleet_config(max_reroutes=2, outages=())
            async with FleetRouter(config, TINY) as f:
                seen = []

                async def step():
                    response = await f.submit("a", ar(1))
                    seen.append((f.route_order("a"), response.attempts[0]))

                await step()
                await f.inject_outage(kill_shard_outage(first, 0))
                await step()
                assert await f.inject_outage(degrade) is ShardHealth.DEGRADED
                await step()
                await f.revive_shard(first)
                await step()
                await f.revive_shard(second)
                await step()
                await f.drain()
                return seen

        assert asyncio.run(go()) == [
            (ranking, first),
            ((second, third), second),
            ((third, second), third),
            ((first, third, second), first),
            (ranking, first),
        ]
