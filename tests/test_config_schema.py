"""The declarative config schema: field checks and the JSON round-trip."""

import json

import pytest

import repro.config as config_pkg
from repro.config import (
    ConformanceConfig,
    FaultCampaignConfig,
    FaultModelConfig,
    FleetConfig,
    HostConfig,
    PimnetNetworkConfig,
    PimSystemConfig,
    RunnerConfig,
    ServiceConfig,
    ShardOutageConfig,
    TenantQuotaConfig,
    TierLinkConfig,
    TimeSlotConfig,
    default_fleet_config,
    default_service_config,
    kill_shard_outage,
)
from repro.errors import ConfigurationError, ConformanceError, FaultConfigError

NAN = float("nan")
INF = float("inf")


def case(label, build, error):
    return pytest.param(build, error, id=label)


@pytest.mark.parametrize("build,error", [
    case("retry_penalty_nan",
         lambda: FaultModelConfig(retry_penalty_flits=NAN), FaultConfigError),
    case("max_retries_float",
         lambda: FaultModelConfig(max_retries=2.5), FaultConfigError),
    case("rate_bool",
         lambda: FaultModelConfig(bank_fail_stop_rate=True), FaultConfigError),
    case("rate_str",
         lambda: FaultModelConfig(bank_straggler_rate="0.1"), FaultConfigError),
    case("trials_inf",
         lambda: FaultCampaignConfig(name="c", trials=INF), FaultConfigError),
    case("seed_nan",
         lambda: FaultCampaignConfig(name="c", seed=NAN), FaultConfigError),
    case("payload_float",
         lambda: FaultCampaignConfig(name="c", payload_bytes=1.5),
         FaultConfigError),
    case("jobs_nan", lambda: RunnerConfig(jobs=NAN), ConfigurationError),
    case("jobs_float", lambda: RunnerConfig(jobs=2.5), ConfigurationError),
    case("tier_channels_nan",
         lambda: TierLinkConfig("x", NAN, 16, 1e9, 0), ConfigurationError),
    case("banks_float",
         lambda: PimSystemConfig(banks_per_chip=2.5), ConfigurationError),
    case("cores_nan", lambda: HostConfig(num_cores=NAN), ConfigurationError),
    case("unicast_efficiency_bool",
         lambda: PimnetNetworkConfig(inter_rank_unicast_efficiency=True),
         ConfigurationError),
    case("json_max_queued_bool",
         lambda: TenantQuotaConfig.from_dict({"max_queued": True}),
         ConfigurationError),
    case("json_shards_str",
         lambda: FleetConfig.from_dict({"shards": "3"}), ConfigurationError),
    case("json_shape_float",
         lambda: ConformanceConfig.from_dict({"shapes": [[2.7, 2, 1]]}),
         ConformanceError),
    case("json_multiplexing_float",
         lambda: TimeSlotConfig.from_dict(
             {"name": "s", "max_multiplexing": 2.9}),
         ConfigurationError),
    case("json_shard_float",
         lambda: ShardOutageConfig.from_dict(
             {"shard": 1.7, "after_submissions": 0}),
         ConfigurationError),
])
def test_wrong_type_or_non_finite_value_rejected(build, error):
    with pytest.raises(error):
        build()


SERVICE = ServiceConfig(
    slots=(
        TimeSlotConfig("ar", ("all_reduce",), 2e-3, 2),
        TimeSlotConfig("rest", (), 1e-3, 1),
    ),
    switch_time_s=5e-6,
    queue_limit=32,
    default_quota=TenantQuotaConfig(max_queued=4, max_per_slot=2),
    tenant_quotas=(("vip", TenantQuotaConfig(max_queued=16)),),
)

ROUND_TRIP = [
    FaultModelConfig(),
    FaultModelConfig(bank_straggler_rate=0.25, straggler_severity=3,
                     retry_penalty_flits=5),
    FaultCampaignConfig(name="c"),
    FaultCampaignConfig(
        name="bathtub", model=FaultModelConfig(flit_corruption_rate=1e-3),
        seed=7, trials=4, payload_bytes=4096, targets=("bank:0:1:1", "bus"),
        description="d",
    ),
    TimeSlotConfig("s"),
    TimeSlotConfig("ar", ("all_reduce", "broadcast"), 2e-3, 3),
    TenantQuotaConfig(),
    TenantQuotaConfig(max_queued=2, max_per_slot=1),
    default_service_config(),
    SERVICE,
    ShardOutageConfig(shard=0, after_submissions=0),
    kill_shard_outage(1, 10, 5, seed=7),
    FleetConfig(),
    default_fleet_config(
        shards=4, service=SERVICE, max_reroutes=1,
        outages=(kill_shard_outage(3, 9), kill_shard_outage(1, 2, 4)),
    ),
    ConformanceConfig(),
    ConformanceConfig(
        collectives=("broadcast",), shapes=((4, 2, 2),), payload_bytes=(64,),
        latency_rel_tol=0.5, latency_min_ratio=1, itemsize=4, seed=3,
    ),
]


@pytest.mark.parametrize("config", ROUND_TRIP, ids=lambda c: type(c).__name__)
def test_json_text_round_trip(config):
    text = json.dumps(config.as_dict())
    assert type(config).from_dict(json.loads(text)) == config


def test_round_trip_covers_every_class_with_from_dict():
    with_from_dict = {
        obj for obj in vars(config_pkg).values()
        if isinstance(obj, type) and hasattr(obj, "from_dict")
    }
    assert with_from_dict == {type(c) for c in ROUND_TRIP}
