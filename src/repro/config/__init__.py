"""Configuration layer: units, machine shape, network tiers, compute profiles.

The defaults throughout this package reproduce the paper's evaluated
system (Tables II, IV, and VI); experiments construct variations through
the dataclasses' ``replace``-style helpers rather than by mutation.

Every config dataclass follows one declarative schema
(:mod:`repro.config.schema`).  Each field declares its constraint once,
as ``dataclasses.field`` metadata: an int, a finite real, a bool, a
string, a member of a fixed set, or a tuple whose entries meet their own
constraint, with closed or open bounds and optionally ``None``.  One
validator checks every field when an instance is built and raises the
class's own error type (:class:`~repro.errors.ConfigurationError`,
:class:`~repro.errors.FaultConfigError` or
:class:`~repro.errors.ConformanceError`) naming the field.  Rules that
span several fields live in the class's own ``__post_init__``, after the
field checks.  The JSON specs (service, fleet, fault and conformance)
share one ``as_dict``/``from_dict`` pair that follows the field
annotations, rejects unknown keys and wrong-typed values, and takes
defaults from the fields.
"""

from . import units
from .compute import (
    ALT_PIM_PROFILES,
    ComputeProfile,
    Op,
    UPMEM_OP_COSTS,
    gddr6_aim_profile,
    hbm_pim_profile,
    next_gen_dpu_profile,
    upmem_profile,
)
from .conformance import ConformanceConfig
from .network import (
    BufferChipConfig,
    HostLinkConfig,
    PimnetNetworkConfig,
    TierLinkConfig,
)
from .faults import (
    FAULT_KINDS,
    FaultCampaignConfig,
    FaultModelConfig,
)
from .fleet import (
    FleetConfig,
    ShardOutageConfig,
    default_fleet_config,
    kill_shard_outage,
)
from .presets import (
    MachineConfig,
    pimnet_sim_system,
    small_test_system,
    upmem_server,
)
from .runner import RunnerConfig
from .service import (
    ServiceConfig,
    TenantQuotaConfig,
    TimeSlotConfig,
    default_service_config,
)
from .system import DpuConfig, HostConfig, PimSystemConfig
from .trace import TRACE_CLOCKS, TraceConfig

__all__ = [
    "units",
    "ALT_PIM_PROFILES",
    "ComputeProfile",
    "Op",
    "UPMEM_OP_COSTS",
    "gddr6_aim_profile",
    "hbm_pim_profile",
    "next_gen_dpu_profile",
    "upmem_profile",
    "BufferChipConfig",
    "ConformanceConfig",
    "HostLinkConfig",
    "PimnetNetworkConfig",
    "TierLinkConfig",
    "FAULT_KINDS",
    "FaultCampaignConfig",
    "FaultModelConfig",
    "FleetConfig",
    "ShardOutageConfig",
    "default_fleet_config",
    "kill_shard_outage",
    "MachineConfig",
    "pimnet_sim_system",
    "small_test_system",
    "upmem_server",
    "DpuConfig",
    "HostConfig",
    "PimSystemConfig",
    "RunnerConfig",
    "ServiceConfig",
    "TenantQuotaConfig",
    "TimeSlotConfig",
    "default_service_config",
    "TRACE_CLOCKS",
    "TraceConfig",
]
