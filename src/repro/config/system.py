"""System-level configuration of the PIM machine being modeled.

The hierarchy mirrors UPMEM packaging (Fig 1 of the paper): a *bank* is the
unit of compute (one DPU + its 64 MB MRAM), 8 banks share a DRAM *chip*,
8 chips form a *rank* (one PIM DIMM side), several ranks share a memory
*channel*, and a server has several channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from . import units
from .schema import Validated, integer, real


@dataclass(frozen=True)
class DpuConfig(Validated):
    """Per-DPU microarchitecture parameters (UPMEM DPU defaults).

    ``pipeline_depth`` and ``min_tasklets_full_throughput`` encode the
    UPMEM revolving pipeline: one instruction issues per cycle only when at
    least 11 tasklets are resident; below that the pipeline round-robins
    with bubbles.
    """

    frequency_hz: float = real(350 * units.MHZ, gt=0)
    pipeline_depth: int = integer(14, ge=1)
    num_hw_tasklets: int = integer(24, ge=1)
    min_tasklets_full_throughput: int = integer(11, ge=1)
    wram_bytes: int = integer(64 * units.KIB, ge=1)
    iram_bytes: int = integer(24 * units.KIB, ge=1)
    mram_bytes: int = integer(64 * units.MIB, ge=1)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.min_tasklets_full_throughput > self.num_hw_tasklets:
            raise ConfigurationError(
                "min_tasklets_full_throughput must lie within "
                f"[1, {self.num_hw_tasklets}]"
            )

    @property
    def cycle_time_s(self) -> float:
        """Duration of one DPU clock cycle in seconds."""
        return 1.0 / self.frequency_hz


@dataclass(frozen=True)
class PimSystemConfig(Validated):
    """Shape of the PIM system: banks/chips/ranks/channels.

    Defaults correspond to the paper's simulated system (Table VI):
    8 banks per chip, 8 chips per rank, 4 ranks per channel — i.e. 256
    DPUs per memory channel, the scope of one PIMnet instance.
    """

    banks_per_chip: int = integer(8, ge=1)
    chips_per_rank: int = integer(8, ge=1)
    ranks_per_channel: int = integer(4, ge=1)
    num_channels: int = integer(1, ge=1)
    dpu: DpuConfig = field(default_factory=DpuConfig)

    # -- derived counts -----------------------------------------------------
    @property
    def banks_per_rank(self) -> int:
        return self.banks_per_chip * self.chips_per_rank

    @property
    def banks_per_channel(self) -> int:
        return self.banks_per_rank * self.ranks_per_channel

    @property
    def total_dpus(self) -> int:
        return self.banks_per_channel * self.num_channels

    @property
    def pim_memory_bytes(self) -> int:
        """Total PIM-attached DRAM capacity across all channels."""
        return self.total_dpus * self.dpu.mram_bytes

    def scaled_to_dpus(self, num_dpus: int) -> "PimSystemConfig":
        """Return a copy resized to ``num_dpus`` on a single channel.

        Used by the weak-scaling experiments (Figs 3 and 12), which grow the
        system 8 → 256 DPUs.  DPUs fill banks first, then chips, then ranks,
        matching how a real server would be populated.
        """
        if num_dpus < 1:
            raise ConfigurationError("need at least one DPU")
        banks = min(num_dpus, self.banks_per_chip)
        if num_dpus % banks != 0:
            raise ConfigurationError(
                f"{num_dpus} DPUs do not evenly fill {banks}-bank chips"
            )
        chips_needed = num_dpus // banks
        chips = min(chips_needed, self.chips_per_rank)
        if chips_needed % chips != 0:
            raise ConfigurationError(
                f"{num_dpus} DPUs do not evenly fill {chips}-chip ranks"
            )
        ranks = chips_needed // chips
        if ranks > self.ranks_per_channel:
            raise ConfigurationError(
                f"{num_dpus} DPUs exceed one channel "
                f"({self.banks_per_channel} banks)"
            )
        return PimSystemConfig(
            banks_per_chip=banks,
            chips_per_rank=chips,
            ranks_per_channel=ranks,
            num_channels=1,
            dpu=self.dpu,
        )


@dataclass(frozen=True)
class HostConfig(Validated):
    """Host CPU model used for host-mediated (baseline) collectives.

    The reduce bandwidth is the sustained rate at which the host can combine
    gathered partial results in memory; launch/receive overheads model the
    per-API-call costs that PID-Comm attacks (and that Software(Ideal)
    removes entirely).
    """

    num_cores: int = integer(16, ge=1)
    frequency_hz: float = real(4 * units.GHZ, gt=0)
    reduce_bandwidth_bytes_per_s: float = real(25 * units.GB, gt=0)
    kernel_launch_overhead_s: float = real(20 * units.US, ge=0)
    transfer_setup_overhead_s: float = real(10 * units.US, ge=0)
    per_rank_transfer_overhead_s: float = real(2 * units.US, ge=0)
