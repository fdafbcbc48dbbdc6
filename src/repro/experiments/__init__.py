"""Experiment drivers: one module per paper figure/table.

Every module exposes ``run(...) -> result``, ``build_tables(result)``
and ``format_table(result) -> str`` printing the paper-shaped rows; the
benchmark suite calls them.  A swept module defines its experiment once,
as a registered sweep (``_points`` / ``_point`` / ``_result``): ``run()``
evaluates that sweep in process and the runner evaluates it with caching
and worker processes, so both paths render the same tables.
"""

from . import (
    ablations,
    characterization,
    fault_sweep,
    fig02_roofline,
    fig03_motivation,
    fig10_applications,
    fig11_comm_breakdown,
    fig12_collective_scaling,
    fig13_flow_control,
    fig14_bandwidth_sweep,
    fig15_alt_pim,
    fig16_multichannel,
    fig17_multitenancy,
    fleet_resilience,
    hw_overhead,
    message_size_sweep,
    noc_load_latency,
    prim_suite,
    straggler_tail,
    table04_tiers,
    table05_algorithms,
    tenant_service_load,
)
from .common import ExperimentTable, SCALING_DPU_COUNTS, scaled_machine

#: Registry: experiment id -> module (each with run/format_table).
EXPERIMENTS = {
    "fig02": fig02_roofline,
    "fig03": fig03_motivation,
    "table04": table04_tiers,
    "table05": table05_algorithms,
    "fig10": fig10_applications,
    "fig11": fig11_comm_breakdown,
    "fig12": fig12_collective_scaling,
    "fig13": fig13_flow_control,
    "fig14": fig14_bandwidth_sweep,
    "fig15": fig15_alt_pim,
    "fig16": fig16_multichannel,
    "fig17": fig17_multitenancy,
    "hw_overhead": hw_overhead,
    "ablations": ablations,
    "size_sweep": message_size_sweep,
    "characterization": characterization,
    "noc_load_latency": noc_load_latency,
    "prim_suite": prim_suite,
    "fault_sweep": fault_sweep,
    "straggler_tail": straggler_tail,
    "tenant_service_load": tenant_service_load,
    "fleet_resilience": fleet_resilience,
}

__all__ = [
    "EXPERIMENTS",
    "ablations",
    "characterization",
    "fault_sweep",
    "noc_load_latency",
    "prim_suite",
    "straggler_tail",
    "ExperimentTable",
    "SCALING_DPU_COUNTS",
    "scaled_machine",
    "fig02_roofline",
    "fig03_motivation",
    "fig10_applications",
    "fig11_comm_breakdown",
    "fig12_collective_scaling",
    "fig13_flow_control",
    "fig14_bandwidth_sweep",
    "fig15_alt_pim",
    "fig16_multichannel",
    "fig17_multitenancy",
    "fleet_resilience",
    "hw_overhead",
    "message_size_sweep",
    "table04_tiers",
    "table05_algorithms",
    "tenant_service_load",
]
