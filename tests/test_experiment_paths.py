"""Each experiment has one definition, reachable two ways.

A module's ``run()`` evaluates its registered sweep in process; the
runner evaluates the same sweep point by point through the cache and
process-pool machinery.  Both must render identical tables for every
registered experiment.
"""

from __future__ import annotations

import pytest

from repro.config import RunnerConfig
from repro.experiments import EXPERIMENTS
from repro.runner import REGISTRY, run_experiment


def _in_process_tables(experiment_id: str) -> tuple:
    module = EXPERIMENTS[experiment_id]
    if hasattr(module, "run_both"):  # one result per panel
        return tuple(
            table
            for result in module.run_both()
            for table in module.build_tables(result)
        )
    return module.build_tables(module.run())


def test_every_registered_experiment_has_a_module():
    assert set(EXPERIMENTS) == set(REGISTRY.ids())


@pytest.mark.parametrize("experiment_id", REGISTRY.ids())
def test_in_process_tables_match_the_runner(experiment_id):
    run = run_experiment(
        experiment_id, runner=RunnerConfig(cache_enabled=False)
    )
    assert _in_process_tables(experiment_id) == run.tables
