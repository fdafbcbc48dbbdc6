"""Shared fixtures for the PIMnet reproduction test suite."""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.config import (
    MachineConfig,
    PimSystemConfig,
    pimnet_sim_system,
    small_test_system,
)


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/goldens/*.json from the current model output "
        "instead of asserting against it",
    )


@pytest.fixture
def update_goldens(request: pytest.FixtureRequest) -> bool:
    return request.config.getoption("--update-goldens")


@pytest.fixture
def machine() -> MachineConfig:
    """The paper's simulated 256-DPU single-channel system (Table VI)."""
    return pimnet_sim_system()


@pytest.fixture
def tiny_machine() -> MachineConfig:
    """An 8-DPU (2x2x2) machine for fast functional tests."""
    return small_test_system()


@pytest.fixture
def medium_machine() -> MachineConfig:
    """A 4x2x2 (16-DPU) machine: big enough for asymmetric shapes."""
    from dataclasses import replace

    return replace(
        small_test_system(),
        system=PimSystemConfig(
            banks_per_chip=4, chips_per_rank=2, ranks_per_channel=2
        ),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_buffers(
    num_dpus: int,
    num_elements: int,
    rng: np.random.Generator,
    dtype=np.int64,
    low: int = 0,
    high: int = 1000,
) -> list[np.ndarray]:
    """Random per-DPU buffers for collective tests."""
    return [
        rng.integers(low, high, num_elements).astype(dtype)
        for _ in range(num_dpus)
    ]


@dataclass(frozen=True)
class ConformanceColdRun:
    """One cold ``repro conformance run`` of the default matrix."""

    exit_code: int
    #: The ``--json`` payload printed on stdout.
    payload: dict
    #: Whatever stdout carried after the payload (the ``wrote`` lines).
    trailer: str
    cache_dir: Path
    metrics_path: Path
    reproducer_dir: Path


@pytest.fixture(scope="session")
def conformance_cold_run(
    tmp_path_factory: pytest.TempPathFactory,
) -> ConformanceColdRun:
    """The 45-point default matrix run cold once per session, through the
    CLI with a cache directory, a metrics dump and ``--json``; every test
    that only reads a cold run's results shares it."""
    from repro.cli import main

    root = tmp_path_factory.mktemp("conformance-cold")
    cache_dir = root / "cache"
    metrics_path = root / "m.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exit_code = main([
            "conformance", "run",
            "--cache-dir", str(cache_dir),
            "--reproducer-dir", str(root),
            "--metrics", str(metrics_path),
            "--json",
        ])
    text = stdout.getvalue()
    payload, end = json.JSONDecoder().raw_decode(text)
    return ConformanceColdRun(
        exit_code=exit_code,
        payload=payload,
        trailer=text[end:],
        cache_dir=cache_dir,
        metrics_path=metrics_path,
        reproducer_dir=root,
    )
