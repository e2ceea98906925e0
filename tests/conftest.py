"""Shared fixtures and references: the default lab grid and its prepared core state, a
helper pool of chosen size, seeded random states and the two-level Rabi system.

Every test fails if it leaves `statespace._stopping` set, which would stop later runs.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from zenolab import (Grid, Propagator, SubspaceProjector, WaveFunction, core_zone_state,
                     dense_hermitian, halfline_pair, make_gaussian, momentum_operator, statespace)

settings.register_profile(
    "suite",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def no_stop_left():
    """Fail a test that leaves `statespace._stopping` set, then clear it for the next test."""
    yield
    left = statespace._stopping.is_set()
    statespace._stopping.clear()
    assert not left, "the test left statespace._stopping set"


@pytest.fixture
def helpers(monkeypatch):
    """Install a helper pool of n threads and n permits for this test."""
    pools = []

    def install(n: int) -> None:
        pools.append(ThreadPoolExecutor(max_workers=max(n, 1)))
        monkeypatch.setattr(statespace, "_pool", pools[-1])
        monkeypatch.setattr(statespace, "_permits", threading.BoundedSemaphore(n))

    yield install
    for pool in pools:
        pool.shutdown(wait=True)


@pytest.fixture(scope="session")
def grid() -> Grid:
    """The default lab domain: [-40, 40] at 2^12 points."""
    return Grid(-40.0, 40.0, 4096)


@pytest.fixture(scope="session")
def small_grid() -> Grid:
    """A cheap grid (k_max ~ 10) for property tests and moment checks."""
    return Grid(-40.0, 40.0, 256)


@pytest.fixture(scope="session")
def momentum(grid):
    return momentum_operator(grid)


@pytest.fixture(scope="session")
def translator(momentum):
    return Propagator(momentum)


@pytest.fixture(scope="session")
def zone_pair(grid):
    return halfline_pair(grid)


@pytest.fixture(scope="session")
def core_state(grid, zone_pair):
    """The default prepared state: the Gaussian at -8, sigma 1, clipped to the core zone."""
    return core_zone_state(zone_pair[0], make_gaussian(grid, -8.0, 1.0))


def random_state(space, seed: int) -> WaveFunction:
    """Normalized state with iid complex-normal samples from a seeded rng."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=space.n_points) + 1j * rng.normal(size=space.n_points)
    return WaveFunction(space, values).normalized()


def rabi_system():
    """The two-level Rabi control: H = sigma_x, its propagator, the excited state [1, 0]
    and the projector pair [0, 1) / [1, 2), as (h, u, e, (p_core, p_wave))."""
    h = dense_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    pair = (SubspaceProjector(h.space, 0, 1), SubspaceProjector(h.space, 1, 2))
    return h, Propagator(h), WaveFunction(h.space, np.array([1.0, 0.0])), pair
