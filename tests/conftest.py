"""Shared fixtures: small deterministic datasets, networks, and traces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import SyntheticConfig, make_cifar_like
from repro.energy import solar_trace, uniform_random_events
from repro.models import make_multi_exit_lenet
from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU
from repro.nn.network import MultiExitNetwork, Sequential


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small, easy dataset (fast to learn in a couple of epochs)."""
    return make_cifar_like(
        num_train=200,
        num_val=80,
        num_test=80,
        config=SyntheticConfig(noise_std=0.8),
        seed=7,
    )


@pytest.fixture(scope="session")
def lenet():
    """The paper's multi-exit LeNet, untrained, fixed seed."""
    return make_multi_exit_lenet(seed=3)


def make_tiny_two_exit(seed: int = 0, num_classes: int = 5) -> MultiExitNetwork:
    """A minimal 2-exit network on 2x8x8 inputs for fast gradient tests."""
    return MultiExitNetwork(
        segments=[
            Sequential(
                [Conv2d(2, 3, 3, padding=1, name="t.c1", rng=seed), ReLU(), MaxPool2d(2)],
                name="t.seg0",
            ),
            Sequential([Conv2d(3, 4, 3, name="t.c2", rng=seed + 1), ReLU()], name="t.seg1"),
        ],
        branches=[
            Sequential([Flatten(), Linear(3 * 4 * 4, num_classes, name="t.f1", rng=seed + 2)]),
            Sequential([Flatten(), Linear(4 * 2 * 2, num_classes, name="t.f2", rng=seed + 3)]),
        ],
        name="tiny_two_exit",
        num_classes=num_classes,
    )


@pytest.fixture
def tiny_net():
    return make_tiny_two_exit()


@pytest.fixture(scope="session")
def short_trace():
    """A 2000-second solar trace for fast simulator tests."""
    return solar_trace(duration=2000.0, dt=1.0, seed=5)


@pytest.fixture(scope="session")
def short_events(short_trace):
    return uniform_random_events(40, short_trace.duration, rng=9)


def run_oracle(spec):
    """The scalar oracle: every device of ``spec`` through its own
    :class:`~repro.sim.simulator.Simulator` via ``run_device``, in index
    order, as one :class:`~repro.fleet.results.FleetResult`."""
    from repro.fleet.results import FleetResult
    from repro.fleet.runner import run_device

    devices = [run_device((i, d, spec.seed)) for i, d in enumerate(spec.devices)]
    return FleetResult(fleet_name=spec.name, seed=spec.seed, devices=devices)


@pytest.fixture(scope="session")
def oracle():
    """:func:`run_oracle`, for tests that check a fleet path against the
    per-device scalar simulator."""
    return run_oracle
