"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.network.models import NetworkModel
from repro.workloads.values import uniform_values


@pytest.fixture
def rng():
    """A deterministic NumPy generator for tests that need raw randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_values():
    """Twenty deterministic uniform values in [0, 100)."""
    return uniform_values(20, seed=7)


@pytest.fixture
def medium_values():
    """Two hundred deterministic uniform values in [0, 100)."""
    return uniform_values(200, seed=7)


class LossyLatentNetwork(NetworkModel):
    """A link that can lose or delay a send, for tests only.

    One loss draw (lost with probability ``p``), then, for a survivor, a
    delay drawn uniformly from ``[low, high]`` rounds — so a single round
    lands, loses and defers sends.
    """

    name = "lossy-latent"
    has_latency = True

    def __init__(self, p, high, low=0):
        self.p, self.low, self.high = p, low, high

    def plan(self, source, destination, round_index, rng):
        if rng.random() < self.p:
            return None
        return int(rng.integers(self.low, self.high + 1))


@pytest.fixture(scope="session")
def lossy_latent_network():
    """The :class:`LossyLatentNetwork` class (subclass it to spy on plans)."""
    return LossyLatentNetwork


@pytest.fixture
def user_network(monkeypatch, lossy_latent_network):
    """``lossy-latent`` registered as a user model for one test, then gone: the one
    kind of network no kernel realises."""
    from repro.api import NETWORKS, register_network

    monkeypatch.setattr(NETWORKS, "_entries", dict(NETWORKS._entries))
    monkeypatch.setattr(NETWORKS, "_signatures", dict(NETWORKS._signatures))
    register_network(lossy_latent_network.name, lossy_latent_network)
