"""Bit-identity ledger of the vectorised kernels (ROADMAP item 1, kernel half).

``tests/data/kernel_digests.json`` holds the sha256 of the full result payload
(stored estimates included) of every cell below; it shares the agent ledger's
runner, file format and regeneration switch::

    PYTHONPATH=src python tests/test_kernel_ledger.py --regenerate

It covers the two sketch kernels, each under uniform gossip, a ring and a grid,
through a silent failure, a graceful departure, a join and churn; Push-Sum-Revert
in both modes over a perfect and a lossy network, uniform and on three graphs,
through a silent, a graceful and a correlated departure and a join, with and
without reversion; adaptive push, Full-Transfer, both extrema kernels, and the
event calendar at its instant anchor.  A topology has no slots for new hosts, so
the graphs churn without arrivals and have no join cell.
"""

from pathlib import Path

import pytest

from test_agent_ledger import committed, main, run_cell

LEDGER = Path(__file__).parent / "data" / "kernel_digests.json"

BASE = dict(backend="vectorized", store_estimates=True, n_hosts=300, rounds=12, seed=7)
ENVIRONMENTS = {"uniform": {}, "ring": {"environment": "ring"},
                "grid": {"environment": "grid", "n_hosts": 289}}
GRAPHS = dict(ENVIRONMENTS, **{"erdos-renyi": {"environment": "erdos-renyi",
                                               "environment_params": {"p": 0.05}}})
NETWORKS = {"perfect": {}, "bernoulli-loss": {"network": "bernoulli-loss",
                                              "network_params": {"p": 0.2}}}
FAILURE = {"event": "failure", "round": 6, "model": "uncorrelated", "fraction": 0.5}
CORRELATED = dict(FAILURE, model="correlated", highest=True)
JOIN = {"events": (FAILURE, {"event": "join", "round": 8, "count": 60})}
CHURN = {"event": "churn", "start": 3, "stop": 9, "model": "uncorrelated", "fraction": 0.05}
PSR = dict(BASE, protocol="push-sum-revert", events=(FAILURE,))


def _sketch_cells():
    cells = {}
    for protocol in ("count-sketch-reset", "sketch-count"):
        for environment, env_kwargs in ENVIRONMENTS.items():
            uniform = environment == "uniform"
            scenarios = {
                "failure": {"events": (FAILURE,)},
                "graceful-departure": {"graceful": 0.4},
                "churn": {"events": (dict(CHURN, arrivals_per_round=4 if uniform else 0),)},
            }
            if uniform:
                scenarios["join"] = JOIN
            for scenario, kwargs in scenarios.items():
                cells[f"{protocol}/{environment}/{scenario}"] = dict(
                    BASE, protocol=protocol, **env_kwargs, **kwargs)
    return cells


def _push_sum_revert_cells():
    cells = {}
    for mode in ("push", "exchange"):
        for network, net_kwargs in NETWORKS.items():
            for environment, env_kwargs in GRAPHS.items():
                scenarios = {
                    "failure": {},
                    "graceful-departure": {"graceful": 0.4, "events": ()},
                    "correlated-failure": {"events": (CORRELATED,)},
                }
                if environment == "uniform":
                    scenarios["join"] = JOIN
                for scenario, kwargs in scenarios.items():
                    for reversion in (0.0, 0.1):
                        name = f"push-sum-revert/{mode}/{network}/{environment}/{scenario}"
                        cells[f"{name}/lambda={reversion}"] = dict(
                            PSR, mode=mode, protocol_params={"reversion": reversion},
                            **net_kwargs, **env_kwargs, **kwargs)
    return cells


def _other_value_kernel_cells():
    lossy = NETWORKS["bernoulli-loss"]
    cells = {
        "push-sum-revert/push/adaptive": dict(
            PSR, mode="push", protocol_params={"reversion": 0.1, "adaptive": True}),
        "push-sum-revert/push/adaptive/bernoulli-loss/ring": dict(
            PSR, mode="push", protocol_params={"reversion": 0.1, "adaptive": True},
            environment="ring", **lossy),
        "push-sum-revert-full-transfer/perfect": dict(
            PSR, protocol="push-sum-revert-full-transfer", mode="push",
            protocol_params={"reversion": 0.1}),
        "push-sum-revert-full-transfer/bernoulli-loss": dict(
            PSR, protocol="push-sum-revert-full-transfer", mode="push",
            protocol_params={"reversion": 0.1}, **lossy),
    }
    for mode, net_kwargs in (("push", {}), ("exchange", lossy)):
        cells[f"events/push-sum-revert/{mode}/instant-anchor"] = dict(
            PSR, engine="events", mode=mode, protocol_params={"reversion": 0.1}, **net_kwargs)
    for protocol in ("extrema-gossip", "extrema-reset"):
        for environment in ("uniform", "ring"):
            cells[f"{protocol}/{environment}/failure"] = dict(
                BASE, protocol=protocol, mode="exchange", events=(FAILURE,),
                **ENVIRONMENTS[environment])
    return cells


def _cells():
    """Name → ``ScenarioSpec`` keywords (``graceful`` is popped by ``run_cell``)."""
    return {**_sketch_cells(), **_push_sum_revert_cells(), **_other_value_kernel_cells()}


CELLS = _cells()


def test_the_ledger_names_exactly_the_cells():
    assert sorted(committed(LEDGER)["digests"]) == sorted(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_kernel_payload_is_bit_identical(name):
    assert run_cell(CELLS[name]) == committed(LEDGER)["digests"][name]


if __name__ == "__main__":
    main("test_kernel_ledger.py", ledger=LEDGER, cells=CELLS)
