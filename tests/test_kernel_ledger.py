"""Bit-identity ledger of the vectorised kernels (ROADMAP item 1, kernel half).

``tests/data/kernel_digests.json`` holds the sha256 of the full result payload
(stored estimates included) of every cell below; it shares the agent ledger's
runner, file format and regeneration switch::

    PYTHONPATH=src python tests/test_kernel_ledger.py --regenerate

So far it covers the two sketch kernels, each under uniform gossip, a ring and
a grid, through a silent failure, a graceful departure, a join and churn.  A
topology has no slots for new hosts, so ring and grid churn without arrivals
and have no join cell.
"""

from pathlib import Path

import pytest

from test_agent_ledger import committed, main, run_cell

LEDGER = Path(__file__).parent / "data" / "kernel_digests.json"

BASE = dict(backend="vectorized", store_estimates=True, n_hosts=300, rounds=12, seed=7)
ENVIRONMENTS = {"uniform": {}, "ring": {"environment": "ring"},
                "grid": {"environment": "grid", "n_hosts": 289}}
FAILURE = {"event": "failure", "round": 6, "model": "uncorrelated", "fraction": 0.5}
CHURN = {"event": "churn", "start": 3, "stop": 9, "model": "uncorrelated", "fraction": 0.05}


def _cells():
    """Name → ``ScenarioSpec`` keywords (``graceful`` is popped by ``run_cell``)."""
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
                scenarios["join"] = {"events": (FAILURE, {"event": "join", "round": 8,
                                                          "count": 60})}
            for scenario, kwargs in scenarios.items():
                cells[f"{protocol}/{environment}/{scenario}"] = dict(
                    BASE, protocol=protocol, **env_kwargs, **kwargs)
    return cells


CELLS = _cells()


def test_the_ledger_names_exactly_the_cells():
    assert sorted(committed(LEDGER)["digests"]) == sorted(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_kernel_payload_is_bit_identical(name):
    assert run_cell(CELLS[name]) == committed(LEDGER)["digests"][name]


if __name__ == "__main__":
    main("test_kernel_ledger.py", ledger=LEDGER, cells=CELLS)
