"""Bit-identity ledger of the per-host agent engines (ROADMAP item 1, agent half).

``tests/data/agent_digests.json`` holds the sha256 of the full result payload
(stored estimates included) of every cell below.  A rewrite of an agent hot
path that keeps every RNG draw, bound and order leaves the file untouched; a
change that moves a digest on purpose regenerates it and says why in
CHANGES.md::

    PYTHONPATH=src python tests/test_agent_ledger.py --regenerate

The agent protocols fold their inboxes with the builtin ``sum``, which is
compensated (Neumaier) from Python 3.12 on: low bits differ across that line,
so the file records which side wrote it and the other side skips.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.api import ScenarioSpec, run_scenario

LEDGER = Path(__file__).parent / "data" / "agent_digests.json"
COMPENSATED_SUM = sys.version_info >= (3, 12)

BASE = dict(backend="agent", store_estimates=True, n_hosts=200, rounds=12, seed=5)
FAILURE = {"event": "failure", "round": 6, "model": "uncorrelated", "fraction": 0.5}
GRACEFUL = {"event": "graceful-departure", "round": 6, "model": "uncorrelated", "fraction": 0.4}
LOSS = dict(network="bernoulli-loss", network_params={"p": 0.2})
LATENCY = dict(network="latency",
               network_params={"distribution": "uniform", "low": 0, "high": 2})
NETWORKS = {"perfect": {}, "bernoulli-loss": LOSS, "latency": LATENCY}
PROTOCOLS = {
    "push-sum": {},
    "push-sum-revert": {"reversion": 0.1},
    "epoch-push-sum": {"epoch_length": 5},
    "count-sketch-reset": {},
    "invert-average": {},
}
HETEROGENEOUS = {"rates": {"distribution": "heterogeneous", "fast": 2.0, "slow": 0.25},
                 "synchronized": False}
LOGNORMAL = {"rates": {"distribution": "lognormal", "mean": 0.0, "sigma": 0.8, "min_rate": 0.5},
             "synchronized": False}
PSR = dict(BASE, protocol="push-sum-revert", protocol_params={"reversion": 0.1})


def _cells():
    """Name → ``ScenarioSpec`` keywords."""
    cells = {}
    for protocol, params in PROTOCOLS.items():
        for mode in ("push", "exchange"):
            for network, network_kwargs in NETWORKS.items():
                if (mode, network) == ("exchange", "latency"):
                    continue  # the round engine cannot defer an atomic exchange
                cells[f"{protocol}/{mode}/{network}"] = dict(
                    BASE, protocol=protocol, protocol_params=params, mode=mode,
                    events=(FAILURE,), **network_kwargs,
                )
    events_engine = dict(PSR, engine="events", **LATENCY)
    cells.update({
        "events/push/latency/heterogeneous-clocks": dict(
            events_engine, mode="push", engine_params=HETEROGENEOUS, events=(FAILURE,)),
        "events/exchange/latency/heterogeneous-clocks": dict(
            events_engine, mode="exchange", engine_params=HETEROGENEOUS, events=(FAILURE,)),
        "events/push/latency/failure-then-join": dict(
            events_engine, mode="push",
            events=(FAILURE, {"event": "join", "round": 8, "count": 60})),
        "events/exchange/latency/churn": dict(
            events_engine, mode="exchange", engine_params=HETEROGENEOUS,
            events=({"event": "churn", "start": 3, "stop": 9, "model": "bernoulli",
                     "p": 0.05, "arrivals_per_round": 4},)),
        "events/push/latency/graceful-departure": dict(
            events_engine, mode="push", events=(GRACEFUL,)),
        "events/push/latency/lognormal-clocks-join": dict(
            events_engine, mode="push", engine_params=LOGNORMAL,
            events=(FAILURE, {"event": "join", "round": 8, "count": 60})),
        # The joiners arrive at t=9: a slow one (period 4) snaps onto the grid point 12.
        "events/exchange/perfect/heterogeneous-synchronized-join": dict(
            PSR, engine="events", mode="exchange",
            engine_params=dict(HETEROGENEOUS, synchronized=True),
            events=(FAILURE, {"event": "join", "round": 8, "count": 60})),
        "rounds/push/loss/failure-then-join": dict(
            PSR, mode="push", **LOSS,
            events=(FAILURE, {"event": "join", "round": 8, "count": 60})),
        "rounds/push/latency/churn": dict(
            PSR, mode="push", **LATENCY,
            events=({"event": "churn", "start": 3, "stop": 9, "model": "bernoulli",
                     "p": 0.05, "arrivals_per_round": 4},)),
        "rounds/push/loss/graceful-departure": dict(
            PSR, mode="push", events=(GRACEFUL,), **LOSS),
        "rounds/exchange/loss/value-change": dict(
            PSR, mode="exchange", **LOSS,
            events=(FAILURE, {"event": "value-change", "round": 4,
                              "values": {"3": 500.0, "150": -20.0}})),
        # 30 survivors with ids up to 199: a set this small does not iterate in id
        # order, so these two cells see the order the live roster lists its members in.
        "rounds/push/loss/sparse-survivors-then-join": dict(
            PSR, mode="push", **LOSS,
            events=(dict(FAILURE, round=4, fraction=0.85),
                    {"event": "join", "round": 8, "count": 30})),
        "events/exchange/latency/sparse-survivors-then-join": dict(
            events_engine, mode="exchange", engine_params=HETEROGENEOUS,
            events=(dict(FAILURE, round=4, fraction=0.85),
                    {"event": "join", "round": 8, "count": 30})),
        "ring/push/loss": dict(PSR, mode="push", environment="ring", events=(FAILURE,), **LOSS),
        "grid/exchange/perfect": dict(
            PSR, mode="exchange", environment="grid", n_hosts=196, events=(FAILURE,)),
        "sketch-count/push/loss": dict(
            BASE, protocol="sketch-count", mode="push", events=(FAILURE,), **LOSS),
        "extrema-reset/push/latency": dict(
            BASE, protocol="extrema-reset", mode="push", events=(FAILURE,), **LATENCY),
    })
    full_transfer = dict(BASE, protocol="push-sum-revert-full-transfer", mode="push",
                         events=(FAILURE,))
    for network, network_kwargs in NETWORKS.items():
        cells[f"push-sum-revert-full-transfer/push/{network}"] = dict(
            full_transfer, **network_kwargs)
    for network in ("perfect", "latency"):
        cells[f"events/full-transfer/push/{network}"] = dict(
            full_transfer, engine="events", **NETWORKS[network])
    return cells


CELLS = _cells()


def run_cell(cell):
    """The payload sha256 of one cell."""
    payload = json.dumps(run_scenario(ScenarioSpec(**cell)).to_payload(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def committed(ledger=LEDGER):
    """The ledger file's contents (no digests when it does not exist yet)."""
    return json.loads(ledger.read_text()) if ledger.exists() else {"digests": {}}


pytestmark = pytest.mark.skipif(
    committed().get("compensated_sum", COMPENSATED_SUM) != COMPENSATED_SUM,
    reason="the ledger was written on the other side of Python 3.12's compensated sum()",
)


def test_the_ledger_names_exactly_the_cells():
    assert sorted(committed()["digests"]) == sorted(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_agent_payload_is_bit_identical(name):
    assert run_cell(CELLS[name]) == committed()["digests"][name]


def regenerate(ledger=LEDGER, cells=CELLS, **flags):
    """Rewrite ``ledger`` (digests plus ``flags``) and print which cells moved."""
    old = committed(ledger)["digests"]
    new = {name: run_cell(cell) for name, cell in sorted(cells.items())}
    for name in sorted(set(old) | set(new)):
        if old.get(name) != new.get(name):
            state = "added" if name not in old else "removed" if name not in new else "moved"
            print(f"{state}: {name}")
    ledger.parent.mkdir(exist_ok=True)
    ledger.write_text(json.dumps({**flags, "digests": new}, indent=1, sort_keys=True) + "\n")
    print(f"{len(new)} cells written to {ledger}")


def main(script, **regenerate_args):
    """The ``--regenerate`` command line of a ledger test file."""
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: python tests/{script} --regenerate")
    regenerate(**regenerate_args)


if __name__ == "__main__":
    main("test_agent_ledger.py", compensated_sum=COMPENSATED_SUM)
