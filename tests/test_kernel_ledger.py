"""Bit-identity ledger of the vectorised kernels (ROADMAP item 1, kernel half).

``tests/data/kernel_digests.json`` holds the sha256 of the full result payload
(stored estimates included) of every cell below; it shares the agent ledger's
runner, file format and regeneration switch::

    PYTHONPATH=src python tests/test_kernel_ledger.py --regenerate

It covers the two sketch kernels, each under uniform gossip, a ring and a grid,
through a silent failure, a graceful departure, a join and churn, and uniform with
four bits per bin (most bins fill to the end); Push-Sum-Revert
in both modes over a perfect and a lossy network, uniform and on three graphs,
through a silent, a graceful and a correlated departure and a join, with and
without reversion; adaptive push, Full-Transfer, both extrema kernels (on three
graphs, through every membership kind and a value change), value changes and
correlated sketch failures, the event calendar at its instant anchor, and
group-relative error on a contact trace
(Figure 11's two kernels), a random geometric graph and the spatial grid.  A
topology has no slots for new hosts, so the graphs churn without arrivals and
have no join cell.

The event calendar off its anchor is a product too large to run whole: every
mode × network × membership change, each completed greedily from the clock,
rate, ledger, reversion and quantum levels so that any two levels of any two
factors meet in at least one cell.  Sketch-Count, the one other calendar kernel,
gets a second such table (network × membership, filled in from its two modes and
the same levels).  Six larger calendar runs (600 hosts, ten rounds) sit beside
them, among them a join under lognormal clocks, four tick passes per bucket, and
loss with no delay sampler; so do ring calendar cells for Push-Sum-Revert and
Sketch-Count in both modes, and static Push-Sum in both modes on both engines.
"""

from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest

from test_agent_ledger import GRACEFUL, committed, main, run_cell

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
                "graceful-departure": {"events": (GRACEFUL,)},
                "churn": {"events": (dict(CHURN, arrivals_per_round=4 if uniform else 0),)},
            }
            if uniform:
                scenarios["join"] = JOIN
            for scenario, kwargs in scenarios.items():
                cells[f"{protocol}/{environment}/{scenario}"] = dict(
                    BASE, protocol=protocol, **env_kwargs, **kwargs)
        # Four bits for 300 hosts: most bins fill to the end (the read-out's all-ones rank).
        cells[f"{protocol}/uniform/full-bins"] = dict(
            BASE, protocol=protocol, protocol_params={"bins": 16, "bits": 4}, events=(FAILURE,))
    return cells


def _push_sum_revert_cells():
    cells = {}
    for mode in ("push", "exchange"):
        for network, net_kwargs in NETWORKS.items():
            for environment, env_kwargs in GRAPHS.items():
                scenarios = {
                    "failure": {},
                    "graceful-departure": {"events": (GRACEFUL,)},
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


VALUE_CHANGE = {"event": "value-change", "round": 4, "values": {"3": 500.0, "150": -20.0}}


def _membership_cells():
    """Extrema through every membership kind, value changes, correlated sketch failures."""
    scenarios = {
        "grid/failure": dict(ENVIRONMENTS["grid"], events=(FAILURE,)),
        "uniform/join": JOIN,
        "uniform/graceful-departure": {"events": (GRACEFUL,)},
        "uniform/correlated-failure": {"events": (CORRELATED,)},
        "uniform/value-change": {"events": (FAILURE, VALUE_CHANGE)},
    }
    cells = {
        f"{protocol}/{scenario}": dict(BASE, protocol=protocol, mode="exchange", **kwargs)
        for protocol in ("extrema-gossip", "extrema-reset")
        for scenario, kwargs in scenarios.items()
    }
    for protocol in ("count-sketch-reset", "sketch-count"):
        cells[f"{protocol}/uniform/correlated-failure"] = dict(
            BASE, protocol=protocol, events=(CORRELATED,))
    cells["sketch-count/push/ring/failure"] = dict(
        BASE, protocol="sketch-count", mode="push", environment="ring", events=(FAILURE,))
    for mode in ("push", "exchange"):
        cells[f"push-sum-revert/{mode}/perfect/uniform/value-change/lambda=0.1"] = dict(
            PSR, mode=mode, protocol_params={"reversion": 0.1}, events=(FAILURE, VALUE_CHANGE))
    cells["events/push-sum-revert/exchange/latency-uniform/value-change"] = dict(
        PSR, engine="events", mode="exchange", protocol_params={"reversion": 0.1},
        events=(FAILURE, VALUE_CHANGE), **CALENDAR_NETWORKS["latency-uniform"])
    return cells


def _group_relative_cells():
    """Figure 11's two trace replays, and Push-Sum-Revert on the two spatial graphs."""
    trace = dict(BASE, environment="trace", environment_params={"dataset": 1},
                 workload_params={"seed": 1}, n_hosts=9, rounds=120, seed=0,
                 group_relative=True, mode="exchange")
    cells = {
        "trace/push-sum-revert/exchange/lambda=0.01": dict(
            trace, protocol="push-sum-revert", protocol_params={"reversion": 0.01}),
        "trace/count-sketch-reset/exchange/32x16/100-identifiers": dict(
            trace, protocol="count-sketch-reset",
            protocol_params={"bins": 32, "bits": 16, "identifiers_per_host": 100}),
    }
    for environment, n_hosts in (("random-geometric", 300), ("spatial-grid", 289)):
        name = f"push-sum-revert/exchange/perfect/{environment}/failure/lambda=0.1"
        cells[f"{name}/group-relative"] = dict(
            PSR, mode="exchange", protocol_params={"reversion": 0.1},
            environment=environment, n_hosts=n_hosts, group_relative=True)
    return cells


#: The calendar's factors: the first three run as a full product, the rest fill it in.
CALENDAR_PRODUCT = {
    "mode": ("push", "exchange"),
    "network": ("latency-fixed", "latency-uniform", "latency-lognormal", "bernoulli-loss"),
    "membership": ("failure", "join", "churn", "graceful-departure"),
}
CALENDAR_FILL = {
    "clocks": ("synchronized", "unsynchronized"),
    "rates": ("uniform", "heterogeneous", "lognormal"),
    "mass_check": ("sample", "event", "off"),
    "lambda": (0.1, 0.0),
    # None: just fine enough for the fastest clock; 1.0: a fast clock ticks twice a bucket.
    "quantum": (None, 1.0),
}
CALENDAR_NETWORKS = {
    "latency-fixed": {"network": "latency",
                      "network_params": {"distribution": "fixed", "delay": 1}},
    "latency-uniform": {"network": "latency",
                        "network_params": {"distribution": "uniform", "low": 0, "high": 2}},
    "latency-lognormal": {"network": "latency",
                          "network_params": {"distribution": "lognormal", "mean": 0.0,
                                             "sigma": 0.75}},
    "bernoulli-loss": NETWORKS["bernoulli-loss"],
    "perfect": {},
}
CALENDAR_MEMBERSHIP = {
    "failure": {"events": (FAILURE,)},
    "join": JOIN,
    "churn": {"events": (dict(CHURN, arrivals_per_round=4),)},
    "graceful-departure": {"events": (GRACEFUL,)},
}
RATES = {
    "uniform": {"distribution": "uniform", "rate": 1.0},
    "heterogeneous": {"distribution": "heterogeneous", "fast": 2.0, "slow": 0.25},
    "lognormal": {"distribution": "lognormal", "sigma": 0.5},
}
HETEROGENEOUS = {"rates": RATES["heterogeneous"], "synchronized": False}
#: The other calendar kernel, Sketch-Count: network by membership as a full product,
#: each row filled in with a mode and the same levels as Push-Sum-Revert's (massless:
#: no λ, no loss).  The fill order is the one whose greedy rows meet every pair.
KERNEL_CALENDAR_PRODUCT = {
    "network": ("perfect", "latency-fixed", "latency-uniform", "latency-lognormal"),
    "membership": CALENDAR_PRODUCT["membership"],
}
KERNEL_CALENDAR_FILL = {
    "rates": CALENDAR_FILL["rates"],
    "mass_check": CALENDAR_FILL["mass_check"],
    "kernel": ("sketch-count/push", "sketch-count/exchange"),
    "clocks": CALENDAR_FILL["clocks"],
    "quantum": CALENDAR_FILL["quantum"],
}


def pairwise_rows(full, fill):
    """The full product of ``full``'s levels, each row completed from ``fill`` greedily.

    Each fill factor takes the level meeting the most not-yet-covered levels of
    the row's other factors (on a tie the least used so far, then the first), so
    the rows cover every pair of levels of any two factors as long as the product
    is the larger side — :func:`test_the_calendar_cells_cover_every_pair` checks
    that it does.
    """
    uncovered = {
        frozenset({(f, a), (g, b)})
        for f, g in combinations([*full, *fill], 2)
        for a in {**full, **fill}[f] for b in {**full, **fill}[g]
    }
    used = Counter()
    rows = []
    for levels in product(*full.values()):
        row = dict(zip(full, levels))
        for factor, choices in fill.items():
            row[factor] = max(choices, key=lambda level: (
                sum(frozenset({(factor, level), (other, row[other])}) in uncovered
                    for other in row),
                -used[factor, level],
            ))
            used[factor, row[factor]] += 1
        uncovered -= {frozenset(pair) for pair in combinations(row.items(), 2)}
        rows.append(row)
    return rows


def _calendar_rows(full, fill):
    """Cell name → its levels, one per factor."""
    return {
        "events/" + "/".join(f"{factor}={level}" for factor, level in row.items()): row
        for row in pairwise_rows(full, fill)
    }


def _calendar_cell(row):
    engine_params = {"synchronized": row["clocks"] == "synchronized",
                     "rates": RATES[row["rates"]], "mass_check": row["mass_check"]}
    if row["quantum"] is not None:
        engine_params["batch_quantum"] = row["quantum"]
    if "kernel" in row:
        protocol, mode = row["kernel"].split("/")
        base = dict(BASE, protocol=protocol, mode=mode)
    else:
        base = dict(PSR, mode=row["mode"], protocol_params={"reversion": row["lambda"]})
    return dict(base, engine="events", engine_params=engine_params,
                **CALENDAR_NETWORKS[row["network"]], **CALENDAR_MEMBERSHIP[row["membership"]])


CALENDAR_ROWS = _calendar_rows(CALENDAR_PRODUCT, CALENDAR_FILL)
KERNEL_CALENDAR_ROWS = _calendar_rows(KERNEL_CALENDAR_PRODUCT, KERNEL_CALENDAR_FILL)


def _newly_runnable_cells():
    """Static Push-Sum in both modes on both engines, and Push-Sum-Revert and
    Sketch-Count on the calendar over a ring."""
    latency = CALENDAR_NETWORKS["latency-uniform"]
    static = dict(BASE, protocol="push-sum", events=(FAILURE,))
    cells = {}
    for mode in ("push", "exchange"):
        for network, net_kwargs in NETWORKS.items():
            cells[f"push-sum/{mode}/{network}"] = dict(static, mode=mode, **net_kwargs)
        cells[f"events/push-sum/{mode}/latency-uniform"] = dict(
            static, engine="events", mode=mode, engine_params=HETEROGENEOUS, **latency)
    ring = dict(engine="events", environment="ring", engine_params=HETEROGENEOUS, **latency)
    for protocol, base in (("push-sum-revert", dict(PSR, protocol_params={"reversion": 0.1})),
                           ("sketch-count", dict(BASE, protocol="sketch-count",
                                                 events=(FAILURE,)))):
        for mode in ("push", "exchange"):
            cells[f"events/ring/{protocol}/{mode}"] = dict(base, mode=mode, **ring)
    return cells


def _larger_calendar_cells():
    """Six 600-host calendar runs off the anchor, stored estimates included."""
    base = dict(PSR, engine="events", protocol_params={"reversion": 0.1},
                n_hosts=600, rounds=10, seed=11, events=(dict(FAILURE, round=5),))
    uniform = CALENDAR_NETWORKS["latency-uniform"]
    lognormal = CALENDAR_NETWORKS["latency-lognormal"]
    heterogeneous = {"rates": RATES["heterogeneous"], "synchronized": False}
    shapes = {
        "exchange-uniform-latency-failure": dict(mode="exchange", **uniform),
        "push-uniform-latency-failure": dict(mode="push", **uniform),
        "exchange-lognormal-latency-heterogeneous-clocks": dict(
            mode="exchange", **lognormal, events=(),
            engine_params=dict(heterogeneous, mass_check="event")),
        # The join grows the population: the live rank must die with the epoch.
        "push-lognormal-latency-lognormal-clocks-failure-join": dict(
            mode="push", **lognormal,
            engine_params={"rates": RATES["lognormal"], "synchronized": False},
            events=(dict(FAILURE, round=3, fraction=0.3),
                    {"event": "join", "round": 6, "count": 150})),
        # Four tick passes per bucket, each deferring into the same slots.
        "exchange-rate-4-clocks-unit-quantum": dict(
            mode="exchange", **uniform,
            engine_params={"rates": dict(RATES["uniform"], rate=4.0), "batch_quantum": 1.0}),
        # No delay sampler: every exchange of a partial tick merges at once.
        "exchange-bernoulli-loss-off-anchor": dict(
            mode="exchange", **NETWORKS["bernoulli-loss"], engine_params=heterogeneous),
    }
    return {f"events/600-hosts/{name}": dict(base, **shape) for name, shape in shapes.items()}


def _cells():
    """Name → ``ScenarioSpec`` keywords."""
    calendar = {name: _calendar_cell(row)
                for name, row in {**CALENDAR_ROWS, **KERNEL_CALENDAR_ROWS}.items()}
    return {**_sketch_cells(), **_push_sum_revert_cells(), **_other_value_kernel_cells(),
            **_membership_cells(), **_group_relative_cells(), **calendar,
            **_larger_calendar_cells(), **_newly_runnable_cells()}


CELLS = _cells()


def test_the_ledger_names_exactly_the_cells():
    assert sorted(committed(LEDGER)["digests"]) == sorted(CELLS)


@pytest.mark.parametrize("full, fill, rows, count", [
    (CALENDAR_PRODUCT, CALENDAR_FILL, CALENDAR_ROWS, 32),
    (KERNEL_CALENDAR_PRODUCT, KERNEL_CALENDAR_FILL, KERNEL_CALENDAR_ROWS, 16),
], ids=["push-sum-revert", "sketch-count"])
def test_the_calendar_cells_cover_every_pair(full, fill, rows, count):
    factors = {**full, **fill}
    met = {frozenset(pair) for row in rows.values() for pair in combinations(row.items(), 2)}
    missing = [
        ((f, a), (g, b))
        for f, g in combinations(factors, 2) for a in factors[f] for b in factors[g]
        if frozenset({(f, a), (g, b)}) not in met
    ]
    assert not missing
    assert len(rows) == count


@pytest.mark.parametrize("name", sorted(CELLS))
def test_kernel_payload_is_bit_identical(name):
    assert run_cell(CELLS[name]) == committed(LEDGER)["digests"][name]


if __name__ == "__main__":
    main("test_kernel_ledger.py", ledger=LEDGER, cells=CELLS)
