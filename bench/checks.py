"""Validate what one iteration produced.

:func:`validate` returns a list of problems (empty = the iteration is
correct).  A non-empty list makes the iteration a *failed operation*: it
counts into ``failed_frac`` and its time is not sampled, but the run goes on.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import List, Optional

from workloads import SWEEP_CELLS, Outcome

#: Push-Sum-Revert with λ=0.1 plateaus well inside this band of the truth
#: on every workload size used here (the uncorrelated failure barely moves
#: the true average).
MEAN_ESTIMATE_TOLERANCE = 0.02


def survivors(spec) -> int:
    """Live hosts left after the spec's scheduled uncorrelated failures."""
    alive = spec.n_hosts
    for entry in sorted(spec.events, key=lambda entry: entry["round"]):
        if entry["round"] < spec.rounds:
            alive -= int(round(entry["fraction"] * alive))
    return alive


def digest(outcome: Outcome) -> str:
    """sha256 over every run's per-round ``truth, n_alive, mean_estimate, stddev_error``."""
    sha = hashlib.sha256()
    for _spec, result in outcome.runs:
        for record in result.rounds:
            sha.update(
                struct.pack(
                    "<dqdd",
                    record.truth, record.n_alive, record.mean_estimate, record.stddev_error,
                )
            )
    return sha.hexdigest()


def counts(outcome: Outcome) -> dict:
    """The simulated statistics that must repeat exactly for a fixed seed."""
    records = [record for _spec, result in outcome.runs for record in result.rounds]
    return {
        "sim.host_rounds": sum(record.n_alive for record in records),
        "sim.messages_delivered": sum(record.messages_delivered for record in records),
        "sim.messages_lost": sum(record.messages_lost for record in records),
        # 48 bits survive a JSON float round-trip exactly.
        "sim.result_digest": int(digest(outcome)[:12], 16),
    }


def _validate_run(name: str, spec, result) -> List[str]:
    problems = []
    if len(result.rounds) != spec.rounds:
        return [f"{len(result.rounds)} rounds recorded, spec asked for {spec.rounds}"]
    final = result.rounds[-1]
    if final.n_alive != survivors(spec):
        problems.append(f"final n_alive {final.n_alive}, scheduled survivors {survivors(spec)}")
    if not all(math.isfinite(record.truth) for record in result.rounds):
        problems.append("non-finite truth")
    delivered = sum(record.messages_delivered for record in result.rounds)
    lost = sum(record.messages_lost for record in result.rounds)
    if spec.protocol == "push-sum-revert":
        if not abs(final.mean_estimate - final.truth) <= MEAN_ESTIMATE_TOLERANCE * abs(final.truth):
            problems.append(
                f"mean_estimate {final.mean_estimate!r} not within "
                f"{MEAN_ESTIMATE_TOLERANCE:.0%} of truth {final.truth!r}"
            )
        if delivered <= 0:
            problems.append("no message delivered")
    if name in ("agent_lossy", "events_latency") and lost <= 0:
        problems.append("no message lost on a lossy/latent network")
    if name == "sketch_reset" and any(r.truth != r.n_alive for r in result.rounds):
        problems.append("count truth differs from n_alive")
    return problems


def validate(name: str, outcome: Outcome, reference_digest: Optional[str] = None) -> List[str]:
    """Every problem with one iteration of workload ``name``."""
    problems = []
    for spec, result in outcome.runs:
        problems.extend(f"{spec.label()}: {p}" for p in _validate_run(name, spec, result))
    if name == "small_sweep_store":
        cold, warm = outcome.cold, outcome.warm
        if cold.executed() != SWEEP_CELLS or cold.cache_hits() != 0:
            problems.append(f"cold pass executed {cold.executed()}, cached {cold.cache_hits()}")
        if warm.cache_hits() != SWEEP_CELLS or warm.executed() != 0:
            problems.append(f"warm pass cached {warm.cache_hits()}, executed {warm.executed()}")
        if warm.rows != cold.rows:
            problems.append("warm rows differ from cold rows")
    if reference_digest is not None and digest(outcome) != reference_digest:
        problems.append("result digest differs from the warm-up's (same spec, same seed)")
    return problems
