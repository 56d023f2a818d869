"""The per-layer ledger, timed from outside the program.

Two sources, both owned by the benchmark:

* :class:`SpanLedger` — an in-memory :class:`repro.obs.Probe` passed
  through the public ``probe=`` argument.  It keeps a parent stack so a
  span's *self time* is its duration minus the part its child spans cover.
* :func:`hand_driven_scenario` / :func:`hand_driven_sweep` —
  ``perf_counter`` brackets around public calls, in a hand-driven
  build → step → record loop.  These run unprobed.

Both report seconds per iteration under the names in ``metrics.PER_LAYER``.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import tempfile
import time
from collections import defaultdict
from typing import Dict, List

import numpy as np

from repro.api import ScenarioSpec, VectorizedBackend, resolve_plan, run_scenario
from repro.obs import Probe
from repro.simulator.result import SimulationResult
from repro.store import ResultStore, clear_fingerprint_cache, code_fingerprint

#: Cold builds sampled per traced child (each a distinct memo key).
COLD_SAMPLES = 5

KERNEL_SPANS = ("sampling", "matching", "scatter", "ageing")
_SPAN_LAYER = {
    **{name: "simulator.vectorized" for name in KERNEL_SPANS},
    "csr_rebuild": "simulator.sparse",
    "component_labelling": "simulator.sparse",
    "ticks": "events.vectorized",
    "drain": "events.vectorized",
    "push": "simulator.engine",
    "record": "simulator.engine",
    "finalize": "simulator.engine",
    "begin_round": "simulator.engine",
    "build": "run",
    "round": "run",
    "execute": "run",
}


def span_metric(name: str, attrs: tuple):
    """The ledger metric a span's self time is booked under (``None`` = unbooked).

    ``attrs`` is the span's sorted ``(key, value)`` tuple.
    """
    if name == "execute" and ("engine", "events") in attrs and ("backend", "vectorized") in attrs:
        return "events.vectorized.execute_self_s"
    layer = _SPAN_LAYER.get(name)
    return f"{layer}.{name}_self_s" if layer else None


class SpanLedger(Probe):
    """Record every span with its parent and self time; nothing is written until asked."""

    #: Field order of the per-span tuples in :attr:`spans`.
    FIELDS = ("id", "parent", "name", "start_s", "seconds", "self_s", "attrs")

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._stack: List[list] = []  # [span id, seconds covered by finished children]
        self._started = 0
        self._epoch = time.perf_counter()

    def _span_started(self, span) -> None:
        self._stack.append([self._started, 0.0])
        self._started += 1

    def _span_finished(self, span, seconds: float) -> None:
        stack = self._stack
        span_id, child_seconds = stack.pop()
        parent = None
        if stack:
            stack[-1][1] += seconds
            parent = stack[-1][0]
        self.spans.append(
            (span_id, parent, span.name, span.started - self._epoch, seconds,
             seconds - child_seconds, span.attrs)
        )

    def self_times(self) -> Dict[str, float]:
        """Self seconds per ledger metric, plus the span and bucket counts."""
        totals: Dict[str, float] = defaultdict(float)
        buckets = 0
        for _id, _parent, name, _start, _seconds, self_seconds, attrs in self.spans:
            metric = span_metric(name, attrs)
            if metric is not None:
                totals[metric] += self_seconds
            buckets += name == "ticks"
        totals["obs.spans_per_run"] = len(self.spans)
        totals["events.vectorized.buckets"] = buckets
        return dict(totals)

    def write(self, handle, iteration: int) -> None:
        """Append the spans as JSON lines (``start_s`` is relative to the probe's creation)."""
        for span in self.spans:
            record = dict(zip(self.FIELDS, span), iteration=iteration)
            record["attrs"] = dict(record["attrs"])
            handle.write(json.dumps(record) + "\n")


class Brackets(defaultdict):
    """``with brackets("name"): call()`` accumulates host seconds under ``name``."""

    def __init__(self) -> None:
        super().__init__(float)

    @contextlib.contextmanager
    def __call__(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self[name] += time.perf_counter() - started


def cold_topology_seconds(spec: ScenarioSpec) -> List[float]:
    """Cold ``build_topology`` samples: ``n_hosts + i`` never hits the memo."""
    samples = []
    for _ in range(COLD_SAMPLES):
        spec = spec.replace(n_hosts=spec.n_hosts + 1)
        started = time.perf_counter()
        VectorizedBackend.build_topology(spec)
        samples.append(time.perf_counter() - started)
    return samples


def cold_fingerprint_seconds(protocol: str) -> List[float]:
    samples = []
    for _ in range(COLD_SAMPLES):
        clear_fingerprint_cache()
        started = time.perf_counter()
        code_fingerprint(protocol)
        samples.append(time.perf_counter() - started)
    return samples


def hand_driven_scenario(kwargs: dict) -> Dict[str, float]:
    """Bracket the public calls ``run_scenario`` makes for one scenario.

    On a vectorised plan this builds the topology (a memo hit: the warm-up
    built it) and the kernel; on the round engine it then drives the
    kernel round by round the way the backend does — the scheduled failure,
    ``step()``, then ``estimates()`` + ``truth()`` for the record — and, on
    a topology, samples the matcher directly at the full and the
    half-alive mask.
    """
    b = Brackets()
    with b("api.spec.build_s"):
        spec = ScenarioSpec(**kwargs)
    with b("api.plan.resolve_s"):
        plan = resolve_plan(spec)
    if plan.backend != "vectorized":
        return dict(b)
    backend = VectorizedBackend()
    with b("api.backends.build_topology_warm_s"):
        topology, _environment = backend.build_topology(spec)
    with b("api.backends.build_kernel_s"):
        kernel = backend.build_kernel(spec, topology=topology)
    if plan.engine != "rounds":
        return dict(b)
    failures = {entry["round"]: entry["fraction"] for entry in spec.events}
    rounds_at = {}  # alive-mask bytes -> [mask, rounds stepped under it]
    for t in range(spec.rounds):
        if t in failures:
            kernel.fail_random_fraction(failures[t])
        rounds_at.setdefault(kernel.alive.tobytes(), [kernel.alive.copy(), 0])[1] += 1
        with b("simulator.vectorized.step_s"):
            kernel.step()
        with b("simulator.vectorized.estimates_s"):
            estimates = kernel.estimates()
            truth = kernel.truth()
        if estimates.size != int(kernel.alive.sum()) or not np.isfinite(truth):
            raise RuntimeError(f"hand-driven round {t}: bad estimates/truth")
    if topology is not None:
        rng = np.random.default_rng(spec.seed)
        matched = []
        for alive, rounds in rounds_at.values():
            alive_idx = np.nonzero(alive)[0]
            topology.sample_peers(alive_idx, alive, rng)  # untimed: rebuilds the live CSR
            started = time.perf_counter()
            topology.sample_peers(alive_idx, alive, rng)
            b["simulator.sparse.sample_peers_s"] += rounds * (time.perf_counter() - started)
            started = time.perf_counter()
            left, _right = topology.sample_matching(alive_idx, alive, rng)
            b["simulator.sparse.sample_matching_s"] += rounds * (time.perf_counter() - started)
            matched.append(2 * left.size / alive_idx.size)
        b["simulator.sparse.matched_frac"] = sum(matched) / len(matched)
    return dict(b)


def hand_driven_sweep(sweep, scratch: str) -> Dict[str, float]:
    """Bracket, cell by cell, what the sweep's cold and warm passes do."""
    b = Brackets()
    with b("api.spec.build_s"):
        specs = sweep.specs()
    backend = VectorizedBackend()
    root = tempfile.mkdtemp(prefix="ledger-", dir=scratch)
    try:
        store = ResultStore(root)
        for spec in specs:
            with b("api.plan.resolve_s"):
                resolve_plan(spec)
            with b("api.backends.build_topology_warm_s"):
                topology, _environment = backend.build_topology(spec)
            with b("api.backends.build_kernel_s"):
                backend.build_kernel(spec, topology=topology)
            with b("store.get_miss_s"):
                missed = store.get(spec)
            with b("run_scenario_s"):
                result = run_scenario(spec)
            with b("store.put_s"):
                store.put(spec, result)
            with b("simulator.result.to_payload_s"):
                payload = result.to_payload()
            with b("simulator.result.from_payload_s"):
                restored = SimulationResult.from_payload(payload)
            if missed is not None or restored.rounds != result.rounds:
                raise RuntimeError(f"hand-driven cell {spec.label()}: store/payload mismatch")
        for spec in specs:
            with b("store.get_hit_s"):
                hit = store.get(spec)
            if hit is None:
                raise RuntimeError(f"hand-driven cell {spec.label()}: expected a store hit")
        b["store.bytes_per_cell"] = store.stats()["total_bytes"] / len(specs)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return dict(b)
