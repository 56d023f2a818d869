"""Tests for the observability layer (repro.obs, DESIGN.md §11).

The two load-bearing guarantees:

* **bit-identity** — probes only observe; a run with a TraceRecorder (or
  any probe) attached produces a payload identical to the bare run, on
  every engine and backend;
* **bounded overhead** — the null probe costs ~nothing, and an enabled
  TraceRecorder keeps a smoke-bench-sized run within 10% of its
  unprobed wall time.

Plus the mechanics: span nesting depth/parent bookkeeping, JSONL
round-trips, the obs report (the one view of a trace), store
instrumentation, sweep progress heartbeats, and the vectorised
delivery-counter parity satellite.
"""

import time

import pytest

from repro.api.spec import ScenarioSpec, run_scenario
from repro.api.sweep import Sweep, SweepRunner
from repro.obs import (
    NULL_PROBE,
    NullProbe,
    Probe,
    TraceRecorder,
    read_trace,
    render_report,
    summarize_trace,
)
from repro.store import ResultStore


class TestProbeProtocol:
    def test_null_probe_is_disabled_and_allocation_free(self):
        probe = NullProbe()
        assert probe.enabled is False
        # The span context manager is a shared singleton — hot loops pay
        # no per-call allocation under the default probe.
        assert probe.span("a") is probe.span("b", x=1)
        with probe.span("anything"):
            pass
        probe.event("e", field=1)
        probe.count("c")
        probe.gauge("g", 2.0)

    def test_base_probe_is_enabled(self):
        assert Probe().enabled is True
        assert NULL_PROBE.enabled is False

    def test_span_nesting_depth_and_parent(self):
        recorder = TraceRecorder()
        with recorder.span("outer"):
            with recorder.span("middle", round=3):
                with recorder.span("inner"):
                    pass
            with recorder.span("sibling"):
                pass
        spans = {r["name"]: r for r in recorder.records if r["kind"] == "span"}
        assert spans["outer"]["depth"] == 0 and spans["outer"]["parent"] is None
        assert spans["middle"]["depth"] == 1 and spans["middle"]["parent"] == "outer"
        assert spans["middle"]["round"] == 3
        assert spans["inner"]["depth"] == 2 and spans["inner"]["parent"] == "middle"
        assert spans["sibling"]["depth"] == 1 and spans["sibling"]["parent"] == "outer"
        # Inner spans finish first, so they are recorded first.
        order = [r["name"] for r in recorder.records]
        assert order == ["inner", "middle", "sibling", "outer"]

    def test_span_measures_wall_time(self):
        recorder = TraceRecorder()
        with recorder.span("sleep"):
            time.sleep(0.01)
        (span,) = recorder.records
        assert span["seconds"] >= 0.009


class TestTraceRecorder:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = TraceRecorder(str(path))
        with recorder.span("phase", round=0):
            pass
        recorder.event("round_end", round=0, n_alive=10)
        recorder.count("delivered", 20)
        recorder.gauge("depth", 3)
        recorder.close()
        loaded = read_trace(str(path))
        assert loaded == recorder.records
        kinds = [r["kind"] for r in loaded]
        assert kinds == ["span", "event", "count", "gauge"]
        # Every record is a flat JSON object with kind/t/name.
        for record in loaded:
            assert {"kind", "t", "name"} <= set(record)

    def test_flush_appends_incrementally(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = TraceRecorder(str(path))
        recorder.event("one")
        recorder.flush()
        recorder.event("two")
        recorder.flush()
        recorder.flush()  # idempotent: nothing new to write
        names = [r["name"] for r in read_trace(str(path))]
        assert names == ["one", "two"]

    def test_a_new_recorder_replaces_the_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for name in ("first", "second"):
            recorder = TraceRecorder(str(path))
            recorder.event(name)
            recorder.close()
        assert [r["name"] for r in read_trace(str(path))] == ["second"]

    def test_in_memory_recorder_needs_no_path(self):
        recorder = TraceRecorder()
        recorder.event("x")
        recorder.close()  # no-op without a path
        assert len(recorder) == 1


#: One spec per engine/backend/feature corner the probe threads through.
BIT_IDENTITY_SPECS = {
    "vectorized-uniform": ScenarioSpec(
        protocol="push-sum-revert", n_hosts=150, rounds=12, seed=3, mode="exchange"
    ),
    "vectorized-lossy-push": ScenarioSpec(
        protocol="push-sum-revert", n_hosts=150, rounds=12, seed=3, mode="push",
        network="bernoulli-loss", network_params={"p": 0.2},
    ),
    "vectorized-topology-churn": ScenarioSpec(
        protocol="push-sum-revert", n_hosts=150, rounds=15, seed=5,
        environment="ring", environment_params={"k": 4},
        events=(
            {"event": "failure", "round": 6, "model": "uncorrelated", "fraction": 0.1},
        ),
    ),
    "vectorized-sketch": ScenarioSpec(
        protocol="count-sketch-reset", n_hosts=120, rounds=10, seed=2,
        protocol_params={"bins": 16, "bits": 16},
    ),
    "agent-lossy-churn": ScenarioSpec(
        protocol="push-sum-revert", n_hosts=80, rounds=12, seed=7, backend="agent",
        network="bernoulli-loss", network_params={"p": 0.1},
        events=(
            {"event": "churn", "start": 3, "stop": 8, "model": "uncorrelated",
             "fraction": 0.05, "arrivals_per_round": 2},
        ),
    ),
    "event-engine": ScenarioSpec(
        protocol="push-sum", n_hosts=60, rounds=10, seed=4, mode="push",
        engine="events", backend="agent",
    ),
}


class TestBitIdentity:
    """Probes observe; they must never change a single bit of the result."""

    @pytest.mark.parametrize("name", sorted(BIT_IDENTITY_SPECS))
    def test_traced_run_is_bit_identical(self, name):
        spec = BIT_IDENTITY_SPECS[name]
        bare = run_scenario(spec)
        trace = TraceRecorder()
        probed = run_scenario(spec, probe=trace)
        assert probed.to_payload() == bare.to_payload()
        assert len(trace.records) > 0

    def test_store_round_trip_is_bit_identical_with_probe(self, tmp_path):
        spec = BIT_IDENTITY_SPECS["vectorized-uniform"]
        store = ResultStore(str(tmp_path / "cache"), probe=TraceRecorder())
        cold = run_scenario(spec, store=store, probe=TraceRecorder())
        warm = run_scenario(spec, store=store, probe=TraceRecorder())
        assert warm.to_payload() == cold.to_payload()


class TestEngineInstrumentation:
    def test_agent_round_phases_and_events(self):
        spec = BIT_IDENTITY_SPECS["agent-lossy-churn"]
        trace = TraceRecorder()
        run_scenario(spec, probe=trace)
        spans = [r for r in trace.records if r["kind"] == "span"]
        names = {r["name"] for r in spans}
        assert {"round", "begin_round", "exchange", "finalize", "record"} <= names
        rounds = [r for r in spans if r["name"] == "round"]
        assert len(rounds) == spec.rounds
        assert all(r["parent"] == "execute" for r in rounds)
        events = [r for r in trace.records if r["kind"] == "event"]
        by_name = {}
        for record in events:
            by_name.setdefault(record["name"], []).append(record)
        assert len(by_name["round_end"]) == spec.rounds
        # Churn rounds 3..7 emit a fail (and two joins) each.
        actions = {r["action"] for r in by_name["membership"]}
        assert actions == {"fail", "join"}
        assert "mass_check" not in by_name
        # round_end carries the per-round counter schema the report renders,
        # and the mass books of a run that keeps a ledger.
        assert {"round", "n_alive", "max_abs_error", "messages_delivered",
                "messages_lost", "bytes_sent", "mass_at_hosts", "mass_in_flight",
                "mass_injected", "mass_lost"} <= set(by_name["round_end"][0])

    def test_vectorized_kernel_phase_spans(self):
        trace = TraceRecorder()
        run_scenario(BIT_IDENTITY_SPECS["vectorized-topology-churn"], probe=trace)
        names = {r["name"] for r in trace.records if r["kind"] == "span"}
        # Exchange gossip on a ring with a mid-run failure: pair matching,
        # mass scatter, and a CSR rebuild when the alive mask changes.
        assert {"build", "execute", "round", "matching", "scatter", "csr_rebuild"} <= names
        # The cached topology never held the probe, so it cannot keep
        # reporting into this recorder.
        before = len(trace.records)
        run_scenario(BIT_IDENTITY_SPECS["vectorized-topology-churn"])
        assert len(trace.records) == before

    @pytest.mark.parametrize("environment", ["ring", "trace"])
    def test_crashed_traced_run_leaves_no_probe_behind(self, environment, monkeypatch):
        # The probe belongs to the run (its kernel), never to the memoised
        # topology: a traced run that dies mid-loop has nothing to restore,
        # and the topology it shared stays silent for the next run.
        from repro.api.backends import VectorizedBackend
        from repro.simulator.push_sum_kernel import VectorizedPushSumRevert

        if environment == "ring":
            spec = BIT_IDENTITY_SPECS["vectorized-topology-churn"]
        else:
            spec = ScenarioSpec(
                protocol="push-sum-revert", environment="trace",
                environment_params={"dataset": 1}, n_hosts=9, rounds=12, seed=1,
                group_relative=True,
            )
        trace = TraceRecorder()
        seen = []
        real_step = VectorizedPushSumRevert.step

        def failing_step(kernel):
            seen.append(kernel)
            if kernel.probe is trace and len(seen) == 3:
                raise RuntimeError("boom")
            real_step(kernel)

        monkeypatch.setattr(VectorizedPushSumRevert, "step", failing_step)
        with pytest.raises(RuntimeError, match="boom"):
            run_scenario(spec, probe=trace)
        assert any(r["name"] == "csr_rebuild" for r in trace.records)
        topology, _name = VectorizedBackend.build_topology(spec)
        assert seen[-1].topology is topology  # the memoised, shared object
        before = len(trace.records)
        run_scenario(spec)
        assert len(trace.records) == before
        per_round_csrs = list(getattr(topology, "_csr_cache", {}).values())
        assert bool(per_round_csrs) == (environment == "trace")
        for holder in [topology, *per_round_csrs]:
            assert not hasattr(holder, "probe")
            assert all(value is not trace for value in vars(holder).values())

    def test_threads_sharing_a_topology_keep_their_own_spans(self):
        # Two traced runs over one memoised ring, in two threads.  The first
        # parks when its round 0 opens, the second runs start to finish,
        # then the first resumes: each recorder must hold exactly the spans
        # of its own run — the count a solo run records.
        import threading
        from collections import Counter
        from concurrent.futures import ThreadPoolExecutor

        from repro.api.backends import VectorizedBackend

        class ParkedRecorder(TraceRecorder):
            def __init__(self):
                super().__init__()
                self.parked, self.resume = threading.Event(), threading.Event()

            def _span_started(self, span):
                super()._span_started(span)
                if span.name == "round" and not self.parked.is_set():
                    self.parked.set()
                    assert self.resume.wait(timeout=30)

        def phase_spans(recorder):
            return Counter(
                (r["name"], r["parent"]) for r in recorder.records
                if r["kind"] == "span" and r["name"] in ("csr_rebuild", "matching", "scatter")
            )

        first = BIT_IDENTITY_SPECS["vectorized-topology-churn"]
        second = first.replace(seed=first.seed + 1)
        assert VectorizedBackend.build_topology(first) is VectorizedBackend.build_topology(second)
        solo = TraceRecorder()
        run_scenario(first, probe=solo)
        expected = phase_spans(solo)
        # All-alive, then the post-failure mask; every round matches and scatters.
        assert expected[("csr_rebuild", "matching")] == 2
        assert expected[("matching", "round")] == expected[("scatter", "round")] == first.rounds

        parked, free = ParkedRecorder(), TraceRecorder()
        with ThreadPoolExecutor(max_workers=2) as pool:
            held = pool.submit(run_scenario, first, probe=parked)
            try:
                assert parked.parked.wait(timeout=30)
                pool.submit(run_scenario, second, probe=free).result(timeout=30)
            finally:
                parked.resume.set()
            held.result(timeout=30)
        assert phase_spans(parked) == expected
        assert phase_spans(free) == expected

    RING = ScenarioSpec(
        protocol="push-sum-revert", protocol_params={"reversion": 0.1}, n_hosts=300, rounds=12,
        seed=3, environment="ring", environment_params={"k": 2}, backend="vectorized",
    )
    HALVED_AT_4 = ({"event": "failure", "round": 4, "model": "uncorrelated", "fraction": 0.5},)
    TRACE = ScenarioSpec(
        protocol="push-sum-revert", protocol_params={"reversion": 0.01}, n_hosts=9,
        rounds=160, seed=2, environment="trace", environment_params={"dataset": 1},
        group_relative=True, backend="vectorized",
    )

    @pytest.mark.parametrize("first, second, parked_round", [
        # The round a call samples travels with the call — a "current round"
        # kept on the shared topology would make the run parked in round 125
        # finish it on round 159's contact graph (a different edge).
        pytest.param(TRACE, TRACE.replace(seed=3), 125, id="trace"),
        # Liveness belongs to the run (its kernel's LiveView): one run parked
        # with half its hosts failed, the other all-alive over the same ring.
        pytest.param(
            RING.replace(events=HALVED_AT_4, group_relative=True), RING.replace(seed=4), 8,
            id="ring-half-failed",
        ),
    ])
    def test_threads_sharing_a_topology_each_equal_their_solo_run(
        self, first, second, parked_round
    ):
        # Two runs over one memoised topology, in two threads.  The first
        # parks inside ``parked_round`` (its matching span has just opened),
        # the second runs start to finish, then the first resumes: each
        # payload must equal its solo run's.
        import threading
        from concurrent.futures import ThreadPoolExecutor

        from repro.api.backends import VectorizedBackend

        class ParkedInRound(TraceRecorder):
            def __init__(self, round_index):
                super().__init__()
                self.countdown = round_index + 1  # one matching span per round
                self.parked, self.resume = threading.Event(), threading.Event()

            def _span_started(self, span):
                super()._span_started(span)
                if span.name == "matching":
                    self.countdown -= 1
                    if self.countdown == 0:
                        self.parked.set()
                        assert self.resume.wait(timeout=30)

        assert VectorizedBackend.build_topology(first) is VectorizedBackend.build_topology(second)
        solo_first = run_scenario(first).to_payload()
        solo_second = run_scenario(second).to_payload()

        parked = ParkedInRound(parked_round)
        with ThreadPoolExecutor(max_workers=2) as pool:
            held = pool.submit(run_scenario, first, probe=parked)
            try:
                assert parked.parked.wait(timeout=30)
                free = pool.submit(run_scenario, second).result(timeout=30)
            finally:
                parked.resume.set()
            interleaved = held.result(timeout=30)
        assert free.to_payload() == solo_second
        assert interleaved.to_payload() == solo_first

    @pytest.mark.parametrize("group_relative", [False, True], ids=["global", "groups"])
    @pytest.mark.parametrize("events", [(), HALVED_AT_4], ids=["steady", "failure"])
    def test_consecutive_runs_record_the_same_span_sequence(self, events, group_relative):
        # csr_rebuild / component_labelling fire once per membership epoch
        # that samples, in every run: the live CSR and the labels belong to
        # the run's view, so a warm shared topology cannot swallow them.
        spec = self.RING.replace(events=events, group_relative=group_relative)

        def span_names():
            trace = TraceRecorder()
            run_scenario(spec, probe=trace)
            return [r["name"] for r in trace.records if r["kind"] == "span"]

        first = span_names()
        assert first == span_names()
        epochs = 1 + len(events)
        assert first.count("csr_rebuild") == epochs
        assert first.count("component_labelling") == (epochs if group_relative else 0)

    @pytest.mark.parametrize("environment, params", [
        ("ring", {"k": 2}), ("grid", {}), ("spatial-grid", {}), ("trace", {"dataset": 1}),
    ], ids=["ring", "grid", "spatial-grid", "trace"])
    def test_a_run_only_reads_its_topology(self, environment, params):
        # Topologies are values.  Only a trace topology's LRUs of per-round
        # graphs and union labels (functions of trace and round, not of any
        # run's liveness) may fill; the per-round graphs are values too.
        import numpy as np

        from repro.api.backends import VectorizedBackend

        def frozen(holder, skip=()):
            return {
                name: value.tobytes() if isinstance(value, np.ndarray) else value
                for name, value in vars(holder).items() if name not in skip
            }

        n_hosts = 9 if environment == "trace" else 144
        spec = self.RING.replace(
            environment=environment, environment_params=params, n_hosts=n_hosts,
            events=self.HALVED_AT_4, group_relative=True,
        )
        topology, _name = VectorizedBackend.build_topology(spec)
        lrus = ("_csr_cache", "_labels_by_round") if environment == "trace" else ()
        before = frozen(topology, skip=lrus)
        run_scenario(spec)
        assert frozen(topology, skip=lrus) == before
        for graph in getattr(topology, "_csr_cache", {}).values():
            assert set(vars(graph)) == {"indptr", "indices", "n"}

    def test_vectorized_sketch_phases(self):
        trace = TraceRecorder()
        run_scenario(BIT_IDENTITY_SPECS["vectorized-sketch"], probe=trace)
        names = {r["name"] for r in trace.records if r["kind"] == "span"}
        assert {"ageing", "sampling", "scatter"} <= names

    def test_event_engine_counters_and_calendar_gauge(self):
        trace = TraceRecorder()
        run_scenario(BIT_IDENTITY_SPECS["event-engine"], probe=trace)
        counts = {}
        for record in trace.records:
            if record["kind"] == "count":
                counts[record["name"]] = counts.get(record["name"], 0) + record["value"]
        assert counts["events.tick"] > 0
        assert counts["events.sample"] == 10
        gauges = {r["name"] for r in trace.records if r["kind"] == "gauge"}
        assert gauges == {"calendar_depth"}
        round_ends = [r for r in trace.records if r["kind"] == "event" and r["name"] == "round_end"]
        assert [r["n_alive"] for r in round_ends] == [60] * 10
        assert any(r["kind"] == "span" and r["name"] == "calendar" for r in trace.records)


class TestDeliveryParity:
    """Satellite: the vectorised path exposes the agent's delivery series."""

    def test_perfect_network_run_populates_delivery_fields(self):
        spec = BIT_IDENTITY_SPECS["vectorized-uniform"]
        result = run_scenario(spec)
        assert result.metadata["backend"] == "vectorized"
        # Exchange gossip over 150 hosts: 75 pairs, two messages each.
        assert all(r.messages_delivered == 150 for r in result.rounds)
        assert all(r.messages_lost == 0 for r in result.rounds)
        # Push-sum parity: 16 bytes per message, both halves of the exchange.
        assert all(r.bytes_sent == 150 * 16 for r in result.rounds)

    def test_lossy_bytes_metered_before_loss(self):
        # Agent parity: bandwidth is recorded when the message is sent, so
        # bytes_sent counts lost messages too (16 B each) — but never
        # self-messages, which the push kernel does count as deliveries.
        result = run_scenario(BIT_IDENTITY_SPECS["vectorized-lossy-push"])
        for record in result.rounds:
            sent = record.messages_delivered + record.messages_lost
            assert 16 * record.messages_lost <= record.bytes_sent <= 16 * sent
            assert record.bytes_sent % 16 == 0

    def test_sketch_exchange_bytes_match_payload_size(self):
        spec = BIT_IDENTITY_SPECS["vectorized-sketch"]
        result = run_scenario(spec)
        payload = 2 * 16 * 16  # reset protocol ships current+previous matrices
        for record in result.rounds:
            # Pull gossip: every delivered leg carries one full payload.
            assert record.bytes_sent == payload * record.messages_delivered


class TestObsReport:
    def _trace(self):
        trace = TraceRecorder()
        run_scenario(BIT_IDENTITY_SPECS["vectorized-lossy-push"], probe=trace)
        return trace

    def test_summarize_trace(self):
        summary = summarize_trace(self._trace().records)
        assert summary["phases"]["round"]["count"] == 12
        assert len(summary["rounds"]) == 12
        assert summary["events"]["round_end"] == 12

    def test_render_report_has_phase_and_round_tables(self):
        text = render_report(self._trace().records, every=4)
        assert "Phase-time breakdown" in text
        assert "Per-round counters" in text
        assert "messages_lost" in text
        # every=4 keeps rows 0,4,8 plus the last round (11).
        lines = text[text.index("Per-round counters"):].splitlines()
        round_cells = [line.split("|")[0].strip() for line in lines[3:] if "|" in line]
        assert round_cells == ["0", "4", "8", "11"]

    def test_gauges_fold_to_last_min_max(self):
        records = [{"kind": "gauge", "name": "depth", "value": v} for v in (3, 7, 1, 4)]
        assert summarize_trace(records)["gauges"] == {
            "depth": {"last": 4.0, "min": 1.0, "max": 7.0},
        }
        lines = render_report(records).splitlines()
        assert lines[0] == "Gauges"
        assert [cell.strip() for cell in lines[3].split("|")] == ["depth", "4", "1", "7"]

    def test_counters_sum_and_events_count(self):
        records = [{"kind": "count", "name": "sent", "value": v} for v in (2, 3)]
        records += [{"kind": "event", "name": "tick"}] * 3
        summary = summarize_trace(records)
        assert summary["counters"] == {"sent": 5.0} and summary["events"] == {"tick": 3}
        text = render_report(records)
        assert text.startswith("Counters\n") and "\n\nEvents\n" in text

    def test_empty_trace(self):
        assert render_report([]) == "(empty trace)"

    def test_report_prints_the_plan_and_the_mass_drift(self):
        records = self._trace().records
        (plan,) = [r for r in records if r["kind"] == "event" and r["name"] == "plan"]
        assert {key: plan[key] for key in ("engine", "backend", "on_calendar", "rejections")} == {
            "engine": "rounds", "backend": "vectorized", "on_calendar": False, "rejections": [],
        }
        text = render_report(records)
        assert text.splitlines()[0] == (
            "plan: engine=rounds backend=vectorized on_calendar=False rejections=none "
            f"code={plan['code'][:12]}"
        )
        lines = text[text.index("Per-round counters"):].splitlines()
        header = [cell.strip() for cell in lines[1].split("|")]
        assert header[-1] == "mass_drift" and "mass_lost" in header
        drift = [float(line.split("|")[-1]) for line in lines[3:]]
        assert len(drift) == 12 and drift[0] == 0.0
        assert max(map(abs, drift)) < 1e-9

    def test_mass_drift_is_per_run_and_plans_are_counted(self):
        def round_end(t, at_hosts, lost):
            return {"kind": "event", "name": "round_end", "round": t, "mass_at_hosts": at_hosts,
                    "mass_in_flight": 1.0, "mass_injected": 0.0, "mass_lost": lost}

        plan = {"kind": "event", "name": "plan", "engine": "events", "backend": "agent",
                "on_calendar": True, "rejections": ["latency", "ring"]}
        records = [plan, round_end(0, 9.0, 0.0), round_end(1, 7.5, 1.0),
                   plan, round_end(0, 19.0, 0.0), round_end(1, 18.0, 1.0)]
        text = render_report(records)
        assert text.splitlines()[0] == (
            "plan: engine=events backend=agent on_calendar=True rejections=latency,ring code=- "
            "(2 runs)"
        )
        lines = text[text.index("Per-round counters"):].splitlines()
        assert [line.split("|")[-1].strip() for line in lines[3:]] == ["0", "-0.500", "0", "0"]

    def test_the_plan_names_its_run(self):
        from repro.store import code_fingerprint

        def name(spec):
            trace = TraceRecorder()
            run_scenario(spec, probe=trace)
            (plan,) = [r for r in trace.records if r["kind"] == "event" and r["name"] == "plan"]
            return plan["spec_key"], plan["code"]

        spec = BIT_IDENTITY_SPECS["vectorized-uniform"]
        key, code = name(spec)
        assert (key, code) == (spec.key(), code_fingerprint(spec.protocol))
        assert name(spec) == (key, code)
        reseeded_key, reseeded_code = name(spec.replace(seed=spec.seed + 1))
        assert reseeded_key != key and reseeded_code == code


class TestStoreInstrumentation:
    def test_hit_miss_counts_and_blob_spans(self, tmp_path):
        trace = TraceRecorder()
        store = ResultStore(str(tmp_path / "cache"), probe=trace)
        spec = BIT_IDENTITY_SPECS["vectorized-uniform"]
        assert store.get(spec) is None  # miss
        result = run_scenario(spec)
        store.put(spec, result)
        assert store.get(spec) is not None  # hit
        counts = {}
        for record in trace.records:
            if record["kind"] == "count":
                counts[record["name"]] = counts.get(record["name"], 0) + record["value"]
        assert counts == {"store.misses": 1, "store.puts": 1, "store.hits": 1}
        spans = {r["name"] for r in trace.records if r["kind"] == "span"}
        assert {"blob_read", "blob_write"} <= spans

    def test_run_with_store_emits_outcome_events_once(self, tmp_path):
        spec = BIT_IDENTITY_SPECS["vectorized-uniform"]
        trace = TraceRecorder()
        store = ResultStore(str(tmp_path / "cache"), probe=trace)
        run_scenario(spec, store=store, probe=trace)
        run_scenario(spec, store=store, probe=trace)
        outcomes = [r["outcome"] for r in trace.records
                    if r["kind"] == "event" and r["name"] == "store"]
        assert outcomes == ["miss", "hit"]
        # Only the miss resolves a plan and runs it.
        plans = [r for r in trace.records if r["kind"] == "event" and r["name"] == "plan"]
        assert len(plans) == 1
        counts = [r for r in trace.records if r["kind"] == "count"]
        # Counter stream stays single-sourced (no double counting when the
        # same probe rides both the store and run_with_backend).
        assert sum(1 for r in counts if r["name"] == "store.hits") == 1
        assert sum(1 for r in counts if r["name"] == "store.misses") == 1


class TestSweepInstrumentation:
    def _sweep(self):
        base = ScenarioSpec(protocol="push-sum-revert", n_hosts=60, rounds=6)
        return Sweep.over(base, seed=[0, 1, 2])

    def test_progress_heartbeats_on_stderr(self, capsys):
        SweepRunner(progress=True).run(self._sweep())
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("[sweep")]
        assert len(lines) == 3
        assert "[sweep 1/3] executed" in lines[0]
        assert lines[0].rstrip().endswith("s")

    def test_progress_reports_cached_cells(self, tmp_path, capsys):
        store = ResultStore(str(tmp_path / "cache"))
        sweep = self._sweep()
        SweepRunner(store=store, progress=True).run(sweep)
        capsys.readouterr()
        SweepRunner(store=store, progress=True).run(sweep)
        err = capsys.readouterr().err
        assert sum(1 for line in err.splitlines() if "cached" in line) == 3

    def test_probe_records_cells_and_threads_into_runs(self):
        trace = TraceRecorder()
        result = SweepRunner(probe=trace).run(self._sweep())
        assert len(result.rows) == 3
        cells = [r for r in trace.records if r["kind"] == "event" and r["name"] == "cell"]
        assert [c["index"] for c in cells] == [0, 1, 2]
        assert all(c["status"] == "executed" for c in cells)
        # The serial path hands the probe to run_scenario — kernel spans land.
        assert sum(1 for r in trace.records
                   if r["kind"] == "span" and r["name"] == "execute") == 3

    def test_quiet_default_prints_nothing(self, capsys):
        SweepRunner().run(self._sweep())
        assert capsys.readouterr().err == ""


class TestOverheadGuard:
    def test_trace_recorder_overhead_under_ten_percent(self):
        # The smoke-bench shape: a vectorised population large enough that
        # per-round kernel work dominates.  min-of-repeats absorbs noise.
        spec = ScenarioSpec(protocol="push-sum-revert", n_hosts=2000, rounds=40, seed=1)
        run_scenario(spec)  # warm caches/imports

        def best(probe=None, repeats=5):
            timings = []
            for _ in range(repeats):
                start = time.perf_counter()
                run_scenario(spec, probe=probe)
                timings.append(time.perf_counter() - start)
            return min(timings)

        bare = best()
        probed = best(probe=TraceRecorder())
        # <10% per the design contract, plus 5 ms absolute slack so a
        # loaded CI worker cannot flake a sub-50ms baseline.
        assert probed <= bare * 1.10 + 0.005, (
            f"probe overhead too high: bare={bare * 1e3:.1f}ms probed={probed * 1e3:.1f}ms"
        )
