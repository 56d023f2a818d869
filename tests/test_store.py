"""Tests for the content-addressed result store and incremental sweeps."""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.api.sweep as sweep_module
import repro.store.store as store_module
from repro.api import ScenarioSpec, Sweep, SweepRunner, run_scenario
from repro.store import STORE_SCHEMA_VERSION, ResultStore, code_fingerprint


def small_spec(**overrides):
    """A sub-second scenario for store round-trips."""
    base = dict(
        protocol="push-sum-revert",
        protocol_params={"reversion": 0.1},
        n_hosts=64,
        rounds=6,
        seed=11,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def payload_json(result):
    """The result's canonical serialised form (bit-identity comparisons)."""
    return json.dumps(result.to_payload(), sort_keys=True)


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "cache"))


# ---------------------------------------------------------------------------
# ScenarioSpec.key(): the canonical hash
# ---------------------------------------------------------------------------
class TestSpecKey:
    def test_key_ignores_field_declaration_order(self):
        a = ScenarioSpec(protocol="push-sum-revert", n_hosts=64, rounds=6, seed=11)
        b = ScenarioSpec(seed=11, rounds=6, n_hosts=64, protocol="push-sum-revert")
        assert a.key() == b.key()

    def test_key_ignores_param_dict_insertion_order(self):
        a = small_spec(protocol_params={"reversion": 0.1, "adaptive": False})
        b = small_spec(protocol_params={"adaptive": False, "reversion": 0.1})
        assert a.key() == b.key()

    def test_name_is_a_label_not_an_address(self):
        assert small_spec().key() == small_spec(name="relabelled").key()

    def test_every_simulation_field_changes_the_key(self):
        base = small_spec()
        assert base.key() != small_spec(seed=12).key()
        assert base.key() != small_spec(rounds=7).key()
        assert base.key() != small_spec(n_hosts=65).key()
        assert base.key() != small_spec(protocol_params={"reversion": 0.2}).key()
        assert base.key() != small_spec(store_estimates=True).key()

    def test_auto_backend_shares_the_resolved_backend_key(self):
        # uniform + push-sum-revert has a kernel, so "auto" resolves to
        # "vectorized" and must address the same cache entry.
        auto = small_spec(backend="auto")
        explicit = small_spec(backend="vectorized")
        assert auto.resolved_backend() == "vectorized"
        assert auto.key() == explicit.key()
        assert auto.key() != small_spec(backend="agent").key()

    def test_key_is_stable_across_process_restarts(self):
        expected = small_spec().key()
        script = (
            "from repro.api import ScenarioSpec; "
            "print(ScenarioSpec(protocol='push-sum-revert', "
            "protocol_params={'reversion': 0.1}, n_hosts=64, rounds=6, seed=11).key())"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        for hash_seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            output = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env,
            ).stdout.strip()
            assert output == expected


# ---------------------------------------------------------------------------
# ResultStore: round-trips, invalidation, management
# ---------------------------------------------------------------------------
class TestResultStore:
    def test_round_trip_is_bit_identical(self, store):
        # The agent engine on a lossy network fills every record field
        # (delivery counters, stored estimates) the payload must carry.
        spec = small_spec(
            backend="agent", mode="push", network="bernoulli-loss",
            network_params={"p": 0.3}, store_estimates=True,
        )
        cold = run_scenario(spec, store=store)
        warm = run_scenario(spec, store=store)
        assert store.session == {"hits": 1, "misses": 1, "puts": 1}
        assert payload_json(warm) == payload_json(cold)
        assert warm.metadata == cold.metadata
        assert warm.rounds[-1].estimates == cold.rounds[-1].estimates

    def test_get_on_empty_store_is_a_miss(self, store):
        assert store.get(small_spec()) is None
        assert store.session["misses"] == 1

    def test_refresh_reexecutes_but_writes_back(self, store):
        spec = small_spec()
        run_scenario(spec, store=store)
        run_scenario(spec, store=store, refresh=True)
        assert store.session["puts"] == 2
        assert store.session["hits"] == 0

    def test_schema_version_bump_invalidates(self, store, monkeypatch):
        spec = small_spec()
        run_scenario(spec, store=store)
        assert store.contains(spec)
        monkeypatch.setattr(store_module, "STORE_SCHEMA_VERSION", STORE_SCHEMA_VERSION + 1)
        assert not store.contains(spec)
        assert store.get(spec) is None
        # The stale entry was dropped on contact, not left to rot.
        assert len(store) == 0

    def test_code_fingerprint_change_invalidates(self, store, monkeypatch):
        spec = small_spec()
        run_scenario(spec, store=store)
        monkeypatch.setattr(store_module, "code_fingerprint", lambda protocol: "edited-code")
        assert store.get(spec) is None
        assert len(store) == 0

    def test_fingerprint_distinguishes_protocols(self):
        assert code_fingerprint("push-sum-revert") != code_fingerprint("extrema-gossip")
        assert code_fingerprint("push-sum-revert") == code_fingerprint("push-sum-revert")

    def test_fingerprint_chases_protocol_composition(self):
        # invert-average composes push-sum-revert and the counting sketch
        # across both protocol packages; its fingerprint must cover them so
        # editing a building block invalidates the composite's entries.
        from repro.store.fingerprint import _protocol_closure

        names = [name for name, _path in _protocol_closure("repro.core.invert_average")]
        assert "repro.core.invert_average" in names
        assert "repro.core.push_sum_revert" in names
        assert "repro.baselines.push_sum" in names

    def test_editing_the_event_engine_invalidates_cached_results(self, store, monkeypatch):
        # repro.events is part of the shared fingerprint: a cached result
        # may have been produced by the event engine, so editing any of its
        # modules must turn every hit into a miss.
        from repro.store import fingerprint as fingerprint_module

        assert "repro.events" in fingerprint_module._SHARED_PACKAGES

        spec = small_spec(
            engine="events", backend="agent",
            engine_params={"duration": 6.0, "sample_interval": 1.0},
        )
        run_scenario(spec, store=store)
        assert store.contains(spec)

        real_read = fingerprint_module._read
        marker = os.path.join("repro", "events")

        def edited(path):
            data = real_read(path)
            return data + b"\n# edited" if marker in path else data

        monkeypatch.setattr(fingerprint_module, "_read", edited)
        fingerprint_module.clear_fingerprint_cache()
        try:
            assert store.get(spec) is None
            assert len(store) == 0
        finally:
            monkeypatch.undo()
            # Drop the digests memoised from the tampered sources so other
            # tests see fingerprints of the real files again.
            fingerprint_module.clear_fingerprint_cache()

    def test_unknown_protocol_entries_are_stale_not_fatal(self, store):
        import sqlite3

        spec = small_spec()
        store.put(spec, run_scenario(spec))
        with sqlite3.connect(os.path.join(store.root, "index.db")) as connection:
            connection.execute("UPDATE results SET protocol = 'gone-protocol'")
        # stats and prune must survive the unregistered name (the very
        # tools for cleaning such entries), and get must treat it as a miss.
        assert store.stats()["stale_entries"] == 1
        assert store.get(spec) is None
        assert store.prune() == 0  # get already dropped it on contact
        assert len(store) == 0

    def test_corrupt_blob_heals_to_a_miss(self, store):
        spec = small_spec()
        key = store.put(spec, run_scenario(spec))
        blob = store._blob_path(key)
        with open(blob, "wb") as handle:
            handle.write(b"not gzip at all")
        assert store.get(spec) is None
        assert len(store) == 0 and not os.path.exists(blob)

    def test_stats_prune_clear(self, store, monkeypatch):
        specs = [small_spec(seed=seed) for seed in range(3)]
        for spec in specs:
            store.put(spec, run_scenario(spec))
        stats = store.stats()
        assert stats["entries"] == 3
        assert stats["by_protocol"] == {"push-sum-revert": 3}
        assert stats["total_bytes"] > 0
        assert store.prune() == 0  # nothing stale yet

        monkeypatch.setattr(store_module, "code_fingerprint", lambda protocol: "edited")
        assert store.stats()["stale_entries"] == 3
        assert store.prune() == 3
        monkeypatch.undo()

        for spec in specs:
            store.put(spec, run_scenario(spec))
        assert store.prune(older_than_days=0) == 3  # everything is "old"
        with pytest.raises(ValueError):
            store.prune(older_than_days=-1)

        store.put(specs[0], run_scenario(specs[0]))
        assert store.clear() == 1
        assert len(store) == 0

    def test_put_rejects_non_results(self, store):
        with pytest.raises(TypeError):
            store.put(small_spec(), {"not": "a result"})

    def test_concurrent_writers_are_safe(self, tmp_path):
        # Several handles on one directory (as separate sweeps would open)
        # hammering overlapping keys from worker threads.
        root = str(tmp_path / "cache")
        specs = [small_spec(seed=seed) for seed in range(6)]
        results = [run_scenario(spec) for spec in specs]

        def write(index):
            handle = ResultStore(root)
            spec, result = specs[index % len(specs)], results[index % len(specs)]
            handle.put(spec, result)
            return handle.get(spec) is not None

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(write, range(24)))
        assert all(outcomes)

        # One fingerprint from many threads of one process: every writer
        # needs its own temp blob, or one os.replace() steals another's.
        def hammer(_):
            handle = ResultStore(root)
            for _ in range(50):
                handle.put(specs[0], results[0])
            return handle.get(specs[0]) is not None

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                assert all(pool.map(hammer, range(8)))
        finally:
            sys.setswitchinterval(interval)
        reader = ResultStore(root)
        assert len(reader) == len(specs)
        for spec, result in zip(specs, results):
            assert payload_json(reader.get(spec)) == payload_json(result)


# ---------------------------------------------------------------------------
# Incremental sweeps
# ---------------------------------------------------------------------------
def grid():
    return Sweep.over(
        small_spec(),
        **{"protocol_params.reversion": [0.0, 0.1], "seed": range(3)},
    )


class TestIncrementalSweeps:
    def test_warm_rerun_executes_zero_cells_and_is_bit_identical(self, store, monkeypatch):
        cold = SweepRunner(parallel=False, store=store).run(grid())
        assert not any(cold.cached) and cold.executed() == 6

        calls = []
        real = sweep_module.run_scenario
        monkeypatch.setattr(
            sweep_module, "run_scenario",
            lambda spec, **kwargs: calls.append(spec) or real(spec, **kwargs),
        )
        warm = SweepRunner(parallel=False, store=store).run(grid())
        assert calls == []  # zero cells executed
        assert all(warm.cached) and warm.cache_hits() == 6
        assert warm.rows == cold.rows
        assert warm.render() == cold.render()
        assert [payload_json(r) for r in warm.results] == [payload_json(r) for r in cold.results]

    def test_parallel_warm_rerun_matches_parallel_cold(self, store):
        runner = lambda: SweepRunner(parallel=True, max_workers=2, store=store)  # noqa: E731
        cold = runner().run(grid())
        warm = runner().run(grid())
        assert warm.cache_hits() == 6 and warm.executed() == 0
        assert warm.render() == cold.render()
        assert warm.rows == cold.rows

    def test_parallel_and_serial_share_cache_entries(self, tmp_path):
        serial_store = ResultStore(str(tmp_path / "cache"))
        cold = SweepRunner(parallel=False, store=serial_store).run(grid())
        warm_store = ResultStore(str(tmp_path / "cache"))
        warm = SweepRunner(parallel=True, max_workers=2, store=warm_store).run(grid())
        assert warm.cache_hits() == 6
        assert warm.rows == cold.rows

    def test_partial_store_executes_only_missing_cells(self, store, monkeypatch):
        specs = grid().specs()
        for spec in specs[:4]:
            store.put(spec, run_scenario(spec))

        calls = []
        real = sweep_module.run_scenario
        monkeypatch.setattr(
            sweep_module, "run_scenario",
            lambda spec, **kwargs: calls.append(spec) or real(spec, **kwargs),
        )
        result = SweepRunner(parallel=False, store=store).run(grid())
        assert [spec.key() for spec in calls] == [spec.key() for spec in specs[4:]]
        assert result.cached == [True] * 4 + [False] * 2

    def test_interrupted_sweep_resumes_from_the_store(self, store, monkeypatch):
        real = sweep_module.run_scenario
        executed = []

        def dies_after_three(spec, **kwargs):
            if len(executed) == 3:
                raise KeyboardInterrupt("killed mid-sweep")
            executed.append(spec)
            return real(spec, **kwargs)

        monkeypatch.setattr(sweep_module, "run_scenario", dies_after_three)
        with pytest.raises(KeyboardInterrupt):
            SweepRunner(parallel=False, store=store).run(grid())
        assert len(store) == 3  # completed cells survived the kill

        monkeypatch.setattr(sweep_module, "run_scenario", real)
        reference = SweepRunner(parallel=False).run(grid())

        executed_after = []
        monkeypatch.setattr(
            sweep_module, "run_scenario",
            lambda spec, **kwargs: executed_after.append(spec) or real(spec, **kwargs),
        )
        resumed = SweepRunner(parallel=False, store=store).run(grid())
        assert len(executed_after) == 3  # only the remainder ran
        assert resumed.cached == [True] * 3 + [False] * 3
        assert resumed.rows == reference.rows

    def test_refresh_reruns_every_cell(self, store):
        SweepRunner(parallel=False, store=store).run(grid())
        refreshed = SweepRunner(parallel=False, store=store, refresh=True).run(grid())
        assert not any(refreshed.cached)
        assert store.session["puts"] == 12

    def test_rows_follow_grid_order_regardless_of_completion(self, store):
        # Populate out of grid order, then check the table order is the
        # declaration-order cross product, cached and fresh cells alike.
        specs = grid().specs()
        for spec in reversed(specs[3:]):
            store.put(spec, run_scenario(spec))
        result = SweepRunner(parallel=True, max_workers=3, store=store).run(grid())
        assert result.column("seed") == [0, 1, 2, 0, 1, 2]
        assert result.column("protocol_params.reversion") == [0.0, 0.0, 0.0, 0.1, 0.1, 0.1]
        no_store = SweepRunner(parallel=False).run(grid())
        assert result.rows == no_store.rows
