"""Tests for the content-addressed result store and incremental sweeps."""

import glob
import gzip
import json
import os
import sqlite3
import subprocess
import sys
import zlib
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
    with ResultStore(str(tmp_path / "cache")) as handle:
        yield handle


@pytest.fixture
def statements(monkeypatch):
    """Every ``sqlite3.connect`` the store module makes, as one list of the
    SQL statements that connection ran (implicit BEGIN / COMMIT included)."""
    connections = []
    real_connect = sqlite3.connect

    def traced_connect(*args, **kwargs):
        connection = real_connect(*args, **kwargs)
        connections.append([])
        connection.set_trace_callback(connections[-1].append)
        return connection

    monkeypatch.setattr(store_module.sqlite3, "connect", traced_connect)
    return connections


def index_path(store):
    return os.path.join(store.root, store_module._INDEX)


def index_is_unlocked(store):
    """A second connection that refuses to wait can still commit a write and
    then checkpoint the whole log, which no open read may pin under WAL."""
    other = sqlite3.connect(index_path(store), timeout=0)
    try:
        with other:
            other.execute("UPDATE results SET hits = hits")
        ((busy, _frames, _copied),) = other.execute("PRAGMA wal_checkpoint(TRUNCATE)").fetchall()
    finally:
        other.close()
    return busy == 0


def cache_files(root):
    """Every file under ``root`` with its bytes."""
    files = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in filenames:
            path = os.path.join(dirpath, filename)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, root)] = handle.read()
    return files


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

    def test_example_spec_addresses_cannot_move_silently(self):
        # tests/data/spec_keys.json was written at e596503, before to_dict()
        # and key() were rewritten: the first cell of every example config.
        here = os.path.dirname(__file__)
        with open(os.path.join(here, "data", "spec_keys.json")) as handle:
            pinned = json.load(handle)
        paths = sorted(glob.glob(os.path.join(here, os.pardir, "examples", "specs", "*.json")))
        assert sorted(pinned) == [os.path.basename(path) for path in paths]
        for path in paths:
            with open(path) as handle:
                payload = json.load(handle)
            if "axes" in payload:
                spec = Sweep.from_dict(payload).specs()[0]
            else:
                spec = ScenarioSpec.from_dict(payload)
            assert spec.key() == pinned[os.path.basename(path)], path


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

    def test_fingerprint_chases_the_lazy_package_exports(self):
        # ``from repro.core import X`` imports the package, whose __init__
        # names X's module in its lazy-export table rather than importing it.
        from repro.store.fingerprint import _protocol_closure

        names = [name for name, _path in _protocol_closure("repro.core")]
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
        with sqlite3.connect(index_path(store)) as connection:
            connection.execute("UPDATE results SET protocol = 'gone-protocol'")
        connection.close()
        # stats and prune must survive the unregistered name (the very
        # tools for cleaning such entries), and get must treat it as a miss.
        assert store.stats()["stale_entries"] == 1
        assert store.get(spec) is None
        assert store.prune() == 0  # get already dropped it on contact
        assert len(store) == 0

    @pytest.mark.parametrize(
        "payload",
        [b"not zlib at all", zlib.compress(b"{not json"), zlib.compress(b'{"rounds": 3}')],
        ids=["compression", "json", "shape"],
    )
    def test_corrupt_payload_heals_to_a_miss(self, store, payload):
        spec = small_spec()
        key = store.put(spec, run_scenario(spec))
        with sqlite3.connect(index_path(store)) as connection:
            connection.execute("UPDATE results SET payload = ? WHERE key = ?", (payload, key))
        connection.close()
        assert store.contains(spec)  # the row is current; only decoding can tell
        assert store.get(spec) is None
        assert len(store) == 0 and index_is_unlocked(store)

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
        # ... before anything of the batch is written.
        good = small_spec()
        with pytest.raises(TypeError):
            store.put_many([(good, run_scenario(good)), (small_spec(seed=1), None)])
        assert len(store) == 0

    def test_a_committed_put_survives_a_killed_process(self, tmp_path):
        # The child commits one put and dies without closing its handle, so
        # the entry lives only in the write-ahead log a fresh handle recovers.
        root = str(tmp_path / "cache")
        spec = small_spec()
        script = (
            "import json, os, sys\n"
            "from repro.api import ScenarioSpec, run_scenario\n"
            "from repro.store import ResultStore\n"
            "spec = ScenarioSpec.from_dict(json.loads(sys.argv[2]))\n"
            "ResultStore(sys.argv[1]).put(spec, run_scenario(spec))\n"
            "os._exit(1)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        child = subprocess.run(
            [sys.executable, "-c", script, root, json.dumps(spec.to_dict())],
            capture_output=True, text=True, env=env,
        )
        assert child.returncode == 1, child.stderr
        assert os.path.getsize(os.path.join(root, store_module._INDEX + "-wal")) > 0
        with ResultStore(root) as fresh:
            assert payload_json(fresh.get(spec)) == payload_json(run_scenario(spec))

    def test_a_version_1_cache_reads_as_misses_until_clear_removes_it(self, tmp_path):
        # What the version-1 store wrote: a gzip blob per cell under blobs/
        # and a row naming it in index.db, in that store's table shape.
        root = tmp_path / "cache"
        spec = small_spec()
        key = spec.key()
        blob = root / "blobs" / key[:2] / f"{key}.json.gz"
        blob.parent.mkdir(parents=True)
        blob.write_bytes(gzip.compress(payload_json(run_scenario(spec)).encode(), mtime=0))
        with sqlite3.connect(str(root / "index.db")) as connection:
            connection.execute(
                "CREATE TABLE results (key TEXT PRIMARY KEY, protocol TEXT NOT NULL, "
                "backend TEXT NOT NULL, schema_version INTEGER NOT NULL, "
                "fingerprint TEXT NOT NULL, created REAL NOT NULL, last_used REAL NOT NULL, "
                "hits INTEGER NOT NULL DEFAULT 0, n_bytes INTEGER NOT NULL, spec TEXT NOT NULL)"
            )
            connection.execute(
                "INSERT INTO results VALUES (?, ?, 'vectorized', 1, ?, 0, 0, 0, ?, ?)",
                (key, spec.protocol, code_fingerprint(spec.protocol), blob.stat().st_size,
                 json.dumps(spec.to_dict(), sort_keys=True)),
            )
        connection.close()

        with ResultStore(str(root)) as store:
            assert store.get(spec) is None and not store.contains(spec)
            assert store.stats()["entries"] == len(store) == 0
            assert store.prune() == 0 and blob.exists()  # left alone until a clear
            assert store.clear() == 0
        assert os.listdir(root) == [store_module._INDEX]

    def test_no_lock_outlives_a_call(self, store, monkeypatch):
        specs = [small_spec(seed=seed) for seed in range(4)]
        results = [run_scenario(spec) for spec in specs]
        calls = [
            lambda: store.get(specs[0]),  # miss
            lambda: store.put(specs[0], results[0]),
            lambda: store.get(specs[0]),  # hit
            lambda: store.put_many(zip(specs[1:], results[1:])),
            lambda: store.get_many(specs),
            lambda: store.contains(specs[1]),
            lambda: len(store),
            lambda: store.stats(),
            lambda: store.prune(),
        ]
        for call in calls:
            call()
            assert index_is_unlocked(store)
        monkeypatch.setattr(store_module, "code_fingerprint", lambda protocol: "edited")
        assert store.get(specs[0]) is None and index_is_unlocked(store)  # stale
        assert store.get_many(specs[1:3]) == [None, None] and index_is_unlocked(store)
        assert store.clear() == 1 and index_is_unlocked(store)

    def test_a_handle_is_one_connection_owned_by_its_thread(self, tmp_path, statements):
        store = ResultStore(str(tmp_path / "cache"))
        spec = small_spec()
        store.put(spec, run_scenario(spec))
        for call in (store.get, store.contains):
            assert call(spec)
        assert store.stats()["entries"] == len(store) == 1 and store.prune() == 0
        assert len(statements) == 1  # sqlite3.connect ran once, in __init__

        with ThreadPoolExecutor(max_workers=1) as pool:
            with pytest.raises(sqlite3.ProgrammingError, match="thread"):
                pool.submit(store.get, spec).result(timeout=30)
        assert store.get(spec) is not None  # refused, not corrupted

        store.close()
        store.close()  # harmless
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            store.get(spec)
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            store.put(spec, run_scenario(spec))

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

        # One key from many threads of one process: every REPLACE of its
        # row waits its turn for the write lock.
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

    def _resume(self, store, monkeypatch):
        """Re-run ``grid()`` serially against ``store``: (cells executed, result)."""
        real = sweep_module.run_scenario
        executed = []
        monkeypatch.setattr(
            sweep_module, "run_scenario",
            lambda spec, **kwargs: executed.append(spec) or real(spec, **kwargs),
        )
        try:
            return executed, SweepRunner(parallel=False, store=store).run(grid())
        finally:
            monkeypatch.setattr(sweep_module, "run_scenario", real)

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

        executed_after, resumed = self._resume(store, monkeypatch)
        assert len(executed_after) == 3  # only the remainder ran
        assert resumed.cached == [True] * 3 + [False] * 3
        assert resumed.rows == reference.rows

    @pytest.mark.parametrize(
        "runner, killed_at, committed",
        [
            # Serial: killed inside the third cell's put, payload encoded, row not inserted.
            (dict(parallel=False), 3, 2),
            # Pool, two cells per batch: killed inside the second batch's
            # put_many, both of its payloads encoded, neither row inserted.
            (dict(parallel=True, max_workers=2, chunksize=2), 4, 2),
        ],
    )
    def test_a_sweep_killed_inside_a_store_write_resumes(
        self, store, monkeypatch, runner, killed_at, committed
    ):
        reference = SweepRunner(parallel=False).run(grid())
        real_encode = store_module._encode
        encoded = []
        on_disk_at_the_kill = {}

        def dies_after_encoding(result):
            encoded.append(real_encode(result))
            if len(encoded) == killed_at:
                on_disk_at_the_kill.update(cache_files(store.root))
                raise KeyboardInterrupt("killed between encoding and the INSERT")
            return encoded[-1]

        monkeypatch.setattr(store_module, "_encode", dies_after_encoding)
        with pytest.raises(KeyboardInterrupt):
            SweepRunner(store=store, **runner).run(grid())
        monkeypatch.setattr(store_module, "_encode", real_encode)

        # The killed write left nothing on disk, and the index holds exactly
        # the committed cells, which agree with what can be read.
        assert cache_files(store.root) == on_disk_at_the_kill
        specs = grid().specs()
        assert len(store) == committed
        assert sum(store.contains(spec) for spec in specs) == committed
        assert index_is_unlocked(store)  # the interrupted write holds no lock

        executed_after, resumed = self._resume(store, monkeypatch)
        assert len(executed_after) == len(specs) - committed  # only the remainder ran
        assert sum(resumed.cached) == committed
        assert resumed.rows == reference.rows
        assert len(store) == len(specs) and store.prune() == 0

    def test_a_pass_pays_one_lookup_and_one_transaction_per_commit(self, tmp_path, statements):
        sweep = Sweep.over(small_spec(), environment=["uniform", "ring", "grid"], seed=range(8))
        store = ResultStore(str(tmp_path / "cache"))

        def ran(word):
            return sum(1 for statement in statements[0] if statement.startswith(word))

        cold = SweepRunner(parallel=False, store=store).run(sweep)
        assert cold.executed() == 24
        # One keyed SELECT for the whole grid, one committed INSERT per cell.
        assert (ran("SELECT"), ran("INSERT"), ran("COMMIT")) == (1, 24, 24)

        del statements[0][:]
        warm = SweepRunner(parallel=False, store=store).run(sweep)
        assert warm.cache_hits() == 24 and warm.rows == cold.rows
        # One SELECT, then every hit counter in one write transaction.
        assert (ran("SELECT"), ran("UPDATE"), ran("BEGIN"), ran("COMMIT")) == (1, 24, 1, 1)

        del statements[0][:]
        batched = SweepRunner(
            parallel=True, max_workers=2, chunksize=4, store=store, refresh=True
        ).run(sweep)
        assert batched.rows == cold.rows
        # The pool path commits once per finished batch of `chunksize` cells.
        assert (ran("INSERT"), ran("COMMIT")) == (24, 6)
        assert len(statements) == 1  # all of it on the handle's one connection
        store.close()

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
