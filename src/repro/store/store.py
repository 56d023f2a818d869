"""A content-addressed store of simulation results.

:class:`ResultStore` maps a :class:`~repro.api.spec.ScenarioSpec`'s
canonical hash (:meth:`~repro.api.spec.ScenarioSpec.key`) to the full
:class:`~repro.simulator.SimulationResult` it produced.  Layout on disk
(``.repro-cache/`` by default)::

    .repro-cache/
        index.db                 # sqlite: one row per cached result
        blobs/<k[:2]>/<k>.json.gz  # gzip-compressed full result payload

The sqlite index carries everything needed to answer ``get`` without
touching a blob — the store schema version and the per-protocol code
fingerprint (:mod:`repro.store.fingerprint`) recorded at ``put`` time.  A
mismatch on either is treated as a miss and the stale entry is dropped, so
a store can never serve a result produced by older code or an older blob
layout.  Blob writes go through a temp file + :func:`os.replace` and index
writes are single sqlite transactions, which makes concurrent writers
(several sweeps sharing one cache directory) safe; the sweep runner
additionally funnels all of a grid's writes through the parent process.

Results round-trip exactly: payload floats are serialised with
``repr``-fidelity JSON, so a warm read is bit-identical to the run that
produced it (asserted in ``tests/test_store.py``).
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import sqlite3
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional

from repro.obs.probe import NULL_PROBE
from repro.simulator.result import SimulationResult
from repro.store.fingerprint import code_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import ScenarioSpec

__all__ = ["ResultStore", "STORE_SCHEMA_VERSION", "DEFAULT_CACHE_DIR"]

#: Version of the store's on-disk layout *and* of the result payload
#: format.  Bump it whenever either changes shape; every existing entry
#: then reads as a miss and is pruned on first contact.
STORE_SCHEMA_VERSION = 1

#: Where a store lives when the caller does not say otherwise.
DEFAULT_CACHE_DIR = ".repro-cache"

_TABLE = """
CREATE TABLE IF NOT EXISTS results (
    key            TEXT PRIMARY KEY,
    protocol       TEXT NOT NULL,
    backend        TEXT NOT NULL,
    schema_version INTEGER NOT NULL,
    fingerprint    TEXT NOT NULL,
    created        REAL NOT NULL,
    last_used      REAL NOT NULL,
    hits           INTEGER NOT NULL DEFAULT 0,
    n_bytes        INTEGER NOT NULL,
    spec           TEXT NOT NULL
)
"""


class ResultStore:
    """Content-addressed experiment results under one cache directory."""

    def __init__(self, root: str = DEFAULT_CACHE_DIR, *, probe=None):
        self.root = os.path.abspath(root)
        self._blob_root = os.path.join(self.root, "blobs")
        os.makedirs(self._blob_root, exist_ok=True)
        self._index_path = os.path.join(self.root, "index.db")
        with self._connect() as connection:
            connection.execute(_TABLE)
        #: Counters for this store handle's lifetime (reported by the CLI).
        self.session: Dict[str, int] = {"hits": 0, "misses": 0, "puts": 0}
        #: Optional :mod:`repro.obs` observer: hit/miss counts and blob-IO
        #: latency spans.  Defaults to the zero-cost null probe.
        self.probe = probe if probe is not None else NULL_PROBE

    # ------------------------------------------------------------------ plumbing
    @contextlib.contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """One transaction on the index: commit on success, always close.

        The generous busy timeout is the concurrency story — sqlite
        serialises writers itself; contending stores just wait their turn.
        """
        connection = sqlite3.connect(self._index_path, timeout=30.0)
        try:
            with connection:
                yield connection
        finally:
            connection.close()

    def _blob_path(self, key: str) -> str:
        return os.path.join(self._blob_root, key[:2], f"{key}.json.gz")

    @staticmethod
    def _key(spec: "ScenarioSpec") -> str:
        key = spec.key()
        if not isinstance(key, str) or not key:
            raise ValueError(f"spec.key() must return a non-empty string, got {key!r}")
        return key

    def _drop(self, key: str) -> None:
        with self._connect() as connection:
            connection.execute("DELETE FROM results WHERE key = ?", (key,))
        try:
            os.remove(self._blob_path(key))
        except OSError:
            pass

    def _is_stale(self, schema_version: int, protocol: str, fingerprint: str) -> bool:
        if schema_version != STORE_SCHEMA_VERSION:
            return True
        try:
            expected = code_fingerprint(protocol)
        except KeyError:
            # The protocol is not registered in this process (a custom
            # @register_protocol module not imported, or a removed
            # built-in).  The entry cannot be validated, so it cannot be
            # served — stats counts it stale and prune drops it.
            return True
        return fingerprint != expected

    # ------------------------------------------------------------------- lookup
    def get(self, spec: "ScenarioSpec") -> Optional[SimulationResult]:
        """The stored result for ``spec``, or ``None`` on miss.

        Stale entries — written under another schema version or before the
        protocol/engine code changed — are dropped and reported as misses.
        """
        key = self._key(spec)
        with self._connect() as connection:
            row = connection.execute(
                "SELECT schema_version, protocol, fingerprint FROM results WHERE key = ?",
                (key,),
            ).fetchone()
        if row is None:
            self._miss()
            return None
        schema_version, protocol, fingerprint = row
        if self._is_stale(schema_version, protocol, fingerprint):
            self._drop(key)
            self._miss()
            return None
        try:
            with self.probe.span("blob_read"):
                with gzip.open(self._blob_path(key), "rt", encoding="utf-8") as handle:
                    payload = json.load(handle)
                result = SimulationResult.from_payload(payload)
        except (OSError, EOFError, ValueError, KeyError, TypeError):
            # Missing or corrupt blob: heal the index and report a miss.
            self._drop(key)
            self._miss()
            return None
        now = time.time()
        with self._connect() as connection:
            connection.execute(
                "UPDATE results SET hits = hits + 1, last_used = ? WHERE key = ?",
                (now, key),
            )
        self.session["hits"] += 1
        if self.probe.enabled:
            self.probe.count("store.hits")
        return result

    def _miss(self) -> None:
        self.session["misses"] += 1
        if self.probe.enabled:
            self.probe.count("store.misses")

    def contains(self, spec: "ScenarioSpec") -> bool:
        """Whether ``get(spec)`` would hit (without reading the blob)."""
        key = self._key(spec)
        with self._connect() as connection:
            row = connection.execute(
                "SELECT schema_version, protocol, fingerprint FROM results WHERE key = ?",
                (key,),
            ).fetchone()
        if row is None:
            return False
        return not self._is_stale(*[row[i] for i in (0, 1, 2)]) and os.path.exists(
            self._blob_path(key)
        )

    # ------------------------------------------------------------------ storage
    def put(self, spec: "ScenarioSpec", result: SimulationResult) -> str:
        """Store ``result`` under ``spec``'s key; returns the key."""
        if not isinstance(result, SimulationResult):
            raise TypeError(f"expected a SimulationResult, got {type(result).__name__}")
        key = self._key(spec)
        blob_path = self._blob_path(key)
        os.makedirs(os.path.dirname(blob_path), exist_ok=True)
        with self.probe.span("blob_write"):
            payload = json.dumps(result.to_payload(), separators=(",", ":"))
            # ``mtime=0`` keeps equal payloads byte-identical on disk; the temp
            # file + replace makes a concurrent reader see old-or-new, never half.
            blob = gzip.compress(payload.encode("utf-8"), mtime=0)
            # A temp name unique per *writer* (thread), not per process: two
            # threads putting one key must not replace each other's file away.
            tmp_path = f"{blob_path}.tmp.{os.getpid()}.{threading.get_ident()}"
            with open(tmp_path, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_path, blob_path)
        now = time.time()
        with self._connect() as connection:
            connection.execute(
                "INSERT OR REPLACE INTO results "
                "(key, protocol, backend, schema_version, fingerprint, created, "
                " last_used, hits, n_bytes, spec) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, 0, ?, ?)",
                (
                    key,
                    spec.protocol,
                    spec.resolved_backend(),
                    STORE_SCHEMA_VERSION,
                    code_fingerprint(spec.protocol),
                    now,
                    now,
                    len(blob),
                    json.dumps(spec.to_dict(), sort_keys=True),
                ),
            )
        self.session["puts"] += 1
        if self.probe.enabled:
            self.probe.count("store.puts")
        return key

    # --------------------------------------------------------------- management
    def __len__(self) -> int:
        with self._connect() as connection:
            (count,) = connection.execute("SELECT COUNT(*) FROM results").fetchone()
        return int(count)

    def stats(self) -> Dict[str, Any]:
        """A summary of the store's contents (what ``cache stats`` prints)."""
        with self._connect() as connection:
            rows = connection.execute(
                "SELECT protocol, schema_version, fingerprint, hits, n_bytes FROM results"
            ).fetchall()
        by_protocol: Dict[str, int] = {}
        stale = 0
        total_bytes = 0
        lifetime_hits = 0
        for protocol, schema_version, fingerprint, hits, n_bytes in rows:
            by_protocol[protocol] = by_protocol.get(protocol, 0) + 1
            total_bytes += int(n_bytes)
            lifetime_hits += int(hits)
            if self._is_stale(schema_version, protocol, fingerprint):
                stale += 1
        return {
            "root": self.root,
            "schema_version": STORE_SCHEMA_VERSION,
            "entries": len(rows),
            "stale_entries": stale,
            "total_bytes": total_bytes,
            "lifetime_hits": lifetime_hits,
            "by_protocol": dict(sorted(by_protocol.items())),
            "session": dict(self.session),
        }

    def prune(self, *, older_than_days: Optional[float] = None) -> int:
        """Drop stale entries (wrong schema/fingerprint, missing blobs) and,
        optionally, entries created more than ``older_than_days`` ago.

        Returns the number of entries removed.
        """
        if older_than_days is not None and older_than_days < 0:
            raise ValueError("older_than_days must be >= 0")
        cutoff = None if older_than_days is None else time.time() - older_than_days * 86400.0
        with self._connect() as connection:
            rows = connection.execute(
                "SELECT key, protocol, schema_version, fingerprint, created FROM results"
            ).fetchall()
        removed = 0
        for key, protocol, schema_version, fingerprint, created in rows:
            stale = self._is_stale(schema_version, protocol, fingerprint)
            expired = cutoff is not None and created < cutoff
            orphaned = not os.path.exists(self._blob_path(key))
            if stale or expired or orphaned:
                self._drop(key)
                removed += 1
        return removed

    def clear(self) -> int:
        """Remove every entry; returns how many were dropped."""
        with self._connect() as connection:
            (count,) = connection.execute("SELECT COUNT(*) FROM results").fetchone()
            connection.execute("DELETE FROM results")
        for dirpath, _dirnames, filenames in os.walk(self._blob_root):
            for filename in filenames:
                try:
                    os.remove(os.path.join(dirpath, filename))
                except OSError:  # pragma: no cover - concurrent removal
                    pass
        return int(count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({self.root!r}, {len(self)} entries)"
