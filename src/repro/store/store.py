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
(several sweeps sharing one cache directory, one handle each) safe; the
sweep runner additionally funnels all of a grid's writes through the parent
process.  ``get`` / ``put`` are the one-element case of ``get_many`` /
``put_many``, which pay one lookup and one transaction per *batch*.

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
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

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

#: Seconds a writer waits for the index lock — and therefore the longest a
#: live writer can sit between its blob ``os.replace`` and its INSERT.
_BUSY_TIMEOUT = 30.0
#: Keys per lookup SELECT, under sqlite's oldest bound-variable limit (999).
_SELECT_CHUNK = 500

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
    """Content-addressed experiment results under one cache directory.

    A handle owns one sqlite connection, opened here and released by
    :meth:`close` (or ``with ResultStore(...) as store:``), so it belongs to
    the thread that created it: sqlite refuses any other thread with a
    ``ProgrammingError``, and concurrent writers open a handle each.  No lock
    outlives a call — a write commits its one transaction before the method
    returns, a read exhausts its cursor.
    """

    def __init__(self, root: str = DEFAULT_CACHE_DIR, *, probe=None):
        self.root = os.path.abspath(root)
        self._blob_root = os.path.join(self.root, "blobs")
        os.makedirs(self._blob_root, exist_ok=True)
        # The generous busy timeout is the concurrency story — sqlite
        # serialises writers itself; contending stores just wait their turn.
        self._connection = sqlite3.connect(
            os.path.join(self.root, "index.db"), timeout=_BUSY_TIMEOUT
        )
        with self._connection as connection:
            connection.execute(_TABLE)
        #: Counters for this store handle's lifetime (reported by the CLI).
        self.session: Dict[str, int] = {"hits": 0, "misses": 0, "puts": 0}
        #: Optional :mod:`repro.obs` observer: hit/miss counts and blob-IO
        #: latency spans.  Defaults to the zero-cost null probe.
        self.probe = probe if probe is not None else NULL_PROBE

    def close(self) -> None:
        """Release the index connection; any later call on the handle raises."""
        self._connection.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ plumbing
    def _blob_path(self, key: str) -> str:
        return os.path.join(self._blob_root, key[:2], f"{key}.json.gz")

    @staticmethod
    def _key(spec: "ScenarioSpec") -> str:
        key = spec.key()
        if not isinstance(key, str) or not key:
            raise ValueError(f"spec.key() must return a non-empty string, got {key!r}")
        return key

    def _settle(self, hits: Sequence[str] = (), drops: Sequence[str] = ()) -> None:
        """A call's index bookkeeping as one transaction: count ``hits``,
        delete ``drops`` — whose blobs are removed once the rows are gone."""
        if not hits and not drops:
            return
        now = time.time()
        with self._connection as connection:
            if hits:
                connection.executemany(
                    "UPDATE results SET hits = hits + 1, last_used = ? WHERE key = ?",
                    [(now, key) for key in hits],
                )
            if drops:
                connection.executemany(
                    "DELETE FROM results WHERE key = ?", [(key,) for key in drops]
                )
        for key in drops:
            _remove(self._blob_path(key))

    def _tally(self, outcome: str) -> None:
        self.session[outcome] += 1
        if self.probe.enabled:
            self.probe.count(f"store.{outcome}")

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

    def _select(self, keys: Sequence[str]) -> Dict[str, bool]:
        """Every indexed key among ``keys``, mapped to whether its entry is
        current (``False``: stale).  One SELECT per chunk of the batch."""
        current: Dict[str, bool] = {}
        for start in range(0, len(keys), _SELECT_CHUNK):
            chunk = keys[start : start + _SELECT_CHUNK]
            rows = self._connection.execute(
                "SELECT key, schema_version, protocol, fingerprint FROM results "
                f"WHERE key IN ({','.join('?' * len(chunk))})",
                chunk,
            ).fetchall()
            for key, schema_version, protocol, fingerprint in rows:
                current[key] = not self._is_stale(schema_version, protocol, fingerprint)
        return current

    def _read_blob(self, key: str) -> Optional[SimulationResult]:
        try:
            with self.probe.span("blob_read"):
                with gzip.open(self._blob_path(key), "rt", encoding="utf-8") as handle:
                    payload = json.load(handle)
                return SimulationResult.from_payload(payload)
        except (OSError, EOFError, ValueError, KeyError, TypeError):
            return None  # missing or corrupt: the caller heals the index

    # ------------------------------------------------------------------- lookup
    def get_many(self, specs: Iterable["ScenarioSpec"]) -> List[Optional[SimulationResult]]:
        """The stored result for each spec, ``None`` on a miss.

        Stale entries — written under another schema version or before the
        protocol/engine code changed — and entries whose blob is missing or
        corrupt are dropped and reported as misses.  A batch costs one
        SELECT, its blob reads (outside any transaction), then one
        transaction for all its bookkeeping: hit counters and drops.
        """
        keys = [self._key(spec) for spec in specs]
        current = self._select(keys)
        results = [self._read_blob(key) if current.get(key) else None for key in keys]
        hits = [key for key, result in zip(keys, results) if result is not None]
        served = set(hits)
        self._settle(hits, [key for key in current if key not in served])
        for result in results:
            self._tally("misses" if result is None else "hits")
        return results

    def get(self, spec: "ScenarioSpec") -> Optional[SimulationResult]:
        """The stored result for ``spec``, or ``None`` on miss (see :meth:`get_many`)."""
        return self.get_many([spec])[0]

    def contains(self, spec: "ScenarioSpec") -> bool:
        """Whether ``get(spec)`` would hit (without reading the blob)."""
        key = self._key(spec)
        return self._select([key]).get(key, False) and os.path.exists(self._blob_path(key))

    # ------------------------------------------------------------------ storage
    def put_many(self, pairs: Iterable[Tuple["ScenarioSpec", SimulationResult]]) -> List[str]:
        """Store each ``(spec, result)`` pair; returns the keys.

        Every blob is written first, then the batch's rows are inserted in
        one transaction — a batch killed in between leaves blobs without
        rows, which read as misses and which :meth:`prune` sweeps.
        """
        pairs = list(pairs)
        for _spec, result in pairs:
            if not isinstance(result, SimulationResult):
                raise TypeError(f"expected a SimulationResult, got {type(result).__name__}")
        rows = []
        for spec, result in pairs:
            key = self._key(spec)
            n_bytes = self._write_blob(key, result)
            now = time.time()
            rows.append((
                key, spec.protocol, spec.resolved_backend(), STORE_SCHEMA_VERSION,
                code_fingerprint(spec.protocol), now, now, n_bytes,
                json.dumps(spec.to_dict(), sort_keys=True),
            ))
        if rows:
            with self._connection as connection:
                connection.executemany(
                    "INSERT OR REPLACE INTO results "
                    "(key, protocol, backend, schema_version, fingerprint, created, "
                    " last_used, hits, n_bytes, spec) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, 0, ?, ?)",
                    rows,
                )
        for _row in rows:
            self._tally("puts")
        return [row[0] for row in rows]

    def put(self, spec: "ScenarioSpec", result: SimulationResult) -> str:
        """Store ``result`` under ``spec``'s key; returns the key."""
        return self.put_many([(spec, result)])[0]

    def _write_blob(self, key: str, result: SimulationResult) -> int:
        """Write ``result``'s blob atomically; returns its size in bytes."""
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
        return len(blob)

    # --------------------------------------------------------------- management
    def __len__(self) -> int:
        ((count,),) = self._connection.execute("SELECT COUNT(*) FROM results").fetchall()
        return int(count)

    def _orphans(self, indexed: Set[str]) -> List[str]:
        """Files under ``blobs/`` that no index row accounts for: blobs whose
        INSERT never committed and temp files of killed writers.  Only files
        older than the busy timeout count, so a live writer between its
        ``os.replace`` and its INSERT is never raced."""
        horizon = time.time() - _BUSY_TIMEOUT
        orphans = []
        for dirpath, _dirnames, filenames in os.walk(self._blob_root):
            for filename in filenames:
                key, _dot, suffix = filename.partition(".")
                if suffix == "json.gz" and key in indexed:
                    continue
                path = os.path.join(dirpath, filename)
                with contextlib.suppress(OSError):  # removed under our feet
                    if os.stat(path).st_mtime < horizon:
                        orphans.append(path)
        return orphans

    def stats(self) -> Dict[str, Any]:
        """A summary of the store's contents (what ``cache stats`` prints)."""
        rows = self._connection.execute(
            "SELECT key, protocol, schema_version, fingerprint, hits, n_bytes FROM results"
        ).fetchall()
        by_protocol: Dict[str, int] = {}
        stale = 0
        total_bytes = 0
        lifetime_hits = 0
        for _indexed_key, protocol, schema_version, fingerprint, hits, n_bytes in rows:
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
            "orphan_files": len(self._orphans({row[0] for row in rows})),
            "total_bytes": total_bytes,
            "lifetime_hits": lifetime_hits,
            "by_protocol": dict(sorted(by_protocol.items())),
            "session": dict(self.session),
        }

    def prune(self, *, older_than_days: Optional[float] = None) -> int:
        """Drop stale entries (wrong schema/fingerprint, missing blobs),
        orphan files (:meth:`_orphans`) and, optionally, entries created
        more than ``older_than_days`` ago.

        Returns the number of entries and orphan files removed.
        """
        if older_than_days is not None and older_than_days < 0:
            raise ValueError("older_than_days must be >= 0")
        cutoff = None if older_than_days is None else time.time() - older_than_days * 86400.0
        rows = self._connection.execute(
            "SELECT key, protocol, schema_version, fingerprint, created FROM results"
        ).fetchall()
        doomed = [
            key
            for key, protocol, schema_version, fingerprint, created in rows
            if self._is_stale(schema_version, protocol, fingerprint)
            or (cutoff is not None and created < cutoff)
            or not os.path.exists(self._blob_path(key))
        ]
        orphans = self._orphans({row[0] for row in rows})
        self._settle(drops=doomed)
        for path in orphans:
            _remove(path)
        return len(doomed) + len(orphans)

    def clear(self) -> int:
        """Remove every entry; returns how many were dropped."""
        with self._connection as connection:
            count = connection.execute("DELETE FROM results").rowcount
        for dirpath, _dirnames, filenames in os.walk(self._blob_root):
            for filename in filenames:
                _remove(os.path.join(dirpath, filename))
        return int(count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({self.root!r}, {len(self)} entries)"


def _remove(path: str) -> None:
    with contextlib.suppress(OSError):  # already gone: a concurrent drop or clear
        os.remove(path)
