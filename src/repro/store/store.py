"""A content-addressed store of simulation results.

:class:`ResultStore` maps a :class:`~repro.api.spec.ScenarioSpec`'s
canonical hash (:meth:`~repro.api.spec.ScenarioSpec.key`) to the full
:class:`~repro.simulator.SimulationResult` it produced.  Layout on disk
(``.repro-cache/`` by default)::

    .repro-cache/
        index-v2.db       # sqlite: one row per cached result, payload included
        index-v2.db-wal   # sqlite's write-ahead log (and -shm) while a handle is open

Each row carries the store schema version and the code fingerprint
(:mod:`repro.store.fingerprint`) recorded at ``put`` time
beside the zlib-compressed payload.  A mismatch on either is treated as a
miss and the stale entry is dropped, so a store can never serve a result
produced by older code or an older payload layout.  A write is one sqlite
transaction in WAL mode, which makes concurrent writers (several sweeps
sharing one cache directory, one handle each) safe; the sweep runner
additionally funnels all of a grid's writes through the parent process.
``get`` / ``put`` are the one-element case of ``get_many`` / ``put_many``,
which pay one lookup and one transaction per *batch*.

Results round-trip exactly: payload floats are serialised with
``repr``-fidelity JSON, so a warm read is bit-identical to the run that
produced it (asserted in ``tests/test_store.py``).
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sqlite3
import time
import zlib
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.probe import NULL_PROBE
from repro.simulator.result import SimulationResult
from repro.store.fingerprint import code_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import ScenarioSpec

__all__ = ["ResultStore", "STORE_SCHEMA_VERSION", "DEFAULT_CACHE_DIR"]

#: Version of the store's on-disk layout *and* of the result payload
#: format.  Bump it whenever either changes shape; every existing entry
#: then reads as a miss and is pruned on first contact.
STORE_SCHEMA_VERSION = 2

#: Where a store lives when the caller does not say otherwise.
DEFAULT_CACHE_DIR = ".repro-cache"

#: The index file.  Its name changes with the table's shape, so a cache
#: written by the version-1 store (``index.db`` beside ``blobs/``) is never
#: opened: it reads as all misses, and :meth:`ResultStore.clear` removes it.
_INDEX = "index-v2.db"
#: Seconds a writer waits for the index lock.
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
    spec           TEXT NOT NULL,
    payload        BLOB NOT NULL
)
"""


def _encode(result: SimulationResult) -> bytes:
    """``result``'s payload as compact JSON, zlib-compressed at level 9."""
    payload = json.dumps(result.to_payload(), separators=(",", ":"))
    return zlib.compress(payload.encode("utf-8"), 9)


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
        os.makedirs(self.root, exist_ok=True)
        # The generous busy timeout is the concurrency story — sqlite
        # serialises writers itself; contending stores just wait their turn.
        self._connection = sqlite3.connect(
            os.path.join(self.root, _INDEX), timeout=_BUSY_TIMEOUT
        )
        # A commit appends to the log without an fsync: it survives a killed
        # process, and after a power loss it is a hit or a miss (DESIGN.md §9).
        self._connection.execute("PRAGMA journal_mode=WAL").fetchall()
        self._connection.execute("PRAGMA synchronous=NORMAL")
        with self._connection as connection:
            connection.execute(_TABLE)
        #: Counters for this store handle's lifetime (reported by the CLI).
        self.session: Dict[str, int] = {"hits": 0, "misses": 0, "puts": 0}
        #: Optional :mod:`repro.obs` observer: hit/miss counts and payload
        #: encode/decode latency spans.  Defaults to the zero-cost null probe.
        self.probe = probe if probe is not None else NULL_PROBE

    def close(self) -> None:
        """Release the index connection; any later call on the handle raises."""
        self._connection.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ plumbing
    @staticmethod
    def _key(spec: "ScenarioSpec") -> str:
        key = spec.key()
        if not isinstance(key, str) or not key:
            raise ValueError(f"spec.key() must return a non-empty string, got {key!r}")
        return key

    def _settle(self, hits: Sequence[str] = (), drops: Sequence[str] = ()) -> None:
        """A call's index bookkeeping as one transaction: count ``hits``,
        delete ``drops``."""
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

    def _select(self, keys: Sequence[str]) -> Dict[str, Optional[bytes]]:
        """Every indexed key among ``keys``, mapped to its payload (``None``:
        the entry is stale).  One SELECT per chunk of the batch."""
        current: Dict[str, Optional[bytes]] = {}
        for start in range(0, len(keys), _SELECT_CHUNK):
            chunk = keys[start : start + _SELECT_CHUNK]
            rows = self._connection.execute(
                "SELECT key, schema_version, protocol, fingerprint, payload FROM results "
                f"WHERE key IN ({','.join('?' * len(chunk))})",
                chunk,
            ).fetchall()
            for key, schema_version, protocol, fingerprint, payload in rows:
                stale = self._is_stale(schema_version, protocol, fingerprint)
                current[key] = None if stale else payload
        return current

    def _decode(self, payload: Optional[bytes]) -> Optional[SimulationResult]:
        if payload is None:
            return None
        try:
            with self.probe.span("blob_read"):
                return SimulationResult.from_payload(json.loads(zlib.decompress(payload)))
        except (zlib.error, ValueError, KeyError, TypeError):
            return None  # corrupt: the caller drops the row

    # ------------------------------------------------------------------- lookup
    def get_many(self, specs: Iterable["ScenarioSpec"]) -> List[Optional[SimulationResult]]:
        """The stored result for each spec, ``None`` on a miss.

        Stale entries — written under another schema version or before the
        protocol/engine code changed — and entries whose payload is corrupt
        are dropped and reported as misses.  A batch costs one SELECT, which
        reads the payloads too, then one transaction for all its
        bookkeeping: hit counters and drops.
        """
        keys = [self._key(spec) for spec in specs]
        current = self._select(keys)
        results = [self._decode(current.get(key)) for key in keys]
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
        """Whether ``get(spec)`` would hit (without decoding the payload)."""
        key = self._key(spec)
        return self._select([key]).get(key) is not None

    # ------------------------------------------------------------------ storage
    def put_many(self, pairs: Iterable[Tuple["ScenarioSpec", SimulationResult]]) -> List[str]:
        """Store each ``(spec, result)`` pair; returns the keys.

        Every payload is encoded first, then the batch's rows are inserted
        in one transaction — a batch killed in between leaves nothing.
        """
        pairs = list(pairs)
        for _spec, result in pairs:
            if not isinstance(result, SimulationResult):
                raise TypeError(f"expected a SimulationResult, got {type(result).__name__}")
        rows = []
        for spec, result in pairs:
            key = self._key(spec)
            with self.probe.span("blob_write"):
                payload = _encode(result)
            now = time.time()
            rows.append((
                key, spec.protocol, spec.resolved_backend(), STORE_SCHEMA_VERSION,
                code_fingerprint(spec.protocol), now, now, len(payload),
                json.dumps(spec.to_dict(), sort_keys=True), payload,
            ))
        if rows:
            with self._connection as connection:
                connection.executemany(
                    "INSERT OR REPLACE INTO results "
                    "(key, protocol, backend, schema_version, fingerprint, created, "
                    " last_used, hits, n_bytes, spec, payload) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, 0, ?, ?, ?)",
                    rows,
                )
        for _row in rows:
            self._tally("puts")
        return [row[0] for row in rows]

    def put(self, spec: "ScenarioSpec", result: SimulationResult) -> str:
        """Store ``result`` under ``spec``'s key; returns the key."""
        return self.put_many([(spec, result)])[0]

    # --------------------------------------------------------------- management
    def __len__(self) -> int:
        ((count,),) = self._connection.execute("SELECT COUNT(*) FROM results").fetchall()
        return int(count)

    def stats(self) -> Dict[str, Any]:
        """A summary of the store's contents (what ``cache stats`` prints)."""
        rows = self._connection.execute(
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
        """Drop stale entries (wrong schema/fingerprint) and, optionally,
        entries created more than ``older_than_days`` ago.

        Returns the number of entries removed.
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
        ]
        self._settle(drops=doomed)
        return len(doomed)

    def clear(self) -> int:
        """Remove every entry, and any version-1 cache beside the index;
        returns how many entries were dropped."""
        with self._connection as connection:
            count = connection.execute("DELETE FROM results").rowcount
        self._connection.execute("VACUUM")  # hand the payloads' pages back
        shutil.rmtree(os.path.join(self.root, "blobs"), ignore_errors=True)
        for name in ("index.db", "index.db-journal"):
            with contextlib.suppress(OSError):  # absent: no version-1 cache here
                os.remove(os.path.join(self.root, name))
        return int(count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({self.root!r}, {len(self)} entries)"

