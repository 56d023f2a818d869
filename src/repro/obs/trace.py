"""Structured JSONL tracing.

:class:`TraceRecorder` turns a run's probe stream into a flat list of
dict records — one per span, event, counter increment, or gauge sample —
and writes them as JSON Lines when closed (or on demand), replacing
whatever the file held before.  Records are buffered in memory so the
per-call cost in a hot loop is a dict append, not a file write; a
50-round smoke run produces a few thousand records, well under a
megabyte.

Record schema (every record carries ``kind`` and ``t``, seconds since
the recorder was created):

``{"kind": "span", "name": ..., "seconds": ..., "depth": ..., "parent": ..., ...attrs}``
    a finished phase, with its nesting depth and enclosing span name;
``{"kind": "event", "name": ..., ...fields}``
    a point-in-time record (membership change, mass check, store hit);
``{"kind": "count", "name": ..., "value": ...}``
    a counter increment;
``{"kind": "gauge", "name": ..., "value": ...}``
    a level sample.

:func:`read_trace` loads a JSONL file back into the same list of dicts,
which is what ``repro-aggregate obs report`` consumes.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional

from repro.obs.probe import Probe

__all__ = ["TraceRecorder", "read_trace"]


class TraceRecorder(Probe):
    """Buffer every probe verb as a structured record; flush to JSONL.

    ``path`` names the output file written by :meth:`close` (and by
    :meth:`flush`).  The recorder empties it on construction, so a path
    that cannot be written raises :class:`OSError` before anything is
    recorded, and the file never holds a previous recorder's records.
    Without a path the recorder is purely in-memory — useful in tests and
    for programmatic inspection via ``records``.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        if path is not None:
            open(path, "w", encoding="utf-8").close()
        self.records: List[Dict[str, Any]] = []
        self._stack: List[str] = []
        self._epoch = time.perf_counter()
        self._flushed = 0

    # -------------------------------------------------------------- hooks
    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def _span_started(self, span: Any) -> None:
        self._stack.append(span.name)

    def _span_finished(self, span: Any, seconds: float) -> None:
        # The span being closed is the top of the stack; everything under
        # it is its ancestry.  Pop first so `depth` counts enclosing spans.
        if self._stack and self._stack[-1] == span.name:
            self._stack.pop()
        record: Dict[str, Any] = {
            "kind": "span",
            "t": self._now(),
            "name": span.name,
            "seconds": seconds,
            "depth": len(self._stack),
            "parent": self._stack[-1] if self._stack else None,
        }
        for key, value in span.attrs:
            record[key] = value
        self.records.append(record)

    def _on_event(self, name: str, fields: dict) -> None:
        record: Dict[str, Any] = {"kind": "event", "t": self._now(), "name": name}
        record.update(fields)
        self.records.append(record)

    def _on_count(self, name: str, value: float) -> None:
        self.records.append(
            {"kind": "count", "t": self._now(), "name": name, "value": value}
        )

    def _on_gauge(self, name: str, value: float) -> None:
        self.records.append(
            {"kind": "gauge", "t": self._now(), "name": name, "value": value}
        )

    # ------------------------------------------------------------- output
    def flush(self) -> None:
        """Append any unwritten records to ``path`` (no-op when in-memory)."""
        if self.path is None or self._flushed >= len(self.records):
            return
        with open(self.path, "a", encoding="utf-8") as handle:
            for record in self.records[self._flushed:]:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._flushed = len(self.records)

    def close(self) -> None:
        self.flush()

    def __len__(self) -> int:
        return len(self.records)


def read_trace(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL trace written by :class:`TraceRecorder`."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
