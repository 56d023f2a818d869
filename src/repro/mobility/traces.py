"""Contact-trace data model.

A *contact trace* records, for a fixed set of devices, the time intervals
during which pairs of devices were within wireless range of each other.
This is exactly the information the CRAWDAD Cambridge/Haggle datasets
contain and exactly what the trace-driven gossip environment needs: at any
simulated instant it can ask "who can device *i* currently talk to?", and
over a sliding window it can ask for the union adjacency that defines the
paper's "nearby group".
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.topology.connectivity import connected_components

__all__ = ["ContactRecord", "ContactTrace"]

Adjacency = Dict[int, Set[int]]


@dataclass(frozen=True)
class ContactRecord:
    """One contact interval: devices ``a`` and ``b`` in range during [start, end).

    Times are seconds from the start of the trace.  Records are normalised so
    that ``a < b`` and ``start < end``.
    """

    a: int
    b: int
    start: float
    end: float

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("a contact requires two distinct devices")
        if self.end <= self.start:
            raise ValueError(
                f"contact interval must have positive length, got [{self.start}, {self.end})"
            )
        if self.a > self.b:
            original_a, original_b = self.a, self.b
            object.__setattr__(self, "a", original_b)
            object.__setattr__(self, "b", original_a)

    @property
    def duration(self) -> float:
        """Length of the contact in seconds."""
        return self.end - self.start


class ContactTrace:
    """A set of devices plus the contact intervals between them.

    Parameters
    ----------
    n_devices:
        Number of devices; device identifiers are ``0..n_devices-1``.
    records:
        Contact intervals.  They may overlap and need not be sorted.
    name:
        Optional label (e.g. ``"synthetic-haggle-1"``) used in reports.

    Notes
    -----
    Queries are served from a per-pair sorted interval index, so
    ``adjacency_at`` and ``adjacency_between`` are O(active pairs · log
    intervals) rather than O(all records).
    """

    def __init__(self, n_devices: int, records: Iterable[ContactRecord], name: str = "trace"):
        if n_devices < 0:
            raise ValueError("n_devices must be non-negative")
        self.n_devices = int(n_devices)
        self.name = name
        raw_records = sorted(records, key=lambda r: (r.start, r.end))
        for record in raw_records:
            if not (0 <= record.a < n_devices and 0 <= record.b < n_devices):
                raise ValueError(
                    f"contact {record} references a device outside 0..{n_devices - 1}"
                )
        # Normalise: merge overlapping or touching intervals per pair, so that
        # per-pair interval lists are disjoint and sorted.  This makes point
        # and window queries exact with a single early-terminating scan.
        grouped: Dict[Tuple[int, int], List[ContactRecord]] = {}
        for record in raw_records:
            grouped.setdefault((record.a, record.b), []).append(record)
        self._by_pair: Dict[Tuple[int, int], List[ContactRecord]] = {}
        merged_records: List[ContactRecord] = []
        for pair, pair_records in grouped.items():
            merged: List[ContactRecord] = []
            for record in pair_records:
                if merged and record.start <= merged[-1].end:
                    previous = merged[-1]
                    if record.end > previous.end:
                        merged[-1] = ContactRecord(pair[0], pair[1], previous.start, record.end)
                else:
                    merged.append(record)
            self._by_pair[pair] = merged
            merged_records.extend(merged)
        self.records: List[ContactRecord] = sorted(merged_records, key=lambda r: (r.start, r.end))
        self._pair_starts: Dict[Tuple[int, int], List[float]] = {
            pair: [record.start for record in pair_records]
            for pair, pair_records in self._by_pair.items()
        }

    # ------------------------------------------------------------ properties
    @property
    def duration(self) -> float:
        """Trace length in seconds (end of the last contact; 0 when empty)."""
        if not self.records:
            return 0.0
        return max(record.end for record in self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ContactTrace(name={self.name!r}, devices={self.n_devices}, "
            f"contacts={len(self.records)}, duration={self.duration:.0f}s)"
        )

    # ----------------------------------------------------------- core queries
    def _pair_active(self, pair: Tuple[int, int], time: float) -> bool:
        starts = self._pair_starts[pair]
        index = bisect_right(starts, time) - 1
        if index < 0:
            return False
        # Per-pair intervals are disjoint after normalisation, so only the
        # interval starting at or before `time` with the latest start can
        # cover it.
        record = self._by_pair[pair][index]
        return record.end > time

    def _pair_overlaps(self, pair: Tuple[int, int], start: float, end: float) -> bool:
        starts = self._pair_starts[pair]
        index = bisect_right(starts, end) - 1
        # Intervals are disjoint and sorted: any interval overlapping
        # [start, end) must begin before `end`, and among those only the ones
        # ending after `start` qualify.  Scan backwards with early exit.
        pair_records = self._by_pair[pair]
        while index >= 0:
            record = pair_records[index]
            if record.end > start:
                if record.start < end:
                    return True
                index -= 1
                continue
            # Disjointness: every earlier interval ends even sooner.
            return False
        return False

    def adjacency_at(self, time: float) -> Adjacency:
        """The instantaneous who-can-talk-to-whom graph at ``time``."""
        graph: Adjacency = {device: set() for device in range(self.n_devices)}
        for pair in self._by_pair:
            if self._pair_active(pair, time):
                a, b = pair
                graph[a].add(b)
                graph[b].add(a)
        return graph

    def adjacency_between(self, start: float, end: float) -> Adjacency:
        """The union of all edges active at any point in [start, end).

        This implements the paper's "union of all edges that have existed in
        the last 10 minutes" when called with ``(t - 600, t)``.
        """
        graph: Adjacency = {device: set() for device in range(self.n_devices)}
        for pair in self._by_pair:
            if self._pair_overlaps(pair, start, end):
                a, b = pair
                graph[a].add(b)
                graph[b].add(a)
        return graph

    def groups_at(self, time: float, window: float = 600.0) -> List[Set[int]]:
        """The paper's "nearby groups": components of the last-``window`` union."""
        graph = self.adjacency_between(max(0.0, time - window), time) if window > 0 else self.adjacency_at(time)
        return connected_components(graph)

    def snapshots(self, step: float, window: float = 0.0) -> Iterable[Tuple[float, Adjacency]]:
        """Yield ``(time, adjacency)`` every ``step`` seconds over the trace.

        With ``window > 0`` the adjacency is the trailing-window union rather
        than the instantaneous graph.
        """
        if step <= 0:
            raise ValueError("step must be positive")
        time = 0.0
        end = self.duration
        while time <= end:
            if window > 0:
                yield time, self.adjacency_between(max(0.0, time - window), time + 1e-9)
            else:
                yield time, self.adjacency_at(time)
            time += step

    # ------------------------------------------------------------------- I/O
    def to_csv(self, path: str) -> None:
        """Write the trace as ``device_a,device_b,start,end`` rows."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["device_a", "device_b", "start", "end"])
            for record in self.records:
                writer.writerow([record.a, record.b, f"{record.start:.3f}", f"{record.end:.3f}"])

    @classmethod
    def from_csv(cls, path: str, n_devices: Optional[int] = None, name: Optional[str] = None) -> "ContactTrace":
        """Read a trace written by :meth:`to_csv` (or a CRAWDAD-style export)."""
        records: List[ContactRecord] = []
        max_device = -1
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header and header[0].strip().lower() not in ("device_a", "a"):
                # No header row: treat the first row as data.
                rows = [header] + list(reader)
            else:
                rows = list(reader)
            for row in rows:
                if not row or row[0].startswith("#"):
                    continue
                a, b = int(row[0]), int(row[1])
                start, end = float(row[2]), float(row[3])
                records.append(ContactRecord(a, b, start, end))
                max_device = max(max_device, a, b)
        count = n_devices if n_devices is not None else max_device + 1
        return cls(count, records, name=name or path)
