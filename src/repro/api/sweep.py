"""Scenario grids: declarative sweeps and a serial/parallel runner.

The paper's evaluation is a grid — {protocol × environment × failure ×
population × seed} — and :class:`Sweep` writes that grid down directly:

>>> from repro.api import ScenarioSpec, Sweep, SweepRunner
>>> base = ScenarioSpec(protocol="push-sum-revert", n_hosts=120, rounds=10)
>>> sweep = Sweep.over(base, **{
...     "protocol_params.reversion": [0.0, 0.1],
...     "seed": range(3),
... })
>>> len(sweep.specs())
6
>>> result = SweepRunner(parallel=False).run(sweep)
>>> len(result.rows)
6

Axis keys are :class:`~repro.api.spec.ScenarioSpec` field names
(``protocol``, ``n_hosts``, ``seed``, …) or dotted paths into the
parameter dicts (``protocol_params.reversion``,
``environment_params.dataset``).  Expansion is a deterministic cross
product in axis-declaration order, so run *k* of a sweep is the same
scenario on every machine.

:class:`SweepRunner` executes the expanded grid serially or across
processes (``concurrent.futures.ProcessPoolExecutor``).  Specs are shipped
to workers as plain dicts (see :meth:`ScenarioSpec.to_dict`), rows are
reassembled into grid order by cell index regardless of completion order,
and every scenario carries its own seed — so parallel and serial execution
produce identical :class:`SweepResult` tables that diff cleanly in CI.

With a :class:`repro.store.ResultStore` the runner is *incremental*: the
grid is partitioned into cached hits and pending cells (one ``get_many``),
only the pending cells execute, and every completed cell — on the pool path
every finished batch — is committed immediately by the parent process (a
single writer, even when a pool computes the results).  That
write-as-completed discipline is what makes sweeps resumable — a sweep
killed after N cells re-runs as N hits plus the remainder.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.render import render_table
from repro.api.spec import ScenarioSpec, run_scenario
from repro.obs.probe import NULL_PROBE, Probe
from repro.simulator.result import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import ResultStore

__all__ = ["Sweep", "SweepRunner", "SweepResult"]

#: Summary statistics reported for every run in a sweep table.
METRIC_COLUMNS = ("final_error", "plateau_error", "final_truth", "mean_estimate", "n_alive")


_PARAM_CONTAINERS = (
    "protocol_params",
    "environment_params",
    "workload_params",
    "network_params",
)
_SPEC_FIELDS = frozenset(spec_field.name for spec_field in dataclasses.fields(ScenarioSpec))


def _validate_axis_name(axis: str) -> None:
    """Reject unknown axis names eagerly (at :meth:`Sweep.over`, not expansion)."""
    if "." in axis:
        container, key = axis.split(".", 1)
        if "." in key:
            raise ValueError(f"axis {axis!r} nests too deep; one dot maximum")
        if container not in _PARAM_CONTAINERS:
            raise ValueError(
                f"axis {axis!r} must dot into one of {', '.join(_PARAM_CONTAINERS)}"
            )
    elif axis not in _SPEC_FIELDS:
        raise ValueError(
            f"unknown axis {axis!r}; expected a ScenarioSpec field "
            f"({', '.join(sorted(_SPEC_FIELDS))}) or a dotted parameter path "
            "like 'protocol_params.reversion'"
        )


def _set_axis(spec_kwargs: Dict[str, Any], axis: str, value: Any) -> None:
    """Apply one axis assignment to a spec's keyword dict (dotted paths ok)."""
    if "." in axis:
        container, key = axis.split(".", 1)
        params = dict(spec_kwargs.get(container) or {})
        params[key] = value
        spec_kwargs[container] = params
    else:
        spec_kwargs[axis] = value


@dataclass(frozen=True)
class Sweep:
    """A base scenario crossed with one or more named axes."""

    base: ScenarioSpec
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()

    @classmethod
    def over(cls, base: Optional[ScenarioSpec] = None, **axes: Iterable) -> "Sweep":
        """Build a sweep over the cross product of ``axes``.

        ``base`` supplies every field the axes don't touch; it defaults to
        a plain Push-Sum-Revert scenario.  Axis values may be any iterable
        (lists, tuples, ``range``); they are materialised eagerly so the
        sweep is reusable.
        """
        if base is None:
            base = ScenarioSpec(protocol="push-sum-revert")
        if not axes:
            raise ValueError("a sweep needs at least one axis")
        materialised = tuple((name, tuple(values)) for name, values in axes.items())
        for name, values in materialised:
            _validate_axis_name(name)
            if not values:
                raise ValueError(f"axis {name!r} has no values")
        return cls(base=base, axes=materialised)

    # ---------------------------------------------------------------- expansion
    def axis_names(self) -> List[str]:
        """The axis names in declaration order."""
        return [name for name, _values in self.axes]

    def points(self) -> List[Tuple[Dict[str, Any], ScenarioSpec]]:
        """The expanded grid as (axis assignment, spec) pairs, in grid order."""
        names = self.axis_names()
        value_lists = [values for _name, values in self.axes]
        expanded: List[Tuple[Dict[str, Any], ScenarioSpec]] = []
        base_kwargs = self.base.to_dict()
        for combination in itertools.product(*value_lists):
            assignment = dict(zip(names, combination))
            spec_kwargs = {key: value for key, value in base_kwargs.items()}
            for axis, value in assignment.items():
                _set_axis(spec_kwargs, axis, value)
            spec_kwargs["events"] = tuple(spec_kwargs.get("events") or ())
            label = ", ".join(f"{axis}={value}" for axis, value in assignment.items())
            spec_kwargs["name"] = label if not self.base.name else f"{self.base.name}: {label}"
            expanded.append((assignment, ScenarioSpec(**spec_kwargs)))
        return expanded

    def specs(self) -> List[ScenarioSpec]:
        """Just the expanded specs, in grid order."""
        return [spec for _assignment, spec in self.points()]

    def __len__(self) -> int:
        size = 1
        for _name, values in self.axes:
            size *= len(values)
        return size

    # ------------------------------------------------------------ serialisation
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-friendly representation (``{"base": ..., "axes": ...}``)."""
        return {
            "base": self.base.to_dict(),
            "axes": {name: list(values) for name, values in self.axes},
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Sweep":
        """Rebuild a sweep from :meth:`to_dict` output (or a hand-written dict)."""
        if not isinstance(payload, Mapping) or "base" not in payload or "axes" not in payload:
            raise ValueError("sweep dicts need 'base' (a scenario) and 'axes' (name -> values)")
        base = ScenarioSpec.from_dict(payload["base"])
        axes = payload["axes"]
        if not isinstance(axes, Mapping) or not axes:
            raise ValueError("'axes' must be a non-empty mapping of axis name -> values")
        return cls.over(base, **{name: list(values) for name, values in axes.items()})

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Sweep":
        return cls.from_dict(json.loads(text))


def _execute_spec_payload(payload: Dict[str, Any]) -> SimulationResult:
    """Process-pool worker: rebuild the spec from its dict and run it."""
    return run_scenario(ScenarioSpec.from_dict(payload))


def _execute_payload_batch(payloads: Sequence[Dict[str, Any]]) -> List[SimulationResult]:
    """Process-pool worker: run a chunk of specs in one task.

    Workers never touch the result store — they only compute.  Results
    travel back to the parent, which is the sweep's single writer.
    """
    return [_execute_spec_payload(payload) for payload in payloads]


def _summarise(assignment: Dict[str, Any], spec: ScenarioSpec, result: SimulationResult) -> Dict[str, Any]:
    """One tidy row: the axis assignment plus the run's summary metrics."""
    final = result.final_record()
    row: Dict[str, Any] = dict(assignment)
    row.update(
        {
            "scenario": spec.label(),
            "final_error": final.stddev_error,
            "plateau_error": result.plateau_error(),
            "final_truth": final.truth,
            "mean_estimate": final.mean_estimate,
            "n_alive": final.n_alive,
        }
    )
    return row


@dataclass
class SweepResult:
    """The outcome of one executed sweep: tidy rows plus the full results.

    ``rows`` is a list of flat dicts (axis values + summary metrics) ready
    for :mod:`repro.analysis`; ``results`` holds the complete
    :class:`~repro.simulator.SimulationResult` trajectories in the same
    (grid) order.  ``cached`` records, per cell, whether the result came
    out of a :class:`repro.store.ResultStore` instead of being executed —
    deliberately *not* part of ``rows`` or :meth:`render`, so a warm re-run
    of a sweep is bit-identical to the cold run that populated the store.
    """

    axis_names: List[str]
    specs: List[ScenarioSpec] = field(default_factory=list)
    results: List[SimulationResult] = field(default_factory=list)
    rows: List[Dict[str, Any]] = field(default_factory=list)
    parallel: bool = False
    cached: List[bool] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def cache_hits(self) -> int:
        """How many cells were served from the result store."""
        return sum(1 for hit in self.cached if hit)

    def executed(self) -> int:
        """How many cells actually ran a simulation."""
        return len(self.cached) - self.cache_hits() if self.cached else len(self.rows)

    def column(self, name: str) -> List[Any]:
        """One column across every row (axis value or metric)."""
        return [row[name] for row in self.rows]

    def best(self, metric: str = "final_error") -> Dict[str, Any]:
        """The row minimising ``metric``."""
        if not self.rows:
            raise ValueError("sweep produced no rows")
        return dict(min(self.rows, key=lambda row: row[metric]))

    def render(self, *, metrics: Sequence[str] = METRIC_COLUMNS) -> str:
        """The sweep as an aligned text table, one row per scenario."""
        header = [*self.axis_names, *metrics]
        body = [[row.get(column, "") for column in header] for row in self.rows]
        mode = "parallel" if self.parallel else "serial"
        title = f"Sweep over {{{' x '.join(self.axis_names) or 'nothing'}}} — {len(self.rows)} runs ({mode})\n"
        return title + render_table(header, body)


@dataclass
class SweepRunner:
    """Execute a :class:`Sweep` (or an explicit spec list) into a :class:`SweepResult`.

    Parameters
    ----------
    parallel:
        Run scenarios across processes with
        ``concurrent.futures.ProcessPoolExecutor``.  Every scenario seeds
        all of its own randomness from the spec, so parallel and serial
        execution return identical results, in identical (grid) order.
    max_workers:
        Process count (default: ``os.cpu_count()``, capped at the grid size).
    chunksize:
        Scenarios shipped to a worker per task; raise it for large grids of
        short runs to amortise the pickling round-trips.
    store:
        An optional :class:`repro.store.ResultStore`.  The grid is then
        partitioned into cached hits and pending cells with one batched
        lookup; only pending cells execute, and each completed cell (serial)
        or finished batch of ``chunksize`` cells (parallel) is committed
        immediately by this (parent) process — the pool workers never open
        the store — so an interrupted sweep resumes from what it finished.
    refresh:
        Re-execute every cell even on a hit (results are still written
        back); use to overwrite suspect store entries.
    progress:
        Print one line per completed cell to stderr — cell index,
        ``cached``/``executed``, and wall time — so long sweeps show a
        live heartbeat.  Parallel cells report their batch's mean wall
        time (individual timings stay in the workers) and cached cells
        the mean time of the one batched store lookup that served them.
    probe:
        An optional :class:`repro.obs.Probe`.  On the serial path it is
        threaded into every :func:`run_scenario` call (full phase spans);
        on the parallel path workers run unprobed and the parent records
        per-cell completion events and timings only.
    """

    parallel: bool = False
    max_workers: Optional[int] = None
    chunksize: int = 1
    store: Optional["ResultStore"] = None
    refresh: bool = False
    progress: bool = False
    probe: Optional[Probe] = None

    def __post_init__(self):
        if self.chunksize < 1:
            raise ValueError("chunksize must be >= 1")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.probe is None:
            self.probe = NULL_PROBE

    def _cell_done(
        self, index: int, total: int, spec: ScenarioSpec, status: str, seconds: float
    ) -> None:
        """One completed cell: optional stderr heartbeat plus probe record."""
        if self.progress:
            print(
                f"[sweep {index + 1}/{total}] {status} {spec.label()} in {seconds:.3f}s",
                file=sys.stderr,
                flush=True,
            )
        if self.probe.enabled:
            self.probe.event("cell", index=index, status=status, seconds=seconds)
            self.probe.count(f"sweep.{status}")

    def run(self, sweep: Union[Sweep, Sequence[ScenarioSpec]]) -> SweepResult:
        """Execute every scenario in ``sweep`` and return the collected result."""
        if isinstance(sweep, Sweep):
            points = sweep.points()
            axis_names = sweep.axis_names()
        else:
            specs = list(sweep)
            for spec in specs:
                if not isinstance(spec, ScenarioSpec):
                    raise TypeError(f"expected ScenarioSpec items, got {type(spec).__name__}")
            points = [({"scenario": spec.label()}, spec) for spec in specs]
            axis_names = []
        specs = [spec for _assignment, spec in points]

        # ---------------------------------------------- store partitioning
        results: List[Optional[SimulationResult]] = [None] * len(specs)
        cached = [False] * len(specs)
        total = len(specs)
        if self.store is not None and not self.refresh:
            started = time.perf_counter()
            results = self.store.get_many(specs)
            lookup_seconds = (time.perf_counter() - started) / max(total, 1)
            for index, hit in enumerate(results):
                if hit is not None:
                    cached[index] = True
                    self._cell_done(index, total, specs[index], "cached", lookup_seconds)
        pending = [index for index, result in enumerate(results) if result is None]

        # -------------------------------------------------------- execution
        # The reported mode follows the runner's configuration, not the
        # pending count, so a fully-cached re-run renders the same table
        # header as the cold run that populated the store.
        ran_parallel = self.parallel and len(specs) > 1
        if self.parallel and len(pending) > 1:
            # Only this path needs the pool (and, through it, multiprocessing).
            from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

            workers = min(self.max_workers or (os.cpu_count() or 1), len(pending))
            batches = [
                pending[start : start + self.chunksize]
                for start in range(0, len(pending), self.chunksize)
            ]
            with ProcessPoolExecutor(max_workers=workers) as executor:
                submitted = time.perf_counter()
                future_to_batch = {
                    executor.submit(
                        _execute_payload_batch, [specs[index].to_dict() for index in batch]
                    ): batch
                    for batch in batches
                }
                # Harvest as batches complete (not in submission order) so
                # every finished batch is committed to the store before the
                # next wait — the property that makes a killed sweep resumable.
                outstanding = set(future_to_batch)
                while outstanding:
                    done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                    for future in done:
                        batch = future_to_batch[future]
                        batch_seconds = (time.perf_counter() - submitted) / max(len(batch), 1)
                        batch_results = future.result()
                        if self.store is not None:
                            self.store.put_many(
                                (specs[index], result)
                                for index, result in zip(batch, batch_results)
                            )
                        for index, result in zip(batch, batch_results):
                            results[index] = result
                            self._cell_done(index, total, specs[index], "executed", batch_seconds)
        else:
            for index in pending:
                started = time.perf_counter()
                result = run_scenario(specs[index], probe=self.probe)
                if self.store is not None:
                    self.store.put(specs[index], result)
                results[index] = result
                self._cell_done(index, total, specs[index], "executed", time.perf_counter() - started)

        # Rows are assembled from the index-addressed slots, so they are in
        # grid order by construction — regardless of worker count, batch
        # completion order, or which cells came from the store.
        rows = [
            _summarise(assignment, spec, result)
            for (assignment, spec), result in zip(points, results)
        ]
        return SweepResult(
            axis_names=axis_names or ["scenario"],
            specs=specs,
            results=results,
            rows=rows,
            parallel=ran_parallel,
            cached=cached,
        )
