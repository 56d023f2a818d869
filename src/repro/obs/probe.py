"""The probe protocol: what instrumented code calls, and the null default.

Every execution layer (engines, kernels, backends, sweeps, the result
store) takes a :class:`Probe` and reports into it through four verbs:

``span(name, **attrs)``
    a wall-clock phase, used as a context manager —
    ``with probe.span("matching"): ...``;
``event(name, **fields)``
    a point-in-time structured record (a membership change, a mass-check
    result, a store hit);
``count(name, value)``
    increment a monotonic counter (messages delivered, events processed);
``gauge(name, value)``
    set a level (calendar depth, live-host count).

The default everywhere is :data:`NULL_PROBE`, whose methods do nothing
and whose ``enabled`` flag is ``False`` so hot loops can skip even the
call: ``if probe.enabled: probe.count(...)``.  Probes only *observe* —
they never touch an RNG stream or mutate simulation state — so a run
with any probe attached is bit-identical to a run with none.
"""

from __future__ import annotations

import time
from typing import Any, Tuple

__all__ = ["Probe", "NullProbe", "NULL_PROBE"]


class _Span:
    """A timed phase; re-entrant-safe because each ``span()`` call makes one."""

    __slots__ = ("_probe", "name", "attrs", "started")

    def __init__(self, probe: "Probe", name: str, attrs: Tuple[Tuple[str, Any], ...]):
        self._probe = probe
        self.name = name
        self.attrs = attrs
        self.started = 0.0

    def __enter__(self) -> "_Span":
        self.started = time.perf_counter()
        self._probe._span_started(self)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._probe._span_finished(self, time.perf_counter() - self.started)


class _NullSpan:
    """A single shared no-op context manager (no per-call allocation)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Probe:
    """Base class for real probes; subclasses override the ``_on_*`` hooks.

    ``enabled`` is ``True`` for every real probe — hot paths use it to
    skip per-item accounting entirely under the null default.
    """

    enabled: bool = True

    # -------------------------------------------------------------- verbs
    def span(self, name: str, **attrs: Any) -> Any:
        """A wall-clock phase: ``with probe.span("matching"): ...``."""
        return _Span(self, name, tuple(sorted(attrs.items())))

    def event(self, name: str, **fields: Any) -> None:
        """A point-in-time structured record."""
        self._on_event(name, fields)

    def count(self, name: str, value: float = 1) -> None:
        """Increment the monotonic counter ``name`` by ``value``."""
        self._on_count(name, value)

    def gauge(self, name: str, value: float) -> None:
        """Set the level ``name`` to ``value``."""
        self._on_gauge(name, value)

    # ----------------------------------------------------- subclass hooks
    def _on_event(self, name: str, fields: dict) -> None:  # pragma: no cover
        pass

    def _on_span(self, name: str, seconds: float, attrs: Tuple) -> None:  # pragma: no cover
        pass

    def _span_started(self, span: _Span) -> None:
        pass

    def _span_finished(self, span: _Span, seconds: float) -> None:
        self._on_span(span.name, seconds, span.attrs)

    def _on_count(self, name: str, value: float) -> None:  # pragma: no cover
        pass

    def _on_gauge(self, name: str, value: float) -> None:  # pragma: no cover
        pass

    # ------------------------------------------------------------- finish
    def close(self) -> None:
        """Flush/finalise; a no-op unless a subclass buffers."""


class NullProbe(Probe):
    """The zero-cost default: every verb is a no-op, ``enabled`` is False."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> Any:
        return _NULL_SPAN

    def event(self, name: str, **fields: Any) -> None:
        return None

    def count(self, name: str, value: float = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None


#: The shared do-nothing probe every layer defaults to.
NULL_PROBE = NullProbe()
