"""Content-addressed experiment results (``repro.store``).

Every :class:`~repro.api.spec.ScenarioSpec` has a stable canonical hash
(:meth:`~repro.api.spec.ScenarioSpec.key`); :class:`ResultStore` maps that
hash to the full simulation result on disk (one sqlite file whose rows
carry the compressed JSON payloads) so identical scenarios are never
computed twice:

>>> from repro.api import ScenarioSpec, run_scenario
>>> from repro.store import ResultStore
>>> store = ResultStore(".repro-cache")          # doctest: +SKIP
>>> spec = ScenarioSpec(protocol="push-sum-revert", n_hosts=200, rounds=20)
>>> cold = run_scenario(spec, store=store)       # doctest: +SKIP  (executes)
>>> warm = run_scenario(spec, store=store)       # doctest: +SKIP  (cache hit)

Invalidation is versioned twice over: a store schema version
(:data:`STORE_SCHEMA_VERSION`) guards the payload layout, and a
per-protocol code fingerprint (:func:`code_fingerprint`) guards the
simulation code itself — editing a protocol or the engine turns exactly
the affected entries into misses.  :class:`~repro.api.sweep.SweepRunner`
builds incremental, resumable grid execution on top (see DESIGN.md §9).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.store.fingerprint": ("clear_fingerprint_cache", "code_fingerprint"),
    "repro.store.store": ("DEFAULT_CACHE_DIR", "STORE_SCHEMA_VERSION", "ResultStore"),
})

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ResultStore",
    "STORE_SCHEMA_VERSION",
    "clear_fingerprint_cache",
    "code_fingerprint",
]
