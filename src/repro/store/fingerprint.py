"""Code fingerprints: hash the source a cached result depends on.

A content-addressed result is only safe to serve while the code that
produced it is unchanged.  :func:`code_fingerprint` condenses everything a
scenario's outcome can depend on into one stable hex digest, in two parts:

* a *shared* part — every module of the packages all runs flow through
  (the engines, the network layer, environments, failures, workloads,
  topology, sketches, mobility traces, backend dispatch); editing any of
  them invalidates every entry, because any result could depend on them;
* a *per-protocol* part — the protocol's defining module plus everything
  it (transitively) imports from the protocol packages ``repro.core`` and
  ``repro.baselines``.  Editing one protocol therefore invalidates the
  entries of that protocol (and of protocols built on top of it, e.g.
  ``invert-average`` composing ``push-sum-revert``), while entries for
  unrelated protocols stay warm.

:class:`~repro.store.store.ResultStore` records the fingerprint at
``put`` time and treats any mismatch at ``get`` time as a miss.  The
digest hashes file *contents*, not mtimes, so a fresh checkout of the
same code keeps its cache warm.
"""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import inspect
import os
import threading
from typing import Dict, Iterator, List, Optional, Set, Tuple

__all__ = ["code_fingerprint", "clear_fingerprint_cache"]

#: Packages every simulation result depends on, whichever protocol ran.
_SHARED_PACKAGES = (
    "repro.simulator",
    "repro.events",
    "repro.network",
    "repro.environments",
    "repro.failures",
    "repro.workloads",
    "repro.topology",
    "repro.sketches",
    "repro.mobility",
)

#: Single modules in the shared set (dispatch rules live outside a
#: simulation package but decide which engine runs).
_SHARED_MODULES = ("repro.api.backends",)

#: Packages protocols live in; intra-package imports are chased
#: transitively for the per-protocol part of the digest.
_PROTOCOL_PACKAGES = ("repro.core", "repro.baselines")

#: protocol name (or "" for the shared part) -> digest, memoised per
#: process (source files do not change under a running interpreter).
_CACHE: Dict[str, str] = {}
#: Serialises filling the memo: store handles in several threads would
#: otherwise run ``ast.parse`` concurrently, which can fail with a spurious
#: ``SystemError`` on CPython 3.11 (seen on 3.11.7).
_LOCK = threading.Lock()


def _module_path(module_name: str) -> Optional[str]:
    """The source file behind ``module_name`` (``None`` when not findable)."""
    try:
        spec = importlib.util.find_spec(module_name)
    except (ImportError, ValueError):
        return None
    if spec is None or spec.origin is None or not os.path.exists(spec.origin):
        return None
    return spec.origin


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _package_sources(package_name: str) -> Iterator[Tuple[str, str]]:
    """(module-ish name, path) for every ``.py`` file in the package, sorted."""
    init_path = _module_path(package_name)
    if init_path is None:
        return
    for filename in sorted(os.listdir(os.path.dirname(init_path))):
        if filename.endswith(".py"):
            yield f"{package_name}/{filename}", os.path.join(os.path.dirname(init_path), filename)


def _protocol_imports(source: bytes) -> Set[str]:
    """Absolute imports into the protocol packages found in ``source``."""
    found: Set[str] = set()
    try:
        tree = ast.parse(source)
    except SyntaxError:  # pragma: no cover - repo sources always parse
        return found
    prefixes = tuple(f"{package}." for package in _PROTOCOL_PACKAGES)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            # ``from repro.core import push_sum_revert`` names submodules in
            # the aliases; ``from repro.core.push_sum_revert import X`` names
            # the module itself.  Collect both candidates — non-modules are
            # filtered out when their source cannot be located.
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A package ``__init__`` names its modules in a lazy-export table
            # (:mod:`repro._lazy`) instead of importing them.
            names = [node.value]
        else:
            continue
        for name in names:
            if name in _PROTOCOL_PACKAGES or name.startswith(prefixes):
                found.add(name)
    return found


def _protocol_closure(module_name: str) -> List[Tuple[str, str]]:
    """The module plus its transitive protocol-package imports, sorted.

    Returns (module name, path) pairs.  Imports that resolve to the
    protocol *packages* themselves pull in the ``__init__`` module, whose
    export table is chased in turn — so ``from repro.core import X``
    reaches ``X``'s defining module through the package re-exports.
    """
    seen: Set[str] = set()
    queue = [module_name]
    resolved: List[Tuple[str, str]] = []
    while queue:
        name = queue.pop()
        if name in seen:
            continue
        seen.add(name)
        path = _module_path(name)
        if path is None:
            continue
        resolved.append((name, path))
        queue.extend(_protocol_imports(_read(path)) - seen)
    return sorted(resolved)


def _shared_digest_material() -> List[Tuple[str, str]]:
    material: List[Tuple[str, str]] = []
    for package in _SHARED_PACKAGES:
        material.extend(_package_sources(package))
    for module in _SHARED_MODULES:
        path = _module_path(module)
        if path is not None:
            material.append((module, path))
    return material


def code_fingerprint(protocol: Optional[str] = None) -> str:
    """A stable digest of the code ``protocol``'s results depend on.

    With ``protocol=None`` the digest covers the shared simulation code
    only (useful for store-wide diagnostics); with a registered protocol
    name it additionally covers the protocol's defining module and its
    transitive imports inside the protocol packages.  Unregistered names
    raise :class:`~repro.api.registry.UnknownKeyError` (a ``KeyError``)
    — the store treats entries it cannot fingerprint as stale.
    """
    cache_key = protocol or ""
    cached = _CACHE.get(cache_key)
    if cached is None:
        with _LOCK:
            cached = _CACHE[cache_key] = _digest(protocol)
    return cached


def _digest(protocol: Optional[str]) -> str:
    digest = hashlib.sha256()
    material = list(_shared_digest_material())
    if protocol is not None:
        from repro.api.registry import PROTOCOLS

        factory = PROTOCOLS.get(protocol)  # raises UnknownKeyError when unknown
        module = inspect.getmodule(factory)
        digest.update(protocol.encode())
        if module is not None:
            material.extend(_protocol_closure(module.__name__))
    for name, path in material:
        digest.update(name.encode())
        digest.update(b"\x00")
        digest.update(_read(path))
    return digest.hexdigest()


def clear_fingerprint_cache() -> None:
    """Drop the per-process memo (tests that monkeypatch sources use this)."""
    _CACHE.clear()
