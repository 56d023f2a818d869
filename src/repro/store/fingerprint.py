"""Code fingerprints: hash the source a cached result depends on.

A content-addressed result is only safe to serve while the code that
produced it is unchanged.  :func:`code_fingerprint` follows one rule: it
hashes every ``.py`` file of the ``repro`` package (its path inside the
package and its contents), the protocol's name and, for a protocol
registered from a module outside the package, that module's source.
Editing any file of the package therefore invalidates every entry.  That
over-invalidates — an edit to the CLI costs a recomputation — but a
module left out of the digest would let the store serve results of older
code, and no list of "the modules a result depends on" stays right as
the code moves.

:class:`~repro.store.store.ResultStore` records the fingerprint at
``put`` time and treats any mismatch at ``get`` time as a miss.  The
digest hashes file *contents*, not mtimes or absolute paths, so a fresh
checkout of the same code keeps its cache warm.
"""

from __future__ import annotations

import hashlib
import inspect
import os
from typing import Dict, List, Optional, Tuple

__all__ = ["code_fingerprint", "clear_fingerprint_cache"]

#: The ``repro`` package directory (this file is ``repro/store/fingerprint.py``).
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))

#: protocol name (or "" for the package alone) -> digest, memoised per
#: process (source files do not change under a running interpreter).
_CACHE: Dict[str, str] = {}


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _package_sources() -> List[Tuple[str, str]]:
    """(path inside the package, path) for every ``.py`` file of ``repro``, sorted."""
    sources = []
    for directory, _subdirectories, filenames in os.walk(_PACKAGE_DIR):
        for filename in filenames:
            if filename.endswith(".py"):
                path = os.path.join(directory, filename)
                relative = os.path.relpath(path, os.path.dirname(_PACKAGE_DIR))
                sources.append((relative.replace(os.sep, "/"), path))
    return sorted(sources)


def _external_source(protocol: str) -> List[Tuple[str, str]]:
    """``[(module name, path)]`` of ``protocol``'s defining module when that lies
    outside the package; empty for a built-in or a module without a source file."""
    from repro.api.registry import PROTOCOLS

    factory = PROTOCOLS.get(protocol)  # raises UnknownKeyError when unknown
    module = inspect.getmodule(factory)
    path = getattr(module, "__file__", None)
    if path is None or not os.path.exists(path):
        return []
    path = os.path.realpath(path)
    if path.startswith(_PACKAGE_DIR + os.sep):
        return []
    return [(module.__name__, path)]


def code_fingerprint(protocol: Optional[str] = None) -> str:
    """A stable digest of the code ``protocol``'s results depend on.

    With ``protocol=None`` the digest covers the ``repro`` package alone
    (useful for store-wide diagnostics); a registered protocol name adds
    the name and, for a protocol defined outside the package, its defining
    module.  Unregistered names raise
    :class:`~repro.api.registry.UnknownKeyError` (a ``KeyError``) — the
    store treats entries it cannot fingerprint as stale.
    """
    cache_key = protocol or ""
    cached = _CACHE.get(cache_key)
    if cached is None:
        cached = _CACHE[cache_key] = _digest(protocol)
    return cached


def _digest(protocol: Optional[str]) -> str:
    if not protocol:
        digest, material = hashlib.sha256(), _package_sources()
    else:
        # The package digest (memoised: a sweep reads the package once), then the name.
        digest = hashlib.sha256(f"{code_fingerprint()}\x00{protocol}".encode())
        material = _external_source(protocol)
    for name, path in material:
        data = _read(path)
        digest.update(f"\x00{name}\x00{len(data)}\x00".encode())
        digest.update(data)
    return digest.hexdigest()


def clear_fingerprint_cache() -> None:
    """Drop the per-process memo (tests that monkeypatch sources use this)."""
    _CACHE.clear()
