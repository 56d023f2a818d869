"""Lazy package exports: a package ``__init__`` names its exports, it does not import them.

Every package of :mod:`repro` hands :func:`lazy_exports` a table of its
defining modules and the names each one exports, and installs the PEP 562
``__getattr__`` / ``__dir__`` pair it returns.  The first lookup of a name
imports that name's module — and only that module, plus what the module itself
imports — then binds the name on the package, so later lookups are plain
attribute reads.  ``from repro.core import PushSumRevert`` therefore loads
``repro.core.push_sum_revert`` and leaves the package's other modules
unexecuted; a run loads the modules it calls into (DESIGN.md §2).
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, over ``{module: names}``."""
    owner: Dict[str, str] = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__
