"""Lazy package exports (PEP 562) for the package inits.

A package init that re-exports names from its submodules would load
every one of them, and all they import, the moment any of its
submodules is imported.  :func:`lazy_exports` binds each re-exported
name on first use instead, so that importing a read-side module (the
store codec, the analyses, the server) loads neither the generator and
numpy nor the crawl engine.  Attribute access, ``from package import
name``, ``from package import *`` and ``dir(package)`` see the same
names an eager init would bind.

This module imports nothing from the package, so any init may use it.
"""

from __future__ import annotations

import importlib
from typing import Callable, List, Mapping, Tuple


def lazy_exports(
    namespace: dict, exports: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``.

    Args:
        namespace: The package's ``globals()``.  A name is bound there
            on first use, so later reads are plain attribute reads.
        exports: Relative module (``".store"``) -> the space-separated
            names the package re-exports from it.
    """
    package = namespace["__name__"]
    origin = {
        name: module for module, names in exports.items() for name in names.split()
    }

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
