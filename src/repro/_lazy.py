"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package ``__init__`` that imports every submodule eagerly makes
``import repro.serving.server`` pay for the MapReduce engine, the bench
drivers and the services layer before the server can print its banner.
Instead each package declares one table of its public names by home
module and resolves a name on first attribute access::

    _EXPORTS = {"repro.core.bnl": ("BNLResult", "bnl_skyline")}

    def __getattr__(name: str) -> Any:
        return lazy_export(__name__, _EXPORTS, name)

``from package import name`` and ``from package import *`` (through
``__all__``) keep working: both go through the module ``__getattr__``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Mapping, Sequence

__all__ = ["lazy_export"]


def lazy_export(
    package: str, exports: Mapping[str, Sequence[str]], name: str
) -> Any:
    """Import ``name`` from its home module in ``exports`` and cache it on
    ``package``, so later lookups are plain attribute reads."""
    for module, names in exports.items():
        if name in names:
            value = getattr(importlib.import_module(module), name)
            setattr(sys.modules[package], name, value)
            return value
    raise AttributeError(f"module {package!r} has no attribute {name!r}")
